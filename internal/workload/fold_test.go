package workload

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cubetree/internal/lattice"
)

// aggCell and refFold are the fold as it was before the columnar rewrite —
// a map keyed by the byte-serialised group, one heap cell per group, a
// comparator sort — kept as the reference the Aggregator and MergePartials
// are checked against.
type aggCell struct {
	group    []int64
	measures []int64
}

type observation struct {
	group    []int64
	measures []int64
}

func refFold(schema lattice.Schema, obs []observation) []Row {
	groups := map[string]*aggCell{}
	for _, o := range obs {
		key := fmt.Sprint(o.group)
		cell := groups[key]
		if cell == nil {
			groups[key] = &aggCell{
				group:    slices.Clone(o.group),
				measures: slices.Clone(o.measures),
			}
			continue
		}
		schema.Fold(cell.measures, o.measures)
	}
	rows := make([]Row, 0, len(groups))
	for _, c := range groups {
		row := Row{Group: c.group, Sum: c.measures[0], Count: c.measures[1]}
		if len(c.measures) > 2 {
			row.Extra = c.measures[2:]
		}
		rows = append(rows, row)
	}
	SortRows(rows)
	return rows
}

func foldWith(width int, schema lattice.Schema, obs []observation) []Row {
	agg := NewSchemaAggregator(width, schema)
	for _, o := range obs {
		agg.AddMeasures(o.group, o.measures)
	}
	return agg.Rows()
}

// checkRows compares got with want the way engines are compared: under
// SortRows + EqualRows, after checking got arrived sorted.
func checkRows(t *testing.T, got, want []Row) {
	t.Helper()
	if !slices.IsSortedFunc(got, func(a, b Row) int { return slices.Compare(a.Group, b.Group) }) {
		t.Fatalf("result not in canonical order: %v", got)
	}
	SortRows(got)
	if !EqualRows(got, want) {
		t.Fatalf("got %d rows %v\nwant %d rows %v", len(got), got, len(want), want)
	}
}

// observations draws n observations of the given width: distinct groups are
// uniform over a domain centred on zero (so half the values are negative),
// and a dup share of the observations repeat an earlier group.
func observations(rng *rand.Rand, n, width int, domain uint64, dup float64, schema lattice.Schema) []observation {
	distinct := max(1, int(float64(n)*(1-dup)))
	pool := make([][]int64, distinct)
	for i := range pool {
		pool[i] = make([]int64, width)
		for j := range pool[i] {
			pool[i][j] = int64(rng.Uint64()%domain) - int64(domain/2)
		}
	}
	obs := make([]observation, n)
	for i := range obs {
		g := pool[i%distinct]
		if i >= distinct {
			g = pool[rng.Intn(distinct)]
		}
		m := make([]int64, schema.Len())
		schema.Init(m, rng.Int63n(2001)-1000)
		obs[i] = observation{group: g, measures: m}
	}
	return obs
}

func testSchemas(t *testing.T) map[string]lattice.Schema {
	return map[string]lattice.Schema{"default": lattice.DefaultSchema(), "minmax": fullSchema(t)}
}

func TestAggregatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	orders := map[string]func([]observation){
		"ascending": func(obs []observation) {
			slices.SortStableFunc(obs, func(a, b observation) int { return slices.Compare(a.group, b.group) })
		},
		"reversed": func(obs []observation) {
			slices.SortStableFunc(obs, func(a, b observation) int { return slices.Compare(b.group, a.group) })
		},
		"shuffled": func(obs []observation) {
			rng.Shuffle(len(obs), func(i, j int) { obs[i], obs[j] = obs[j], obs[i] })
		},
	}
	for sname, schema := range testSchemas(t) {
		for width := 0; width <= 5; width++ {
			for _, domain := range []uint64{1, 1 << 20, 1 << 62} {
				for _, dup := range []float64{0, 0.5, 0.99} {
					for oname, order := range orders {
						name := fmt.Sprintf("%s/w%d/dom%d/dup%v/%s", sname, width, domain, dup, oname)
						t.Run(name, func(t *testing.T) {
							obs := observations(rng, 600, width, domain, dup, schema)
							order(obs)
							checkRows(t, foldWith(width, schema, obs), refFold(schema, obs))
						})
					}
				}
			}
		}
	}
}

// TestAggregatorFullRange spans a column from MinInt64 to MaxInt64 (the sort
// must not overflow on the difference) beside three attributes of 2^40.
func TestAggregatorFullRange(t *testing.T) {
	schema := lattice.DefaultSchema()
	var obs []observation
	for _, a := range []int64{math.MaxInt64, 0, math.MinInt64, -1, 1 << 40} {
		for _, b := range []int64{1 << 40, -(1 << 40), 7} {
			for _, c := range []int64{1<<40 + 1, 1 << 40} {
				obs = append(obs, observation{[]int64{a, b, c}, []int64{a % 1000, 1}})
			}
		}
	}
	obs = append(obs, obs[:7]...)
	checkRows(t, foldWith(3, schema, obs), refFold(schema, obs))
}

// TestAggregatorBatchMatchesPoints folds the same rows through AddBatch and
// through AddMeasures.
func TestAggregatorBatchMatchesPoints(t *testing.T) {
	schema := fullSchema(t)
	rng := rand.New(rand.NewSource(3))
	obs := observations(rng, 300, 2, 50, 0.5, schema)
	cols := [][]int64{make([]int64, len(obs)), make([]int64, len(obs))}
	meas := make([][]int64, schema.Len())
	for m := range meas {
		meas[m] = make([]int64, len(obs))
	}
	sel := make([]uint64, (len(obs)+63)/64)
	var picked []observation
	for i, o := range obs {
		cols[0][i], cols[1][i] = o.group[0], o.group[1]
		for m := range meas {
			meas[m][i] = o.measures[m]
		}
		if i%3 != 0 {
			sel[i/64] |= 1 << (i % 64)
			picked = append(picked, o)
		}
	}
	agg := NewSchemaAggregator(2, schema)
	if n := agg.AddBatch(cols, meas, sel); n != len(picked) {
		t.Fatalf("AddBatch folded %d rows, want %d", n, len(picked))
	}
	checkRows(t, agg.Rows(), refFold(schema, picked))
}

// sortMajor stably sorts obs into storage order: groups ascending in the
// order that compares columns major[0], major[1], ….
func sortMajor(obs []observation, major []int) {
	slices.SortStableFunc(obs, func(a, b observation) int {
		for _, j := range major {
			if c := cmp.Compare(a.group[j], b.group[j]); c != 0 {
				return c
			}
		}
		return 0
	})
}

// sortPrefix is the fewest leading columns a stable sort of cells in major
// order must key on to reach canonical order: the columns after them must
// appear in major in their own order.
func sortPrefix(major []int) int {
	rank := make([]int, len(major))
	for k, j := range major {
		rank[j] = k
	}
	for i := len(rank) - 2; i >= 0; i-- {
		if rank[i] > rank[i+1] {
			return i + 1
		}
	}
	return 0
}

// permutation returns the permutation of 0 … n-1 numbered code (mod n!).
func permutation(n int, code uint) []int {
	left := make([]int, n)
	for i := range left {
		left[i] = i
	}
	perm := make([]int, 0, n)
	for k := n; k > 0; k-- {
		i := int(code % uint(k))
		code /= uint(k)
		perm = append(perm, left[i])
		left = slices.Delete(left, i, i+1)
	}
	return perm
}

// foldRuns folds obs run length, per batch rows at a time through AddBatch.
// Every selected row has an unselected neighbour holding a garbage group
// and measures, which the fold must not see.
func foldRuns(width int, schema lattice.Schema, obs []observation, major []int, prefix, batch int) []Row {
	agg := NewSchemaAggregator(width, schema)
	agg.FoldRuns(major, prefix)
	for lo := 0; lo < len(obs); lo += batch {
		part := obs[lo:min(lo+batch, len(obs))]
		cols, meas := make([][]int64, width), make([][]int64, schema.Len())
		for j := range cols {
			cols[j] = make([]int64, 2*len(part))
		}
		for j := range meas {
			meas[j] = make([]int64, 2*len(part))
		}
		sel := make([]uint64, (2*len(part)+63)/64)
		for i, o := range part {
			for j := range cols {
				cols[j][2*i], cols[j][2*i+1] = o.group[j], math.MinInt64+int64(i)
			}
			for j := range meas {
				meas[j][2*i], meas[j][2*i+1] = o.measures[j], math.MaxInt64
			}
			sel[i/32] |= 1 << (2 * i % 64)
		}
		agg.AddBatch(cols, meas, sel)
	}
	return agg.Rows()
}

// TestAggregatorRunsMatchReference feeds the run-length fold observations in
// storage order for every major order of up to four columns, at batch
// sizes from one row up, and once with the greatest observation moved to
// the middle so that the fold must fall back to hashing part way.
func TestAggregatorRunsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for sname, schema := range testSchemas(t) {
		for width := 0; width <= 4; width++ {
			perms := 1
			for k := 2; k <= width; k++ {
				perms *= k
			}
			for code := 0; code < perms; code++ {
				major := permutation(width, uint(code))
				for _, dup := range []float64{0, 0.9} {
					for _, batch := range []int{1, 7, 200} {
						for _, swap := range []bool{false, true} {
							name := fmt.Sprintf("%s/w%d/major%v/dup%v/batch%d/swap%v", sname, width, major, dup, batch, swap)
							t.Run(name, func(t *testing.T) {
								obs := observations(rng, 300, width, 16, dup, schema)
								sortMajor(obs, major)
								if swap {
									mid := len(obs) / 2
									obs[mid], obs[len(obs)-1] = obs[len(obs)-1], obs[mid]
								}
								checkRows(t, foldRuns(width, schema, obs, major, sortPrefix(major), batch), refFold(schema, obs))
							})
						}
					}
				}
			}
		}
	}
}

// TestFoldRunsRefusesBadOrders pins that FoldRuns ignores a major that is
// no permutation of the group's columns, or a call after the first
// observation, that AddMeasures turns a run-length fold into a hash fold,
// and that the fold stays exact throughout.
func TestFoldRunsRefusesBadOrders(t *testing.T) {
	schema := lattice.DefaultSchema()
	rng := rand.New(rand.NewSource(9))
	obs := observations(rng, 200, 2, 8, 0.5, schema)
	want := refFold(schema, obs)
	for _, major := range [][]int{{0, 0}, {0}, {0, 2}, {1, -1}} {
		checkRows(t, foldRuns(2, schema, obs, major, 0, 5), want)
	}
	agg := NewSchemaAggregator(2, schema)
	agg.AddMeasures(obs[0].group, obs[0].measures)
	agg.FoldRuns([]int{0, 1}, 0)
	for _, o := range obs[1:] {
		agg.AddMeasures(o.group, o.measures)
	}
	checkRows(t, agg.Rows(), want)
	agg.FoldRuns([]int{0, 1}, 0)
	for _, o := range obs {
		agg.AddMeasures(o.group, o.measures)
	}
	checkRows(t, agg.Rows(), want)
}

// TestAggregatorReusableAfterRows pins that Rows leaves an empty aggregator.
func TestAggregatorReusableAfterRows(t *testing.T) {
	a := NewAggregator(1)
	a.Add([]int64{2}, 5, 1)
	a.Add([]int64{1}, 7, 1)
	first := a.Rows()
	a.Add([]int64{9}, 1, 1)
	second := a.Rows()
	if len(first) != 2 || first[0].Group[0] != 1 || len(second) != 1 || second[0].Group[0] != 9 {
		t.Fatalf("first %v second %v", first, second)
	}
	if rows := a.Rows(); rows == nil || len(rows) != 0 {
		t.Fatalf("empty aggregator Rows = %v, want non-nil empty", rows)
	}
}

// TestRowsDoNotAlias pins the arena sharing documented on Row: appending to
// one row's Group or Extra must not reach its neighbour, and a result must
// survive the next fold reusing the pooled scratch it was copied out of.
func TestRowsDoNotAlias(t *testing.T) {
	schema := fullSchema(t)
	fold := func(base int64) []Row {
		a := NewSchemaAggregator(2, schema)
		for i := int64(0); i < 50; i++ {
			a.AddMeasures([]int64{base + i, base - i}, []int64{i, 1, i, i})
		}
		return a.Rows()
	}
	rows := fold(100)
	want := fold(100)
	for i := range rows[:len(rows)-1] {
		_ = append(rows[i].Group, -1)
		_ = append(rows[i].Extra, -1)
	}
	fold(-7000) // same pooled scratch, different contents
	if !EqualRows(rows, want) {
		t.Fatalf("rows changed under append or scratch reuse:\n%v\nwant\n%v", rows, want)
	}
}

// shardRows splits obs into k shards at random and folds each into its
// canonical partial, the way each worker answers over its slice of the facts.
func shardRows(rng *rand.Rand, schema lattice.Schema, obs []observation, k int) [][]Row {
	parts := make([][]observation, k)
	for _, o := range obs {
		i := rng.Intn(k)
		parts[i] = append(parts[i], o)
	}
	shards := make([][]Row, k)
	for i, p := range parts {
		shards[i] = refFold(schema, p)
	}
	return shards
}

func TestMergePartialsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for sname, schema := range testSchemas(t) {
		for k := 1; k <= 4; k++ {
			for _, width := range []int{0, 1, 3} {
				for _, variant := range []string{"sorted", "empty-shard", "unsorted-shard"} {
					t.Run(fmt.Sprintf("%s/k%d/w%d/%s", sname, k, width, variant), func(t *testing.T) {
						obs := observations(rng, 400, width, 64, 0.5, schema)
						shards := shardRows(rng, schema, obs, k)
						switch variant {
						case "empty-shard":
							shards = append(shards, nil)
							shards[0], shards[k] = shards[k], shards[0]
						case "unsorted-shard":
							slices.Reverse(shards[k-1])
						}
						checkRows(t, MergePartials(schema, shards), refFold(schema, obs))
					})
				}
			}
		}
	}
}

// TestMergePartialsLeavesInputs pins that merging does not write to the
// shards' rows: the coordinator's peers' frames, and the benchmark ledger's
// repeated merges of one slice, rely on it.
func TestMergePartialsLeavesInputs(t *testing.T) {
	schema := fullSchema(t)
	rng := rand.New(rand.NewSource(5))
	shards := shardRows(rng, schema, observations(rng, 200, 2, 16, 0.5, schema), 2)
	before := [][]Row{cloneRows(shards[0]), cloneRows(shards[1])}
	first := MergePartials(schema, shards)
	second := MergePartials(schema, shards)
	if !EqualRows(first, second) {
		t.Fatal("second merge of the same shards differs")
	}
	for i := range shards {
		if !EqualRows(shards[i], before[i]) {
			t.Fatalf("shard %d modified by the merge", i)
		}
	}
}

func cloneRows(rows []Row) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = Row{Group: slices.Clone(r.Group), Sum: r.Sum, Count: r.Count, Extra: slices.Clone(r.Extra)}
	}
	return out
}

// FuzzAggregator decodes the input as a width, a mode byte and a stream of
// observations (values drawn small, huge and negative) and checks the fold
// against the reference. The mode byte's bit 0 picks the schema. Bit 1
// drives the run-length fold: the observations are sorted into a major
// order that bits 3 to 7 pick, and folded three to a batch. Bit 2 then
// swaps the first and last observation, which breaks the order the fold
// was promised and makes it fall back to hashing.
func FuzzAggregator(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 2, 3})
	f.Add([]byte{2, 1, 5, 5, 1, 5, 5, 2, 4, 9, 3, 5, 5, 4})
	f.Add([]byte{3, 0, 255, 0, 128, 1, 254, 127, 3, 2, 255, 0, 128, 9, 0, 0, 0, 1})
	f.Add([]byte("\x05\x01the quick brown fox jumps over the lazy dog, twice over the lazy dog"))
	f.Add([]byte{2, 0b1010, 5, 5, 1, 5, 5, 2, 4, 9, 3, 5, 5, 4, 1, 1, 1})
	f.Add([]byte{3, 0b101111, 255, 0, 128, 1, 254, 127, 3, 2, 255, 0, 128, 9, 0, 0, 0, 1, 7, 7, 7, 7})
	f.Add([]byte("\x04\x76the quick brown fox jumps over the lazy dog, twice over the lazy dog"))
	minmax, err := lattice.NewSchema(lattice.AggMin, lattice.AggMax)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		width, mode := int(data[0]%6), data[1]
		schema := lattice.DefaultSchema()
		if mode&1 == 1 {
			schema = minmax
		}
		data = data[2:]
		// One byte per coordinate: the low 6 bits pick a value, the top two
		// stretch it to a full-width, a negative or a small coordinate.
		value := func(b byte) int64 {
			v := int64(b & 63)
			switch b >> 6 {
			case 1:
				return -v
			case 2:
				return v << 56
			case 3:
				return math.MinInt64 + v
			}
			return v
		}
		var obs []observation
		for len(data) > width {
			o := observation{group: make([]int64, width), measures: make([]int64, schema.Len())}
			for j := range o.group {
				o.group[j] = value(data[j])
			}
			schema.Init(o.measures, int64(int8(data[width])))
			obs = append(obs, o)
			data = data[width+1:]
		}
		if mode&2 == 0 {
			checkRows(t, foldWith(width, schema, obs), refFold(schema, obs))
			return
		}
		major := permutation(width, uint(mode>>3))
		sortMajor(obs, major)
		if mode&4 != 0 && len(obs) > 1 {
			obs[0], obs[len(obs)-1] = obs[len(obs)-1], obs[0]
		}
		checkRows(t, foldRuns(width, schema, obs, major, sortPrefix(major), 3), refFold(schema, obs))
	})
}
