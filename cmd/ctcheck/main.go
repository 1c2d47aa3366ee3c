// Command ctcheck is an offline integrity scrubber for Cubetree warehouses:
//
//	ctcheck -dir ./wh
//	ctcheck -dir ./wh -json
//
// It walks every page of every tree file of the committed generation,
// verifies the per-page checksums, and then re-validates the forest's
// structural and catalog invariants (packing order, MBR containment, point
// totals) and decode-verifies every leaf, reporting the census of leaf
// layouts actually on disk. It never modifies the warehouse. The exit status
// is 0 when the warehouse is intact and 1 when any damage was found, so it
// can gate backups and restarts in scripts. With -json the report is a
// single machine-readable document on stdout (the scrub metrics registry
// snapshot plus the verdict), in the style of ctbench's -json artifacts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cubetree/internal/core"
	"cubetree/internal/obs"
	"cubetree/internal/pager"
)

// scrub aggregates everything one run measures: the metrics registry the
// scrub counters flow through, and where human-readable notes go (stdout
// normally, stderr under -json so stdout stays a clean document).
type scrub struct {
	out   io.Writer
	stats *pager.Stats
	reg   *obs.Registry
	trees []treeScrub

	filesScrubbed *obs.Counter // scrub_files_total
	filesDamaged  *obs.Counter // scrub_files_damaged
	pagesDamaged  *obs.Counter // scrub_pages_damaged
	orphans       *obs.Counter // scrub_orphans
	errors        *obs.Counter // scrub_errors_total
}

// treeScrub is one tree file's scrub measurement, reported per tree under
// -json so slow or damaged trees stand out individually.
type treeScrub struct {
	Name         string `json:"name"`
	Pages        uint64 `json:"pages"`
	DamagedPages uint64 `json:"damaged_pages"`
	DurationNS   int64  `json:"duration_ns"`
	Checksummed  bool   `json:"checksummed"`
	// Leaf-format census from the decode-verify pass: leaf pages per
	// layout (v2 = read-only packed coordinates and raw measures, v3 = every
	// column packed). Zero when the structural pass could not run.
	V2Leaves uint64 `json:"v2_leaves,omitempty"`
	V3Leaves uint64 `json:"v3_leaves,omitempty"`
}

func newScrub(out io.Writer) *scrub {
	s := &scrub{out: out, stats: &pager.Stats{}, reg: obs.NewRegistry()}
	s.reg.AttachStats(s.stats)
	s.filesScrubbed = s.reg.Counter("scrub_files_total")
	s.filesDamaged = s.reg.Counter("scrub_files_damaged")
	s.pagesDamaged = s.reg.Counter("scrub_pages_damaged")
	s.orphans = s.reg.Counter("scrub_orphans")
	s.errors = s.reg.Counter("scrub_errors_total")
	return s
}

// report is the -json output document.
type report struct {
	Dir              string       `json:"dir"`
	OK               bool         `json:"ok"`
	PagesScrubbed    uint64       `json:"pages_scrubbed"`
	ChecksumFailures uint64       `json:"checksum_failures"`
	Trees            []treeScrub  `json:"trees"`
	Metrics          obs.Snapshot `json:"metrics"`
}

func main() {
	var (
		dir     = flag.String("dir", "", "warehouse directory, or a single forest directory (required)")
		verbose = flag.Bool("v", false, "report every file scrubbed, not just damage")
		asJSON  = flag.Bool("json", false, "write a machine-readable report to stdout")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "ctcheck: -dir is required")
		os.Exit(2)
	}

	out := io.Writer(os.Stdout)
	if *asJSON {
		out = os.Stderr
	}
	s := newScrub(out)

	forestDir, err := s.resolveForestDir(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctcheck: %v\n", err)
		os.Exit(2)
	}

	damaged := s.scrubForest(forestDir, *verbose)
	damaged = s.checkInvariants(forestDir, *verbose) || damaged

	if *asJSON {
		rep := report{
			Dir:              forestDir,
			OK:               !damaged,
			PagesScrubbed:    s.stats.PagesScrubbed(),
			ChecksumFailures: s.stats.ChecksumFailures(),
			Trees:            s.trees,
			Metrics:          s.reg.Snapshot(),
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctcheck: %v\n", err)
			os.Exit(2)
		}
		fmt.Println(string(data))
	} else {
		fmt.Fprintf(out, "%d pages scrubbed, %d checksum failures\n",
			s.stats.PagesScrubbed(), s.stats.ChecksumFailures())
		if damaged {
			fmt.Fprintln(out, "DAMAGED")
		} else {
			fmt.Fprintln(out, "OK")
		}
	}
	if damaged {
		os.Exit(1)
	}
}

// resolveForestDir maps the -dir argument to the forest directory to check:
// a warehouse directory is followed to its committed generation (warning
// about any crash debris on the way), while a directory holding forest.json
// is checked as-is.
func (s *scrub) resolveForestDir(dir string) (string, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "warehouse.json"))
	if os.IsNotExist(err) {
		if _, err := os.Stat(filepath.Join(dir, "forest.json")); err != nil {
			return "", fmt.Errorf("%s holds neither warehouse.json nor forest.json", dir)
		}
		return dir, nil
	}
	if err != nil {
		return "", err
	}
	var cat struct {
		Generation int `json:"generation"`
	}
	if err := json.Unmarshal(raw, &cat); err != nil {
		return "", fmt.Errorf("parse warehouse.json: %w", err)
	}
	keep := fmt.Sprintf("gen-%06d", cat.Generation)
	// Orphans are not damage — a crash can leave them and Open sweeps them —
	// but an operator running a scrubber wants to know.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		name := e.Name()
		switch {
		case name == keep || name == "warehouse.json":
		case e.IsDir() && (name == "scratch" || strings.HasPrefix(name, "gen-")):
			s.orphans.Inc()
			fmt.Fprintf(s.out, "warning: orphan directory %s (crash debris; removed on next Open)\n", name)
		case !e.IsDir() && strings.Contains(name, ".tmp-"):
			s.orphans.Inc()
			fmt.Fprintf(s.out, "warning: orphan temp file %s\n", name)
		}
	}
	return filepath.Join(dir, keep), nil
}

// scrubForest reads every page of every tree file named by the forest
// catalog, verifying checksums. It keeps going past damage so one bad page
// does not hide another, and reports whether any was found.
func (s *scrub) scrubForest(dir string, verbose bool) bool {
	raw, err := os.ReadFile(filepath.Join(dir, "forest.json"))
	if err != nil {
		s.errors.Inc()
		fmt.Fprintf(s.out, "error: %v\n", err)
		return true
	}
	var cat struct {
		Trees []string `json:"trees"`
	}
	if err := json.Unmarshal(raw, &cat); err != nil {
		s.errors.Inc()
		fmt.Fprintf(s.out, "error: parse forest.json: %v\n", err)
		return true
	}
	damaged := false
	for _, name := range cat.Trees {
		path := filepath.Join(dir, name)
		f, err := pager.Open(path, s.stats)
		if err != nil {
			s.errors.Inc()
			fmt.Fprintf(s.out, "error: %v\n", err)
			damaged = true
			continue
		}
		s.filesScrubbed.Inc()
		if !f.Checksummed() {
			fmt.Fprintf(s.out, "note: %s predates page checksums; contents cannot be verified\n", name)
		}
		bad := 0
		start := time.Now()
		buf := make([]byte, pager.PageSize)
		for id := pager.PageID(0); id < pager.PageID(f.NumPages()); id++ {
			if err := f.ReadPage(id, buf); err != nil {
				fmt.Fprintf(s.out, "error: %v\n", err)
				bad++
			}
		}
		s.stats.AddPagesScrubbed(uint64(f.NumPages()))
		s.trees = append(s.trees, treeScrub{
			Name:         name,
			Pages:        uint64(f.NumPages()),
			DamagedPages: uint64(bad),
			DurationNS:   time.Since(start).Nanoseconds(),
			Checksummed:  f.Checksummed(),
		})
		if bad > 0 {
			damaged = true
			s.filesDamaged.Inc()
			s.pagesDamaged.Add(uint64(bad))
			fmt.Fprintf(s.out, "%s: %d damaged pages of %d\n", name, bad, f.NumPages())
		} else if verbose {
			fmt.Fprintf(s.out, "%s: %d pages clean\n", name, f.NumPages())
		}
		f.Close()
	}
	return damaged
}

// checkInvariants opens the forest read-only and runs the full structural
// validation: every placement's run exists with matching arity, point totals
// add up, and every tree satisfies packing order and MBR containment.
func (s *scrub) checkInvariants(dir string, verbose bool) bool {
	f, err := core.Open(dir, s.stats)
	if err != nil {
		s.errors.Inc()
		fmt.Fprintf(s.out, "error: open forest: %v\n", err)
		return true
	}
	defer f.Close()
	if err := f.Validate(); err != nil {
		s.errors.Inc()
		fmt.Fprintf(s.out, "error: %v\n", err)
		return true
	}
	damaged := false
	for i := 0; i < f.Trees(); i++ {
		// Decode-verify every leaf: node kinds must be known, and column
		// blocks must parse in bounds with zone maps matching the decoded
		// data. Validate already walked the points; this catches format-level
		// corruption that still decodes to structurally valid points.
		info, err := f.Tree(i).ScrubLeaves()
		if err != nil {
			s.errors.Inc()
			fmt.Fprintf(s.out, "error: tree %d: %v\n", i, err)
			damaged = true
			continue
		}
		if i < len(s.trees) {
			s.trees[i].V2Leaves = info.V2Leaves
			s.trees[i].V3Leaves = info.V3Leaves
		}
		if info.V2Leaves > 0 {
			fmt.Fprintf(s.out, "note: tree %d holds %d read-only v2 leaves; the next refresh rewrites them as v3\n",
				i, info.V2Leaves)
		}
		if verbose {
			fmt.Fprintf(s.out, "tree %d: %d v2 leaves, %d v3 leaves, %d points\n",
				i, info.V2Leaves, info.V3Leaves, info.Points)
		}
	}
	if verbose {
		fmt.Fprintf(s.out, "catalog: %d trees, %d placements, %d points\n",
			f.Trees(), len(f.Placements()), f.Points())
	}
	return damaged
}
