// Package enc defines the fixed-width little-endian tuple encoding shared by
// every storage component. A tuple is a sequence of int64 fields; field i
// occupies bytes [8i, 8i+8).
package enc

import "encoding/binary"

// FieldSize is the encoded size of one tuple field in bytes.
const FieldSize = 8

// TupleSize returns the encoded size in bytes of a tuple with n fields.
func TupleSize(n int) int { return n * FieldSize }

// PutField stores v as field i of buf.
func PutField(buf []byte, i int, v int64) {
	binary.LittleEndian.PutUint64(buf[i*FieldSize:], uint64(v))
}

// Field loads field i of buf.
func Field(buf []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(buf[i*FieldSize:]))
}

// PutTuple encodes vals into buf, which must hold TupleSize(len(vals)) bytes.
func PutTuple(buf []byte, vals []int64) {
	for i, v := range vals {
		PutField(buf, i, v)
	}
}

// Tuple decodes n fields of buf into a fresh slice.
func Tuple(buf []byte, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = Field(buf, i)
	}
	return out
}

// AppendTuple appends the encoding of vals to dst and returns the extended
// slice. The slice is grown once and encoded in place, rather than appending
// a temporary buffer per field.
func AppendTuple(dst []byte, vals []int64) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, TupleSize(len(vals)))...)
	PutTuple(dst[n:], vals)
	return dst
}

// CompareFields compares field i of a and b, returning -1, 0 or +1.
func CompareFields(a, b []byte, i int) int {
	av, bv := Field(a, i), Field(b, i)
	switch {
	case av < bv:
		return -1
	case av > bv:
		return 1
	default:
		return 0
	}
}

// Order is a lexicographic order over encoded tuples by the listed fields,
// the first one major; fields not listed take no part. It is a value, not a
// comparator: extsort reads its radix digits from the fields, and its run
// merge compares them with Less.
type Order []int

// LessByFields returns the Order over the given fields, the first major.
func LessByFields(fields []int) Order { return append(Order(nil), fields...) }

// Less reports whether a sorts strictly before b.
func (o Order) Less(a, b []byte) bool {
	for _, f := range o {
		if av, bv := Field(a, f), Field(b, f); av != bv {
			return av < bv
		}
	}
	return false
}
