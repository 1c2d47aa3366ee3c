package cubetree

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// CSVRows adapts a CSV stream to a fact RowIter. The first record is the
// header naming the attributes; measure selects the column aggregated as
// the fact measure; every field must be an integer. This pairs with the
// dbgen tool's output:
//
//	f, _ := os.Open("facts.csv")
//	rows, _ := cubetree.CSVRows(f, "quantity")
//	w, _ := cubetree.Materialize(cfg, views, rows)
//
// An error met mid-stream (a malformed record, a column the views read but
// the header lacks) stops iteration, surfaces from Err and fails Materialize
// or Update: nothing is built from a truncated stream.
func CSVRows(r io.Reader, measure string) (*CSVSource, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("cubetree: csv header: %w", err)
	}
	s := &CSVSource{r: cr, cols: map[Attr]int{}, measureCol: -1}
	for i, name := range header {
		name = strings.TrimSpace(strings.ToLower(name))
		s.cols[Attr(name)] = i
		if name == strings.ToLower(measure) {
			s.measureCol = i
		}
	}
	if s.measureCol < 0 {
		return nil, fmt.Errorf("cubetree: csv has no measure column %q", measure)
	}
	return s, nil
}

// CSVSource is a RowIter over CSV fact data; see CSVRows.
type CSVSource struct {
	r          *csv.Reader
	cols       map[Attr]int
	measureCol int
	row        []int64
	err        error
}

// Next advances to the next data record.
func (s *CSVSource) Next() bool {
	if s.err != nil {
		return false
	}
	rec, err := s.r.Read()
	if err == io.EOF {
		return false
	}
	if err != nil {
		s.err = err
		return false
	}
	if cap(s.row) < len(rec) {
		s.row = make([]int64, len(rec))
	}
	s.row = s.row[:len(rec)]
	for i, f := range rec {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			s.err = fmt.Errorf("cubetree: csv field %d: %w", i, err)
			return false
		}
		s.row[i] = v
	}
	return true
}

// Value returns the named attribute of the current record.
func (s *CSVSource) Value(a Attr) (int64, error) {
	i, ok := s.cols[a]
	if !ok {
		s.err = fmt.Errorf("cubetree: csv has no column %q", a)
		return 0, s.err
	}
	// encoding/csv holds every record to the header's field count.
	return s.row[i], nil
}

// Measure returns the measure column of the current record.
func (s *CSVSource) Measure() int64 { return s.row[s.measureCol] }

// Err returns the first error encountered while reading, if any: what made
// Materialize or Update fail when the fault was in the data.
func (s *CSVSource) Err() error { return s.err }

var _ RowIter = (*CSVSource)(nil)
