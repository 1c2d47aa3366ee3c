package server

import (
	"encoding/json"
	"sync"

	"cubetree/internal/sqlish"
	"cubetree/internal/workload"
)

// bufPool recycles /query body and response buffers; one over maxPooledBuf
// is dropped rather than pinned in the pool.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledBuf = 64 << 10

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// appendResult appends one statement's answer straight from its rows as the
// fragment the result cache stores: its StatementResult object as
// encoding/json writes it, up to but not including "cached" and the
// closing brace.
func appendResult(b []byte, st *sqlish.Statement, p sqlish.Projection, rows []workload.Row) []byte {
	b = append(b, `{"headers":[`...)
	for i, c := range st.Columns {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, c.Label)
	}
	b = append(b, `],"rows":[`...)
	for j, r := range p.Rows(rows) {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for i := range st.Columns {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(p.AppendCell(append(b, '"'), r, i), '"')
		}
		b = append(b, ']')
	}
	return append(b, ']')
}

// appendJSONString appends s as encoding/json renders it. Printable ASCII
// that JSON and HTML escaping leave alone — every column label and minted
// trace ID — is copied; anything else takes json.Marshal, so escaping is
// encoding/json's own.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}
