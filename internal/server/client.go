package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"cubetree/internal/workload"
)

// Client is cubetreed's HTTP query client. Shed responses (429 and 503) and
// transport errors are retried up to clientRetries times with doubling
// backoff, honoring the server's Retry-After when it is shorter than the next
// backoff step — the server's estimate of when capacity returns is better
// than a blind schedule. Other errors are never retried; they would fail
// identically forever.
type Client struct {
	// Base is the server root, e.g. "http://localhost:8347".
	Base string
	// backoff replaces clientBackoff as the first retry delay when set.
	backoff time.Duration
}

const (
	clientRetries = 4
	clientBackoff = 100 * time.Millisecond
)

// APIError is a structured error response from the server.
type APIError struct {
	Status     int
	Code       string
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: %d %s: %s", e.Status, e.Code, e.Message)
}

// QueryOpts are per-request options for Query.
type QueryOpts struct {
	// Profile asks the server for an EXPLAIN-ANALYZE-style execution
	// profile (leaf pages read/skipped, points scanned, pool deltas, cache
	// disposition, per-shard detail on a coordinator).
	Profile bool
	// TraceID sets the outbound X-Trace-Id header so this request joins
	// an existing trace; empty lets the server mint one. The server's
	// choice comes back in QueryResponse.TraceID.
	TraceID string
}

// Query executes one sqlish statement and returns the response envelope:
// its one result, the generation it came from, and the request's trace ID.
// The trace ID rides along on every attempt, so retries of one logical
// request share one trace.
func (c *Client) Query(ctx context.Context, sql string, opts QueryOpts) (*QueryResponse, error) {
	body, err := json.Marshal(QueryRequest{SQL: sql, Profile: opts.Profile})
	if err != nil {
		return nil, err
	}
	wait := c.backoff
	if wait <= 0 {
		wait = clientBackoff
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/query", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if opts.TraceID != "" {
			req.Header.Set("X-Trace-Id", opts.TraceID)
		}
		var retryAfter time.Duration
		res, err := http.DefaultClient.Do(req)
		if err == nil { // else a transport error: server restarting, listener draining
			var raw []byte
			if raw, err = readResponse(res); err == nil {
				var resp QueryResponse
				if err := json.Unmarshal(raw, &resp); err != nil {
					return nil, fmt.Errorf("server: bad response body: %v", err)
				}
				if len(resp.Results) != 1 {
					return nil, fmt.Errorf("server: expected 1 result, got %d", len(resp.Results))
				}
				return &resp, nil
			}
			apiErr, ok := err.(*APIError)
			if !ok || !retryable(apiErr.Status) {
				return nil, err
			}
			retryAfter = apiErr.RetryAfter
		}
		if attempt >= clientRetries {
			return nil, err
		}
		sleep := wait
		if retryAfter > 0 && retryAfter < sleep {
			sleep = retryAfter
		}
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		wait *= 2
	}
}

func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// readResponse drains one response, turning non-2xx statuses into *APIError
// (decoding the structured body when the server sent one).
func readResponse(res *http.Response) ([]byte, error) {
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	if res.StatusCode >= 200 && res.StatusCode < 300 {
		return raw, nil
	}
	apiErr := &APIError{Status: res.StatusCode, Code: CodeInternal, Message: strings.TrimSpace(string(raw))}
	var envelope ErrorResponse
	if json.Unmarshal(raw, &envelope) == nil && envelope.Error.Code != "" {
		apiErr.Code = envelope.Error.Code
		apiErr.Message = envelope.Error.Message
		apiErr.RetryAfter = time.Duration(envelope.Error.RetryAfterMS) * time.Millisecond
	}
	if apiErr.RetryAfter == 0 {
		if secs, err := strconv.Atoi(res.Header.Get("Retry-After")); err == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return raw, apiErr
}

// SQLFor renders a slice query as sqlish text, so tools that think in
// workload.Query terms (the bench driver, the query shell) can speak to the
// server without a second wire format. The rendering round-trips through
// sqlish.Parse back to an equivalent query.
func SQLFor(q workload.Query) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for _, a := range q.Node {
		b.WriteString(string(a))
		b.WriteString(", ")
	}
	b.WriteString("sum(m)")
	if len(q.Node) == 0 {
		b.WriteString(", count(*)")
	}
	b.WriteString(" FROM facts")
	if len(q.Fixed) > 0 || len(q.Ranges) > 0 {
		b.WriteString(" WHERE ")
		preds := make([]string, 0, len(q.Fixed)+len(q.Ranges))
		for _, p := range q.Fixed {
			preds = append(preds, fmt.Sprintf("%s = %d", p.Attr, p.Value))
		}
		for _, r := range q.Ranges {
			preds = append(preds, fmt.Sprintf("%s BETWEEN %d AND %d", r.Attr, r.Lo, r.Hi))
		}
		sort.Strings(preds)
		b.WriteString(strings.Join(preds, " AND "))
	}
	if len(q.Node) > 0 {
		b.WriteString(" GROUP BY ")
		for i, a := range q.Node {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(string(a))
		}
	}
	return b.String()
}
