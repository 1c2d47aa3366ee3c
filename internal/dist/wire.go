// Package dist distributes a cubetree forest across worker processes: a
// coordinator hash-partitions the fact key space over N workers, each
// owning a full view set materialized from its slice of the facts, scatters
// every slice query to all shards in parallel, and folds the partial
// aggregates back together with the lattice.Schema fold. Because every
// stored measure is distributive (SUM/COUNT add, MIN/MAX take extremes),
// the merged result is identical to a single-process warehouse over the
// union of the facts, regardless of how rows were assigned to shards.
//
// Refresh fans out per-shard row-set deltas in two phases: every worker
// merge-packs its delta into a pending generation concurrently (queries
// keep flowing against the old generations), then the coordinator commits
// all shards inside one brief query-blocking window, so a scatter observes
// either every shard's old generation or every shard's new one — never a
// mix.
//
// Workers speak a versioned length-prefixed binary protocol over TCP; see
// docs/DISTRIBUTED.md for the framing, commit sequence, and failure matrix.
package dist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"cubetree/internal/obs"
)

const (
	// Magic opens every frame: "CTDW" (CubeTree Distributed Wire).
	Magic = 0x43544457
	// Version is the protocol version carried in every frame header. Version
	// 2 made the query-path payloads binary (codec.go), version 3 the
	// refreshPrepare payload too; every process of a cluster is the same
	// binary, so versions are not negotiated — a peer speaking another one is
	// refused with a *VersionError.
	Version = 3
	// headerLen is the fixed frame header size: magic u32, version u8,
	// type u8, request id u64, payload length u32, all big-endian.
	headerLen = 18
	// MaxFramePayload bounds a frame's declared payload length; a header
	// claiming more is a protocol error, closing the connection.
	MaxFramePayload = 256 << 20
)

// FrameType tags a frame's payload shape.
type FrameType uint8

const (
	// FrameQuery carries one slice query; answered by FrameRows.
	FrameQuery FrameType = iota + 1
	// FrameRows is the partial result of one query at one shard.
	FrameRows
	// FrameQueryBatch carries a whole query batch; answered by
	// FrameRowsBatch. Batching amortizes the per-frame round trip when the
	// coordinator executes many queries at once.
	FrameQueryBatch
	// FrameRowsBatch is the per-query partial results of a batch.
	FrameRowsBatch
	// FrameRefreshPrepare ships a shard's row-set delta; the worker sorts and
	// merge-packs it into a pending generation and answers
	// FrameRefreshPrepared without switching.
	FrameRefreshPrepare
	// FrameRefreshPrepared acks a prepare with the pending generation.
	FrameRefreshPrepared
	// FrameRefreshCommit asks the worker to switch to the named pending
	// generation; answered by FrameRefreshAck. Committing an
	// already-committed generation re-acks, so commit retries are safe.
	FrameRefreshCommit
	// FrameRefreshAbort discards the pending generation, if any.
	FrameRefreshAbort
	// FrameRefreshAck acks a commit or abort with the current generation.
	FrameRefreshAck
	// FrameStats requests the shard's catalog summary; answered by
	// FrameStatsReply.
	FrameStats
	// FrameStatsReply carries generation, views, domains, schema and sizes.
	FrameStatsReply
	// FrameHealth is a liveness probe; answered by FrameHealthReply.
	FrameHealth
	// FrameHealthReply carries the shard's current generation.
	FrameHealthReply
	// FrameError is the failure reply to any request frame.
	FrameError
	// FrameMetrics requests the shard's observability snapshot (metrics
	// registry plus warehouse sizes) for /debug/cluster; answered by
	// FrameMetricsReply.
	FrameMetrics
	// FrameMetricsReply carries the shard's metric snapshot.
	FrameMetricsReply

	frameTypeMax = FrameMetricsReply
)

var frameNames = [frameTypeMax + 1]string{
	FrameQuery: "query", FrameRows: "rows",
	FrameQueryBatch: "queryBatch", FrameRowsBatch: "rowsBatch",
	FrameRefreshPrepare: "refreshPrepare", FrameRefreshPrepared: "refreshPrepared",
	FrameRefreshCommit: "refreshCommit", FrameRefreshAbort: "refreshAbort",
	FrameRefreshAck: "refreshAck", FrameStats: "stats", FrameStatsReply: "statsReply",
	FrameHealth: "health", FrameHealthReply: "healthReply", FrameError: "error",
	FrameMetrics: "metrics", FrameMetricsReply: "metricsReply",
}

func (t FrameType) String() string {
	if t == 0 || t > frameTypeMax {
		return fmt.Sprintf("frame(%d)", uint8(t))
	}
	return frameNames[t]
}

// Frame is one decoded protocol frame. ID correlates a reply with its
// request; each connection carries one request at a time, but the ID check
// still catches desynchronized streams.
type Frame struct {
	Type    FrameType
	ID      uint64
	Payload []byte
}

// VersionError reports a well-formed frame header (right magic) carrying a
// protocol version other than this binary's. It is permanent: the peer is a
// different build, and retrying cannot change that.
type VersionError struct {
	Got, Want uint8
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("dist: peer speaks wire protocol version %d, this binary speaks %d", e.Got, e.Want)
}

// appendHeader appends a frame header announcing n payload bytes.
func appendHeader(dst []byte, t FrameType, id uint64, n int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, Magic)
	dst = append(dst, Version, byte(t))
	dst = binary.BigEndian.AppendUint64(dst, id)
	return binary.BigEndian.AppendUint32(dst, uint32(n))
}

// endFrame completes a frame built in place — appendHeader(buf[:0], t, id, 0)
// followed by the payload — by writing the payload length into its header.
func endFrame(frame []byte) ([]byte, error) {
	n := len(frame) - headerLen
	if n > MaxFramePayload {
		return nil, fmt.Errorf("dist: payload %d exceeds frame limit %d", n, MaxFramePayload)
	}
	binary.BigEndian.PutUint32(frame[14:18], uint32(n))
	return frame, nil
}

// appendJSONFrame appends a whole control frame whose payload is v as JSON.
func appendJSONFrame(dst []byte, t FrameType, id uint64, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return endFrame(append(appendHeader(dst, t, id, 0), payload...))
}

// unmarshalJSON decodes a control frame's JSON payload into v.
func unmarshalJSON(t FrameType, payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("dist: bad %s payload: %w", t, err)
	}
	return nil
}

// EncodeFrame writes one frame to w.
func EncodeFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFramePayload {
		return fmt.Errorf("dist: payload %d exceeds frame limit %d", len(f.Payload), MaxFramePayload)
	}
	var hdr [headerLen]byte
	if _, err := w.Write(appendHeader(hdr[:0], f.Type, f.ID, len(f.Payload))); err != nil {
		return err
	}
	_, err := w.Write(f.Payload)
	return err
}

// DecodeFrame reads one frame from r. Header violations (bad magic, another
// version — a *VersionError, returned with the frame's ID — unknown type,
// oversized length) return an error without consuming the payload; the
// connection is then unusable and must be closed. A clean EOF between frames
// returns io.EOF.
func DecodeFrame(r io.Reader) (Frame, error) {
	f, _, err := readFrame(r, nil)
	return f, err
}

// readFrame is DecodeFrame reading into buf, which it returns (grown if it
// had to be) for the next call: the frame's payload aliases it, so it is
// valid only until then. A connection that reads every frame through one
// buffer allocates nothing per frame once the buffer has grown to its
// traffic.
func readFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	if cap(buf) < headerLen {
		buf = make([]byte, 0, 512)
	}
	hdr := buf[:headerLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, buf, err
	}
	if m := binary.BigEndian.Uint32(hdr[0:4]); m != Magic {
		return Frame{}, buf, fmt.Errorf("dist: bad magic 0x%08x", m)
	}
	f := Frame{Type: FrameType(hdr[5]), ID: binary.BigEndian.Uint64(hdr[6:14])}
	if hdr[4] != Version {
		// The header layout is the same in every version, so the ID is
		// returned with the error: a refusal can echo it.
		return Frame{ID: f.ID}, buf, &VersionError{Got: hdr[4], Want: Version}
	}
	if f.Type == 0 || f.Type > frameTypeMax {
		return Frame{}, buf, fmt.Errorf("dist: unknown frame type %d", hdr[5])
	}
	n := binary.BigEndian.Uint32(hdr[14:18])
	if n > MaxFramePayload {
		return Frame{}, buf, fmt.Errorf("dist: payload length %d exceeds frame limit %d", n, MaxFramePayload)
	}
	buf, err := readPayload(r, buf, int(n))
	if err != nil {
		return Frame{}, buf, fmt.Errorf("dist: short frame payload: %w", err)
	}
	if n > 0 {
		f.Payload = buf
	}
	return f, buf, nil
}

// readPayload reads exactly n bytes into buf[:0] without trusting n for an
// allocation: beyond the capacity buf already has, it grows in bounded steps
// as bytes actually arrive, so a header declaring a huge length on a
// truncated or hostile stream cannot balloon memory beyond what was really
// sent.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	const chunk = 64 << 10
	buf = buf[:0]
	for len(buf) < n {
		m := min(n-len(buf), max(chunk, cap(buf)-len(buf)))
		if cap(buf)-len(buf) < m {
			grown := make([]byte, len(buf), min(n, 2*(len(buf)+m)))
			copy(grown, buf)
			buf = grown
		}
		start := len(buf)
		buf = buf[:start+m]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// maxKeptBuffer bounds the frame buffer a connection keeps between
// exchanges: one that a large answer or refresh delta grew beyond it is
// dropped rather than pinned for the connection's life.
const maxKeptBuffer = 1 << 20

// keep returns buf for reuse, or nil when it outgrew maxKeptBuffer.
func keep(buf []byte) []byte {
	if cap(buf) > maxKeptBuffer {
		return nil
	}
	return buf
}

// Error codes carried in errorPayload.Code.
const (
	// ErrCodeQuery marks a query execution failure on the shard.
	ErrCodeQuery = "query_failed"
	// ErrCodeRefresh marks a refresh phase failure on the shard.
	ErrCodeRefresh = "refresh_failed"
	// ErrCodeBadGeneration marks a commit naming neither the pending nor
	// the current generation — coordinator and worker have diverged.
	ErrCodeBadGeneration = "bad_generation"
	// ErrCodeBadRequest marks an undecodable or malformed request payload.
	ErrCodeBadRequest = "bad_request"
	// ErrCodeOverloaded marks a transiently unservable request (e.g. the
	// shard's buffer pool is exhausted); the coordinator may retry.
	ErrCodeOverloaded = "overloaded"
	// ErrCodeBadProtocol is the one frame a worker answers to a peer whose
	// header carries another protocol version, before closing on it.
	ErrCodeBadProtocol = "bad_protocol"
)

// refreshPreparedPayload is FrameRefreshPrepared's body. NoOp marks an
// empty delta: nothing was prepared and Generation is the shard's current
// one, which a later commit of that generation simply re-acks.
type refreshPreparedPayload struct {
	Generation int  `json:"generation"`
	NoOp       bool `json:"no_op,omitempty"`
}

// refreshCommitPayload is FrameRefreshCommit's body.
type refreshCommitPayload struct {
	Generation int `json:"generation"`
}

// refreshAckPayload is FrameRefreshAck's body.
type refreshAckPayload struct {
	Generation int `json:"generation"`
}

// wireView is a view definition on the wire.
type wireView struct {
	Name  string   `json:"name,omitempty"`
	Attrs []string `json:"attrs"`
}

// statsReplyPayload is FrameStatsReply's body: enough of the shard's
// catalog for the coordinator to stand in for a local warehouse.
type statsReplyPayload struct {
	Generation int              `json:"generation"`
	Views      []wireView       `json:"views"`
	Domains    map[string]int64 `json:"domains"`
	Schema     []string         `json:"schema"`
	Points     int64            `json:"points"`
	Bytes      int64            `json:"bytes"`
}

// healthReplyPayload is FrameHealthReply's body.
type healthReplyPayload struct {
	Generation int `json:"generation"`
}

// metricsReplyPayload is FrameMetricsReply's body: the worker's full metric
// registry snapshot (counters, gauges — including the pool occupancy gauges —
// histograms, labeled families, attached page I/O) plus its generation, the
// raw material for the coordinator's /debug/cluster aggregation.
type metricsReplyPayload struct {
	Generation int          `json:"generation"`
	Metrics    obs.Snapshot `json:"metrics"`
}

// errorPayload is FrameError's body. Retryable tells the coordinator the
// failure is transient (retry the same shard after RetryAfterMS); otherwise
// the request is surfaced to the caller as a structured shard error.
type errorPayload struct {
	Code         string `json:"code"`
	Msg          string `json:"msg"`
	Retryable    bool   `json:"retryable,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}
