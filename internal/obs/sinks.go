package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Ring is a bounded in-memory recorder: it keeps the most recent capacity
// events, overwriting the oldest. Once its buffer is warm it allocates
// nothing per event, so it can observe the engine's steady state without
// perturbing the zero-allocs contract (see TestSteadyStateZeroAllocsTraced).
type Ring struct {
	header Header
	buf    []Event
	next   int   // write cursor into buf
	total  int64 // events observed over the sink's lifetime
	ended  bool
}

// NewRing creates a ring recorder keeping the last capacity events.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		panic("obs: Ring capacity must be >= 1")
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Begin records the run header.
func (r *Ring) Begin(h Header) { r.header = h }

// Event stores the event, evicting the oldest once full.
func (r *Ring) Event(e Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
}

// End marks the stream complete.
func (r *Ring) End() { r.ended = true }

// Header returns the run header observed at Begin.
func (r *Ring) Header() Header { return r.header }

// Total returns the number of events observed over the sink's lifetime
// (which may exceed capacity).
func (r *Ring) Total() int64 { return r.total }

// Events returns the retained events, oldest first. The slice is a copy.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) == cap(r.buf) {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

// JSONL streams the trace as JSON lines: one Header line, then one Event
// per line, in emission order. Writes are buffered; End flushes. Because
// Sink methods cannot return errors (they sit on the engine's hot path),
// the first write error is latched and exposed via Err.
type JSONL struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONL creates a JSONL sink writing to w.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{bw: bw, enc: json.NewEncoder(bw)}
}

// Begin writes the header line, stamping the schema version.
func (j *JSONL) Begin(h Header) {
	h.Schema = Schema
	j.encode(&h)
}

// Event writes one event line.
func (j *JSONL) Event(e Event) { j.encode(&e) }

// End flushes the buffer.
func (j *JSONL) End() {
	if j.err == nil {
		j.err = j.bw.Flush()
	}
}

// Err returns the first error encountered while writing, if any. Check it
// after the run: a trace with a latched error is truncated.
func (j *JSONL) Err() error { return j.err }

func (j *JSONL) encode(v interface{}) {
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(v)
}

// Reader parses a JSONL trace produced by the JSONL sink, streaming events
// one at a time so multi-gigabyte traces never need to fit in memory. It
// reads line by line and reports the 1-based line number of any malformed
// or truncated line, so a corrupt trace names the exact point of damage
// instead of misparsing past it.
type Reader struct {
	sc     *bufio.Scanner
	line   int // lines consumed so far (header = line 1)
	header Header
}

// maxTraceLine bounds a single trace line (far above anything the JSONL
// sink emits; a longer line means the file is not a trace).
const maxTraceLine = 1 << 20

// NewReader reads and validates the header line of a trace. Every
// rejection names line 1. The header's device count must lie in
// [1, math.MaxInt32], because events name devices as int32.
func NewReader(r io.Reader) (*Reader, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxTraceLine)
	rd := &Reader{sc: sc}
	data, err := rd.scanLine()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("obs: trace header (line 1): empty trace")
		}
		return nil, fmt.Errorf("obs: trace header: %w", err)
	}
	var h Header
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("obs: trace header (line 1): %w", err)
	}
	if h.Schema != Schema {
		return nil, fmt.Errorf("obs: trace header (line 1): schema %q, this reader speaks %q", h.Schema, Schema)
	}
	if h.N < 1 || h.N > math.MaxInt32 {
		return nil, fmt.Errorf("obs: trace header (line 1): n = %d outside [1, %d]", h.N, math.MaxInt32)
	}
	rd.header = h
	return rd, nil
}

// scanLine returns the next raw line, or io.EOF at a clean end of input.
func (r *Reader) scanLine() ([]byte, error) {
	if !r.sc.Scan() {
		if err := r.sc.Err(); err != nil {
			return nil, fmt.Errorf("line %d: %w", r.line+1, err)
		}
		return nil, io.EOF
	}
	r.line++
	return r.sc.Bytes(), nil
}

// Header returns the trace's run header.
func (r *Reader) Header() Header { return r.header }

// Next returns the next event, or io.EOF after the last one. A malformed or
// truncated line (e.g. a write cut off mid-record) is an error naming the
// offending line number, never silently skipped.
func (r *Reader) Next() (Event, error) {
	data, err := r.scanLine()
	if err != nil {
		if err == io.EOF {
			return Event{}, io.EOF
		}
		return Event{}, fmt.Errorf("obs: trace: %w", err)
	}
	var e Event
	if err := json.Unmarshal(data, &e); err != nil {
		return Event{}, fmt.Errorf("obs: trace line %d: corrupt or truncated event: %w", r.line, err)
	}
	// A record with no event type is valid JSON but not an event — most
	// likely a header from a concatenated or interleaved trace (possibly a
	// different schema version). Reject it by line rather than folding a
	// zero event into downstream aggregation.
	if e.Type == TypeNone {
		return Event{}, fmt.Errorf("obs: trace line %d: corrupt or truncated event: record has no event type (interleaved trace or foreign schema?)", r.line)
	}
	return e, nil
}

// ReadAll drains the reader into a slice (tests and small traces).
func (r *Reader) ReadAll() ([]Event, error) {
	var out []Event
	for {
		e, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}
