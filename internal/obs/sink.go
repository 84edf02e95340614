package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// JSONL writes one JSON object per event to an io.Writer, buffered.
// Close flushes (and closes the underlying writer when it is an
// io.Closer the sink was told to own).
type JSONL struct {
	w     *bufio.Writer
	owned io.Closer
	buf   []byte
	n     int64
}

// NewJSONL creates a JSONL sink over w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriterSize(w, 64<<10)}
}

// NewJSONLFile creates a JSONL sink that closes c on Close.
func NewJSONLFile(c io.WriteCloser) *JSONL {
	s := NewJSONL(c)
	s.owned = c
	return s
}

// Write implements Sink.
func (s *JSONL) Write(e Event) {
	s.buf = e.AppendJSON(s.buf[:0])
	s.buf = append(s.buf, '\n')
	s.w.Write(s.buf)
	s.n++
}

// Count returns how many events were written.
func (s *JSONL) Count() int64 { return s.n }

// Close flushes the buffer and closes the owned writer, if any.
func (s *JSONL) Close() error {
	err := s.w.Flush()
	if s.owned != nil {
		if cerr := s.owned.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Ring keeps the last N events in memory — the sink tests assert
// against. A capacity of 0 panics (a ring that keeps nothing is a
// misconfiguration, not a request for silence).
type Ring struct {
	events []Event
	start  int
	total  int64
}

// NewRing creates a ring retaining up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("obs: ring capacity must be positive")
	}
	return &Ring{events: make([]Event, 0, capacity)}
}

// Write implements Sink. The ring retains events past the call, and
// the bus may recycle a pooled Fields map after fan-out, so the ring
// stores a copy of the map.
func (r *Ring) Write(e Event) {
	if len(e.Fields) > 0 {
		cp := make(F, len(e.Fields))
		for k, v := range e.Fields {
			cp[k] = v
		}
		e.Fields = cp
	}
	r.total++
	if len(r.events) < cap(r.events) {
		r.events = append(r.events, e)
		return
	}
	r.events[r.start] = e
	r.start = (r.start + 1) % len(r.events)
}

// Close implements Sink (no-op).
func (r *Ring) Close() error { return nil }

// Total returns how many events were written (including overwritten).
func (r *Ring) Total() int64 { return r.total }

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.start:]...)
	out = append(out, r.events[:r.start]...)
	return out
}

// OfType returns the retained events of type t, oldest first.
func (r *Ring) OfType(t Type) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

// Summary counts events per type; Close renders nothing — call String
// (or Counts) after the run for the report. It is the "summary
// printer" sink behind lunule-sim's -trace-summary flag.
type Summary struct {
	counts map[Type]int64
	total  int64
}

// NewSummary creates a summary sink.
func NewSummary() *Summary { return &Summary{counts: make(map[Type]int64)} }

// Write implements Sink.
func (s *Summary) Write(e Event) {
	s.counts[e.Type]++
	s.total++
}

// Close implements Sink (no-op).
func (s *Summary) Close() error { return nil }

// Total returns the number of events seen.
func (s *Summary) Total() int64 { return s.total }

// Counts returns a copy of the per-type counts.
func (s *Summary) Counts() map[Type]int64 {
	out := make(map[Type]int64, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// String renders the per-type counts, one "type count" line each, in
// the stable AllTypes order (types never seen are omitted).
func (s *Summary) String() string {
	var b strings.Builder
	for _, t := range AllTypes() {
		if n := s.counts[t]; n > 0 {
			fmt.Fprintf(&b, "%-21s %d\n", t, n)
		}
	}
	return b.String()
}
