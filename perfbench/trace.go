package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the tracer was created; Parent is 0 for a root span.
type span struct {
	Run    string             `json:"run"`
	ID     uint64             `json:"id"`
	Parent uint64             `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// maxSpans bounds the spans kept in memory; later spans are counted but not
// stored, so a long traced run cannot exhaust memory.
const maxSpans = 400_000

// tracer keeps spans in memory until the run ends. A nil *tracer is tracing
// off: every method is then a no-op, so call sites need no branches.
type tracer struct {
	run  string
	t0   time.Time
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
	total int
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now()}
}

// id allocates a span id; call it before the span's children start.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span.
func (t *tracer) add(name string, id, parent uint64, start, end time.Time, attrs map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total++
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{
			Run: t.run, ID: id, Parent: parent, Name: name,
			Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Attrs: attrs,
		})
	}
	t.mu.Unlock()
}

// count is the number of spans recorded, stored or not.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// each calls fn on every stored span.
func (t *tracer) each(fn func(*span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		fn(&t.spans[i])
	}
}

// writeFile writes the stored spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
