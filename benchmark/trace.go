package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer. Spans of one unit of
// work share a request id; parent is the id of the span that caused this one
// (0 for a root).
type span struct {
	id, parent, request int
	name                string
	start, end          time.Duration // since tracer.t0
}

// tracer keeps spans in memory and writes them once at the end. It always
// measures (the harness needs the durations either way) and records a span
// only while on, so the untraced run executes the same code path minus the
// append.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	on    bool
	spans []span
	next  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enable(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// begin opens a span and returns its id, or 0 while tracing is off.
func (t *tracer) begin(name string, parent, request int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	t.next++
	t.spans = append(t.spans, span{id: t.next, parent: parent, request: request, name: name, start: time.Since(t.t0)})
	return t.next
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now // ids are 1-based positions in spans
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent, request int, fn func()) time.Duration {
	id := t.begin(name, parent, request)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

// record adds a span measured elsewhere (inside a rank goroutine).
func (t *tracer) record(name string, parent int, start time.Time, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	t.next++
	s := start.Sub(t.t0)
	t.spans = append(t.spans, span{id: t.next, parent: parent, name: name, start: s, end: s + d})
}

// spanTotals is the per-name summary: self time is a span's duration minus
// the part of it covered by its child spans.
type spanTotals struct {
	name        string
	count       int
	total, self time.Duration
}

func (t *tracer) totals() []spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	byName := make(map[string]*spanTotals)
	for _, s := range t.spans {
		st := byName[s.name]
		if st == nil {
			st = &spanTotals{name: s.name}
			byName[s.name] = st
		}
		d := s.end - s.start
		st.count++
		st.total += d
		st.self += d - covered(children[s.id])
	}
	out := make([]spanTotals, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].total > out[j].total })
	return out
}

// covered is the length of the union of the spans' intervals: concurrent
// children (the two requests of a batch round) cover their overlap once.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total, until time.Duration
	for _, s := range spans {
		if s.end > until {
			total += s.end - max(s.start, until)
			until = s.end
		}
	}
	return total
}

func (t *tracer) printTotals(w io.Writer) {
	fmt.Fprintf(w, "%-40s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, st := range t.totals() {
		fmt.Fprintf(w, "%-40s %8d %12.3f %12.3f\n", st.name, st.count, ms(st.total), ms(st.self))
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Each request gets its own track.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.request,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]int{"id": s.id, "parent": s.parent, "request": s.request},
		}
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (nearest rank) of the samples; the zero
// value when there are none.
func quantile[T cmp.Ordered](samples []T, q float64) T {
	if len(samples) == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return s[min(int(q*float64(len(s))), len(s)-1)]
}

func median[T cmp.Ordered](samples []T) T { return quantile(samples, 0.5) }
