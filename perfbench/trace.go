package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the benchmark's own trace: a call into a
// public API of the program, or a grouping around such calls.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Run    string  `json:"run"` // run id, or request id for serve requests
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Attr   string  `json:"attr,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced state: begin returns a zero handle and end does nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
	// cost is the time spent inside begin/end, the tracer's own share of
	// the run.
	cost time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanHandle is an open span.
type spanHandle struct {
	t     *tracer
	id    int64
	start time.Time
	s     span
}

// begin opens a span under parent (0 for a root). On a nil tracer the
// handle still times the call.
func (t *tracer) begin(name, run string, parent int64) spanHandle {
	if t == nil {
		return spanHandle{start: time.Now()}
	}
	now := time.Now()
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	h := spanHandle{t: t, id: id, start: now, s: span{ID: id, Parent: parent, Name: name, Run: run}}
	t.addCost(time.Since(now))
	return h
}

// end closes the span and returns its duration.
func (h spanHandle) end(attr string) time.Duration {
	now := time.Now()
	d := now.Sub(h.start)
	if h.t == nil {
		return d
	}
	t := h.t
	h.s.Start = ms(h.start.Sub(t.t0))
	h.s.End = ms(now.Sub(t.t0))
	h.s.Attr = attr
	t.mu.Lock()
	t.spans = append(t.spans, h.s)
	t.mu.Unlock()
	t.addCost(time.Since(now))
	return d
}

func (t *tracer) addCost(d time.Duration) {
	t.mu.Lock()
	t.cost += d
	t.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfTime is the per-name aggregate of a trace.
type selfTime struct {
	Name    string
	Count   int
	TotalMS float64
	SelfMS  float64
}

// selfTimes reports, per span name, the summed duration and the summed
// self time: a span's duration minus the part of it its children cover.
func selfTimes(spans []span) []selfTime {
	children := map[int64][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	agg := map[string]*selfTime{}
	var names []string
	for _, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
			names = append(names, s.Name)
		}
		d := s.End - s.Start
		a.Count++
		a.TotalMS += d
		a.SelfMS += d - covered(children[s.ID], s.Start, s.End)
	}
	out := make([]selfTime, 0, len(names))
	for _, n := range names {
		out = append(out, *agg[n])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]float64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	total, curLo, curHi := 0.0, s[0][0], s[0][1]
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			total += b - a
		}
	}
	for _, x := range s[1:] {
		if x[0] > curHi {
			flush()
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	flush()
	return total
}

// write saves the spans as JSON under dir and prints the self-time table.
func (t *tracer) write(dir, file string, out io.Writer) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	fmt.Fprintf(out, "self time by span (%d spans, tracer cost %.3g ms)\n", len(spans), ms(t.cost))
	for _, st := range selfTimes(spans) {
		fmt.Fprintf(out, "  %-34s n=%-7d total %12.3f ms  self %12.3f ms\n", st.Name, st.Count, st.TotalMS, st.SelfMS)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"spans": spans}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	return nil
}
