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

// span is one timed call into a layer, recorded by the benchmark around
// the call. Parent is the id of the span that caused it (0 for a root);
// Unit is the request or work-unit id the call served (-1 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Unit   int    `json:"unit"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, unit int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Unit: unit, Start: now})
	return len(t.spans)
}

// add records a finished span from explicit times (for intervals
// observed after the fact, like a request's wait for a connection).
func (t *tracer) add(name string, parent, unit int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Unit: unit,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes the span with the given id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (two
// workers under one grid span) count once, and a child reaching past
// its parent is clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(lo, hi int64, spans []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	name        string
	count       int
	total, self int64
}

// layerTable aggregates spans by name. Root spans' self time is the
// unattributed residue: time inside the measured work that no layer
// span covers.
func layerTable(spans []span) (rows []layerRow, residue, rootTotal int64) {
	self := selfTimes(spans)
	by := make(map[string]*layerRow)
	for _, s := range spans {
		r := by[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			by[s.Name] = r
		}
		r.count++
		r.total += s.End - s.Start
		r.self += self[s.ID]
		if s.Parent == 0 {
			residue += self[s.ID]
			rootTotal += s.End - s.Start
		}
	}
	for _, r := range by {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	return rows, residue, rootTotal
}

// printLayerTable writes the self-time table, the residue and the
// tracing overhead.
func printLayerTable(w io.Writer, workload string, spans []span, overhead string) {
	rows, residue, rootTotal := layerTable(spans)
	fmt.Fprintf(w, "per-layer self time, %s (%d spans)\n", workload, len(spans))
	fmt.Fprintf(w, "%-34s %8s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		share := 0.0
		if rootTotal > 0 {
			share = 100 * float64(r.self) / float64(rootTotal)
		}
		fmt.Fprintf(w, "%-34s %8d %12.3f %12.3f %6.1f%%\n", r.name, r.count,
			float64(r.total)/1e6, float64(r.self)/1e6, share)
	}
	fmt.Fprintf(w, "unattributed residue (root self time): %.3f ms of %.3f ms\n",
		float64(residue)/1e6, float64(rootTotal)/1e6)
	fmt.Fprintf(w, "tracing overhead: %s\n", overhead)
}
