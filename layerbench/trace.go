package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call into that layer. Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the span's duration minus the part of it its children cover,
	// filled in by selfTimes.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes run the same code with no span bookkeeping.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// begin starts a span under parent. On a nil tracer it only starts a clock.
func (t *tracer) begin(name string, parent int64) openSpan {
	o := openSpan{t: t, parent: parent, name: name, start: time.Now()}
	if t != nil {
		o.id = t.next.Add(1)
	}
	return o
}

// end closes the span and returns its duration.
func (o openSpan) end() time.Duration {
	now := time.Now()
	if o.t != nil {
		o.t.add(o.id, o.parent, o.name, o.start, now)
	}
	return now.Sub(o.start)
}

// record adds a span whose interval is already known and returns its ID.
func (t *tracer) record(name string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	id := t.next.Add(1)
	t.add(id, parent, name, start, end)
	return id
}

func (t *tracer) add(id, parent int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes sets each span's Self: its duration minus the union of its
// children's intervals clipped to it. Children may overlap (parallel jobs,
// concurrent requests), so the union is taken, not the sum.
func selfTimes(spans []span) {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, cur := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// spanTotals is the per-name roll-up written next to the spans.
type spanTotals struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// write computes self times and writes every span plus per-name totals to
// path as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	selfTimes(spans)
	sort.Slice(spans, func(a, b int) bool { return spans[a].ID < spans[b].ID })
	totals := map[string]*spanTotals{}
	for _, s := range spans {
		tt := totals[s.Name]
		if tt == nil {
			tt = &spanTotals{}
			totals[s.Name] = tt
		}
		tt.Count++
		tt.TotalMs += float64(s.End-s.Start) / 1e6
		tt.SelfMs += float64(s.Self) / 1e6
	}
	data, err := json.Marshal(struct {
		Totals map[string]*spanTotals `json:"totals"`
		Spans  []span                 `json:"spans"`
	}{totals, spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
