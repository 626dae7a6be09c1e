package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span that caused this one, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A recorder that is
// off does nothing, which is how the replay measures what recording
// itself costs.
type recorder struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// start opens a span and returns its ID, 0 when recording is off.
func (rec *recorder) start(name string, req, parent int) int {
	if !rec.on {
		return 0
	}
	now := int64(time.Since(rec.t0))
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.spans = append(rec.spans, span{ID: len(rec.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(rec.spans)
}

func (rec *recorder) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(rec.t0))
	rec.mu.Lock()
	rec.spans[id-1].End = now
	rec.mu.Unlock()
}

// all returns the spans recorded so far.
func (rec *recorder) all() []span {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.spans
}

// writeSpans stores spans as one JSON document per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTimes gives every span its duration minus the part of that
// interval its child spans cover. Children that overlap each other (a
// durable accept beside a classification) cover their union once, and a
// child is counted only where it lies inside its parent.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][][2]int64{}
	byID := map[int]*span{}
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			children[p.ID] = append(children[p.ID], [2]int64{lo, hi})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64
		reach = s.Start
		for _, c := range iv {
			if c[1] <= reach {
				continue
			}
			covered += c[1] - max(c[0], reach)
			reach = c[1]
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layerTotals sums, per span name, the spans' durations and self times.
type layerTotal struct {
	count int
	total time.Duration
	self  time.Duration
}

func layerTotals(spans []span) map[string]*layerTotal {
	self := selfTimes(spans)
	out := map[string]*layerTotal{}
	for i := range spans {
		s := &spans[i]
		t := out[s.Name]
		if t == nil {
			t = &layerTotal{}
			out[s.Name] = t
		}
		t.count++
		t.total += s.dur()
		t.self += self[s.ID]
	}
	return out
}
