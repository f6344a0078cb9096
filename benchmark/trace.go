package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one traced interval. Spans of one workload cycle (or one ladder
// replay) share Op; Parent is the span that caused this one, 0 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans into a slice allocated up front, so that recording
// costs two clock reads and one slot write and never grows the heap inside
// a timed region. Slots are claimed with an atomic counter: concurrent
// clients never share one. Spans beyond the capacity are dropped and
// counted.
type tracer struct {
	t0      time.Time
	spans   []span
	next    atomic.Int32
	ops     atomic.Int32
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, capacity)}
}

// newOp returns a fresh identifier shared by the spans of one cycle. A nil
// tracer records nothing: an untraced cycle runs the same code with one.
func (t *tracer) newOp() int32 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

// begin opens a span and returns its id, 0 when nothing was recorded.
func (t *tracer) begin(parent, op int32, name string) int32 {
	if t == nil {
		return 0
	}
	i := t.next.Add(1)
	if int(i) > len(t.spans) {
		t.dropped.Add(1)
		return 0
	}
	t.spans[i-1] = span{ID: i, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))}
	return i
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if id > 0 {
		t.spans[id-1].End = int64(time.Since(t.t0))
	}
}

// recorded returns the spans written so far.
func (t *tracer) recorded() []span {
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// writeJSONL writes one span per line to path, creating its directory.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.recorded() {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the total self time: each span's
// duration minus the part of it covered by the union of its children, so
// overlapping children (seven concurrent receivers under one broadcast)
// are not subtracted twice.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to parent.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, reach int64 // reach: how far the intervals seen so far extend
	reach = parent.Start
	for _, k := range kids {
		start, end := k.Start, k.End
		if start < reach {
			start = reach
		}
		if end > parent.End {
			end = parent.End
		}
		if end > start {
			total += end - start
			reach = end
		}
	}
	return time.Duration(total)
}
