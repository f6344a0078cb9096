package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// ladder is the outside-in measurement of single layers: every rung times
// calls into one module's public functions on a bare instance (a
// transport server whose getter returns a buffer, a directory server
// behind a wire server, ...), with the payload sizes the workloads use.
// The same ladder runs in every traced run, whatever the workload, so
// that a layer's cost is a subtraction between two adjacent rungs of one
// run. Each timed call is also a span in the trace file, a child of its
// group's span.
type ladder struct {
	ctx    context.Context
	tr     *tracer
	op     int32
	dir    string // scratch files of every rung, removed when the ladder ends
	groups map[string]int32
	vals   map[string]float64
	err    error
}

// subdir makes a directory for one rung's files. They all go when the
// ladder ends, not before: on a file system mounted with discard, deleting
// a 64 MiB file stalls the next rung's writes for half a second.
func (l *ladder) subdir(name string) (string, error) {
	dir := filepath.Join(l.dir, name)
	return dir, os.Mkdir(dir, 0o755)
}

// group returns the span that parents one ladder's rungs, opening it on
// first use; finish closes them all.
func (l *ladder) group(name string) int32 {
	id, ok := l.groups[name]
	if !ok {
		id = l.tr.begin(0, l.op, name)
		l.groups[name] = id
	}
	return id
}

func (l *ladder) finish() {
	for _, id := range l.groups {
		l.tr.end(id)
	}
}

func (l *ladder) set(name string, v float64) { l.vals[name] = v }

func (l *ladder) fail(name string, err error) {
	if l.err == nil {
		l.err = fmt.Errorf("%s: %w", name, err)
	}
}

// once times one call of fn under a span of the group. After a failure
// every later rung is skipped.
func (l *ladder) once(group, name string, fn func() error) time.Duration {
	if l.err != nil {
		return 0
	}
	d, err := timed(l.tr, l.group(group), l.op, name, fn)
	if err != nil {
		l.fail(name, err)
	}
	return d
}

// each times n calls of fn one by one and returns the median.
func (l *ladder) each(group, name string, n int, fn func(i int) error) time.Duration {
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n && l.err == nil; i++ {
		ds = append(ds, l.once(group, name, func() error { return fn(i) }))
	}
	return median(ds)
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[(len(ds)-1)/2]
}

// batch times n back-to-back calls of fn as one span and returns the mean
// nanoseconds of a call: for calls too short to time one by one.
func (l *ladder) batch(group, name string, n int, fn func(i int)) float64 {
	if l.err != nil {
		return 0
	}
	id := l.tr.begin(l.group(group), l.op, name)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(start)
	l.tr.end(id)
	return float64(d) / float64(n)
}

// allocs runs fn and returns the heap bytes and objects the process
// allocated meanwhile. Other goroutines are idle while the ladder runs.
func allocs(fn func()) (bytes, objects float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc - a.TotalAlloc), float64(b.Mallocs - a.Mallocs)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runLadder runs every rung. The order is bottom-up within each plane.
func runLadder(ctx context.Context, e *env) *ladder {
	l := &ladder{ctx: ctx, tr: e.tr, op: e.tr.newOp(), groups: map[string]int32{}, vals: map[string]float64{}}
	defer l.finish()
	dir, err := os.MkdirTemp(e.outDir, "ladder-")
	if err != nil {
		l.fail("ladder", err)
		return l
	}
	l.dir = dir
	defer os.RemoveAll(dir)
	gen := newRNG(e.seed, "ladder")
	small := gen.f32Payload(kib)
	mid := gen.f32Payload(mib)
	bulk := gen.f32Payload(64 * mib)

	l.netemRungs(bulk)
	l.transportRungs(gen, bulk)
	l.bufferRungs(bulk)
	l.storeRungs(gen, small, mid, bulk)
	l.spillRungs(gen, bulk[:8*mib])
	l.wireRungs()
	l.directoryRungs(gen, small)
	l.smallRungs(bulk[:4*mib], mid)
	l.coreRungs(gen, small, mid, bulk)
	return l
}
