package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	quick   bool // one boot, for smoke use
	outDir  string
}

// result is what a run reports: the last line of its output, as JSON.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	notes map[string]string // per metric, for the printed table only
	err   error             // the first failed operation
}

func (r *result) set(defs []metricDef, name string, v float64, note string) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			if note != "" {
				r.notes[name] = note
			}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the table")
}

// traceLoopShare is the part of a traced run's seconds spent driving the
// workload; the ladder takes as long as its fixed iteration counts need.
const traceLoopShare = 0.4

// runWorkload boots the workload, drives it for cfg.seconds and reports
// the end-to-end metrics, or with cfg.trace the per-layer ones.
func runWorkload(ctx context.Context, cfg runConfig) *result {
	w := cfg.w
	res := &result{Correct: true, Metrics: map[string]metricValue{}, notes: map[string]string{}}
	e := &env{w: w, seed: cfg.seed, outDir: cfg.outDir}
	fail := func(err error) *result {
		res.err = err
		res.Failed++
		res.Attempted = int(e.done.Load()+e.rounds.Load()) + 1 // what completed, and the one that failed
		if errors.Is(err, errCorrupt) {
			res.Correct = false
		}
		return res
	}

	gen := newRNG(cfg.seed, w.name+"/payloads")
	for i := 0; i < w.payloads; i++ {
		e.payloads = append(e.payloads, gen.f32Payload(w.size))
	}
	for _, p := range e.payloads[:w.participants()] {
		e.collIn = append(e.collIn, p[:w.collSize])
	}
	e.sum = sumF32(e.collIn)

	sets := w.setups
	if cfg.trace || cfg.quick {
		sets = 1
	}
	var setup samples
	defer e.close()
	for i := 0; i < sets; i++ {
		e.close()
		start := time.Now()
		if err := e.setUp(ctx); err != nil {
			return fail(fmt.Errorf("set-up %d: %w", i, err))
		}
		setup.add(time.Since(start))
	}
	seconds := cfg.seconds
	if cfg.trace {
		seconds *= traceLoopShare
		e.tr = newTracer(1 << 18)
	}

	// The measured phase alternates cycles with collective rounds in a few
	// segments on a schedule fixed at the start, rather than all cycles
	// and then all rounds: whatever drifts on the host over seconds (a
	// journal commit, a neighbour's burst) then lands on both kinds alike.
	segments := 4
	if w.collShare == 0 {
		segments = 1
	}
	segment := time.Duration(seconds / float64(segments) * float64(time.Second))
	t0 := time.Now()
	var (
		used     usage
		cpuPerOp samples
		counted  counters
	)
	for i := 0; i < segments; i++ {
		cyclesEnd := t0.Add(time.Duration(i)*segment + time.Duration((1-w.collShare)*float64(segment)))
		before, start := e.counters(), readMeter()
		slices := newCPUSlices(time.Until(cyclesEnd)/3, e.done.Load())
		err := e.runCycles(func(cl *client) bool {
			if cl.id == 0 {
				slices.sample(e.done.Load())
			}
			return !time.Now().Before(cyclesEnd)
		})
		used.add(readMeter().since(start))
		counted = counted.add(e.counters().sub(before))
		cpuPerOp = append(cpuPerOp, slices.perOp...)
		if err != nil {
			return fail(err)
		}
		if w.collShare > 0 {
			if err := e.runCollective(t0.Add(time.Duration(i+1) * segment)); err != nil {
				return fail(err)
			}
		}
	}
	res.Attempted = int(e.done.Load() + e.rounds.Load())
	var rec recorder
	for _, cl := range e.clients {
		rec.merge(&cl.rec)
	}
	cycles := int(e.done.Load())

	if cfg.trace {
		lad := runLadder(ctx, e)
		if lad.err != nil {
			return fail(fmt.Errorf("ladder: %w", lad.err))
		}
		e.reportLayers(res, lad, rec, cycles, counted)
		path := filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl")
		if err := e.tr.writeJSONL(path); err != nil {
			return fail(fmt.Errorf("write trace: %w", err))
		}
	} else {
		e.reportEndToEnd(res, setup, rec, cycles, used, cpuPerOp)
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			delete(res.Metrics, name)
			return fail(fmt.Errorf("metric %s was never measured", name))
		}
	}
	return res
}

// reportEndToEnd fills in every end-to-end metric.
func (e *env) reportEndToEnd(res *result, setup samples, rec recorder, cycles int, used usage, cpuPerOp samples) {
	w := e.w
	set := func(name string, v float64, note string) { res.set(endToEnd, name, v, note) }
	puts, gets := e.putsAndGets(rec)
	cycle := append(rec.cycle[0], rec.cycle[1]...)
	set("setup_s", setup.median()/1000, fmt.Sprintf("median of %d set-ups", len(setup)))
	set("ops_per_s", opsPerSec(w.clients, duration(cycle.median())), fmt.Sprintf("%d clients over the median cycle time, n=%d", w.clients, cycles))
	set("get_MBps", mbPerSec(getSize(w), duration(gets.median())), "payload bytes of one Get over the median Get time")
	set("get_p50_ms", gets.median(), fmt.Sprintf("n=%d", len(gets)))
	set("put_p50_ms", puts.median(), fmt.Sprintf("n=%d", len(puts)))
	collNote := fmt.Sprintf("n=%d, %d nodes, %d B", len(rec.coll.bcast), w.participants(), w.collSize)
	set("bcast_ms", rec.coll.bcast.median(), collNote)
	set("reduce_ms", rec.coll.reduce.median(), collNote)
	set("allreduce_ms", rec.coll.allreduce.median(), collNote)
	// The first quartile of the slices, not the mean over the run: garbage
	// collections and page-fault bursts land in some slices and make the
	// mean swing by a fifth from run to run on the large-object workloads.
	cpu := math.NaN()
	if len(cpuPerOp) > 0 {
		cpu = percentile(cpuPerOp.sorted(), 25)
	}
	set("cpu_ms_per_op", cpu, fmt.Sprintf("user+sys of the whole process, first quartile of %d slices; mean over the run %.6g", len(cpuPerOp), perOp(float64(used.cpu)/float64(time.Millisecond), cycles)))
	set("alloc_KB_per_op", perOp(float64(used.bytes)/1024, cycles), "")
	set("allocs_per_op", perOp(float64(used.mallocs), cycles), "")
	rss, err := peakRSSMB()
	if err != nil {
		rss = math.NaN()
	}
	set("peak_rss_MB", rss, "VmHWM")
}

// putsAndGets returns the Puts and Gets the put_* and get_* metrics are
// about. Where the cycle is a collective round they are the round's puts
// and its broadcast receivers' own gets.
func (e *env) putsAndGets(rec recorder) (puts, gets samples) {
	if e.w.collShare == 0 {
		return rec.coll.put, rec.coll.get
	}
	return rec.put, rec.get
}

// getSize is the payload size of the Gets the get_* metrics are about.
func getSize(w *workload) int64 {
	if w.collShare == 0 {
		return w.collSize
	}
	return w.size
}

// printTable writes every reported metric by name with its unit.
func (r *result) printTable(out func(format string, args ...any)) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		out("  %-34s %14.6g %-6s %s\n", name, v.Value, v.Unit, r.notes[name])
	}
}
