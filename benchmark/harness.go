package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hoplite"
)

// errCorrupt marks a delivered payload that differs from the generated
// one. It fails the operation and the whole run.
var errCorrupt = errors.New("payload mismatch")

// workload is one set of inputs the benchmark drives. Everything that is
// not named here runs at the defaults of hoplite.Options.
type workload struct {
	name, why string
	nodes     int
	clients   int   // closed-loop clients, each waiting for its own reply
	size      int64 // payload bytes of the workload's objects
	collSize  int64 // payload bytes of its collective rounds' objects
	payloads  int   // distinct generated payloads (at least the collective's participants)
	spill     bool  // give options a fresh directory for spill files
	setups    int   // set-ups per run; setup_s is their median
	warmup    int   // cycles per client every set-up runs before anything is measured
	// expected is a generous guess at one cycle's time; every operation
	// gets a deadline of 20 times it, at least 5 s.
	expected time.Duration
	// collShare is the share of the measured time spent on collective
	// rounds after the cycles, so that every workload reports broadcast,
	// reduce and allreduce at its own size class. Zero when the cycle
	// itself is a collective round.
	collShare float64
	// traceEvery: in a traced run one cycle in traceEvery, picked at random,
	// records spans. A fixed stride would alias with whatever the system
	// does every other cycle (a garbage collection, on bulk_loopback).
	traceEvery int
	options    func(spillDir string) hoplite.Options
	preload    func(ctx context.Context, e *env) error
	cycle      func(e *env, cl *client, tr *tracer) (time.Duration, error)
}

func (w *workload) deadline() time.Duration {
	if d := 20 * w.expected; d > 5*time.Second {
		return d
	}
	return 5 * time.Second
}

// participants is how many nodes take part in a collective round.
func (w *workload) participants() int {
	if w.nodes < 8 {
		return w.nodes
	}
	return 8
}

// env is one booted instance of a workload.
type env struct {
	w        *workload
	c        *hoplite.Cluster
	seed     int64
	outDir   string
	spillDir string
	payloads [][]byte // generated once per run, shared by every set-up
	collIn   [][]byte // the participants' collective inputs: prefixes of payloads
	sum      []byte   // expected reduce result over collIn
	tr       *tracer  // nil in an untraced run
	clients  []*client
	done     atomic.Int64 // cycles completed by all clients since setUp
	rounds   atomic.Int64 // collective rounds completed since setUp
	// bandwidth is the per-node rate the cluster was configured with: the
	// netem cap when emulated, the planner's prior otherwise. The ideal
	// time of a collective is size/bandwidth.
	bandwidth float64

	// collective_netem: the object node 8 fetches striped, re-staged on
	// nodes 0-3 before every round (see stageBig).
	big    []byte
	bigOID hoplite.ObjectID
	// outofcore_spill: the live working set, oldest first.
	live []liveObject
}

type liveObject struct {
	oid     hoplite.ObjectID
	payload int
}

// client is one closed-loop driver of cycles.
type client struct {
	id   int
	ids  *rng // ObjectIDs
	pick *rng // which cycles and rounds a traced run traces
	i    int  // cycles started
	octx opCtx
	rec  recorder
}

// recorder holds what one client measured.
type recorder struct {
	put, get samples
	// cycle is the time each cycle spent inside its public calls, kept
	// apart for untraced [0] and traced [1] cycles. ops_per_s comes from
	// its median: generating and checking payloads is the harness's own
	// work and is left out, and a burst of interference from outside the
	// process moves a median far less than a mean.
	cycle [2]samples
	coll  collRec
}

func (r *recorder) merge(o *recorder) {
	r.put = append(r.put, o.put...)
	r.get = append(r.get, o.get...)
	for t := range r.cycle {
		r.cycle[t] = append(r.cycle[t], o.cycle[t]...)
	}
	r.coll.put = append(r.coll.put, o.coll.put...)
	r.coll.get = append(r.coll.get, o.coll.get...)
	r.coll.bcast = append(r.coll.bcast, o.coll.bcast...)
	r.coll.reduce = append(r.coll.reduce, o.coll.reduce...)
	r.coll.allreduce = append(r.coll.allreduce, o.coll.allreduce...)
	r.coll.striped = append(r.coll.striped, o.coll.striped...)
}

// collRec holds the collective rounds one client drove.
type collRec struct {
	put, get, bcast, reduce, allreduce samples // get: each broadcast receiver's own Get
	striped                            samples // collective_netem's 32 MiB Gets by node 8
}

// opCtx hands out contexts with a deadline of at least d and at most 2d,
// renewing the underlying context only once per d, so that the deadline
// costs no allocation per operation.
type opCtx struct {
	parent context.Context
	d      time.Duration
	ctx    context.Context
	cancel context.CancelFunc
	renew  time.Time
}

func (o *opCtx) get() context.Context {
	if now := time.Now(); o.ctx == nil || now.After(o.renew) {
		o.close()
		o.ctx, o.cancel = context.WithTimeout(o.parent, 2*o.d)
		o.renew = now.Add(o.d)
	}
	return o.ctx
}

func (o *opCtx) close() {
	if o.cancel != nil {
		o.cancel()
	}
}

// timed runs one public call of a cycle, under a span when tr is not nil.
func timed(tr *tracer, parent, op int32, name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	id := tr.begin(parent, op, name)
	err := fn()
	tr.end(id)
	return time.Since(start), err
}

// setUp boots the cluster, preloads it and warms it up with the workload's
// own cycles, which nobody measures: connections get dialled, pools fill.
// setup_s is the time of all three.
func (e *env) setUp(ctx context.Context) error {
	e.spillDir = ""
	if e.w.spill {
		dir, err := os.MkdirTemp(e.outDir, "spill-")
		if err != nil {
			return err
		}
		e.spillDir = dir
	}
	opts := e.w.options(e.spillDir)
	c, err := hoplite.StartLocalCluster(e.w.nodes, opts)
	if err != nil {
		return err
	}
	e.c = c
	e.bandwidth = 1.25e9 // core's default prior
	if opts.Emulate != nil {
		e.bandwidth = opts.Emulate.BytesPerSec
	}
	if e.w.preload != nil {
		pctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		err = e.w.preload(pctx, e)
		cancel()
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	e.clients = make([]*client, e.w.clients)
	for i := range e.clients {
		e.clients[i] = &client{
			id:   i,
			ids:  newRNG(e.seed, fmt.Sprintf("%s/client-%d", e.w.name, i)),
			pick: newRNG(e.seed, fmt.Sprintf("%s/traced-%d", e.w.name, i)),
			octx: opCtx{parent: ctx, d: e.w.deadline()},
		}
	}
	if err := e.runCycles(func(cl *client) bool { return cl.i >= e.w.warmup }); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if e.w.collShare > 0 {
		if err := e.runCollective(time.Now()); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	for _, cl := range e.clients {
		cl.rec = recorder{}
	}
	e.done.Store(0)
	e.rounds.Store(0)
	return nil
}

// close tears the instance down; a later setUp starts a fresh one.
func (e *env) close() {
	for _, cl := range e.clients {
		cl.octx.close()
	}
	e.clients = nil
	if e.c != nil {
		e.c.Close()
		e.c = nil
	}
	if e.spillDir != "" {
		os.RemoveAll(e.spillDir)
	}
}

// drive runs step in every client's closed loop, at least once each, until
// done says so or a step fails. It returns the first failure.
func (e *env) drive(step func(cl *client) error, done func(cl *client) bool) error {
	var (
		wg    sync.WaitGroup
		stop  atomic.Bool
		once  sync.Once
		first error
	)
	for _, cl := range e.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for {
				if err := step(cl); err != nil {
					once.Do(func() { first = fmt.Errorf("client %d: %w", cl.id, err) })
					stop.Store(true)
					return
				}
				if stop.Load() || done(cl) {
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	return first
}

// runCycles drives the workload's cycles until done says so.
func (e *env) runCycles(done func(cl *client) bool) error {
	return e.drive(func(cl *client) error {
		var tr *tracer
		traced := 0
		if e.tr != nil && cl.pick.next()%uint64(e.w.traceEvery) == 0 {
			tr, traced = e.tr, 1
		}
		cl.i++
		busy, err := e.w.cycle(e, cl, tr)
		if err != nil {
			return fmt.Errorf("cycle %d: %w", cl.i-1, err)
		}
		cl.rec.cycle[traced].add(busy)
		e.done.Add(1)
		return nil
	}, done)
}

// runCollective has every client drive collective rounds until the
// deadline: the same closed loops as the cycles, so that the machine is
// as busy during the rounds as during the cycles.
func (e *env) runCollective(until time.Time) error {
	return e.drive(func(cl *client) error {
		var tr *tracer
		if e.tr != nil && cl.pick.next()%2 == 0 {
			tr = e.tr
		}
		op := tr.newOp()
		root := tr.begin(0, op, "op")
		_, err := e.collectiveRound(cl, tr, root, op)
		tr.end(root)
		if err != nil {
			return fmt.Errorf("collective round: %w", err)
		}
		e.rounds.Add(1)
		return nil
	}, func(*client) bool { return !time.Now().Before(until) })
}

// collectiveRound is one broadcast, one reduce and one allreduce of
// collSize-byte objects over the first participants() nodes. Sources are
// put fresh every round, so every transfer is cold. It returns the time spent
// inside public calls.
func (e *env) collectiveRound(cl *client, tr *tracer, root, op int32) (time.Duration, error) {
	parts := e.c.Nodes()[:e.w.participants()]
	n0 := parts[0]
	var busy time.Duration
	put := func(i int, oid hoplite.ObjectID) error {
		d, err := timed(tr, root, op, "core.put", func() error { return parts[i].Put(cl.octx.get(), oid, e.collIn[i]) })
		busy += d
		cl.rec.coll.put.add(d)
		return err
	}
	del := func(oid hoplite.ObjectID) error {
		d, err := timed(tr, root, op, "core.delete", func() error { return n0.Delete(cl.octx.get(), oid) })
		busy += d
		return err
	}
	delAll := func(oids ...hoplite.ObjectID) error {
		for _, oid := range oids {
			if err := del(oid); err != nil {
				return fmt.Errorf("delete: %w", err)
			}
		}
		return nil
	}

	// Broadcast: node 0 puts, every other participant gets at once.
	src := cl.ids.oid()
	if err := put(0, src); err != nil {
		return busy, fmt.Errorf("put broadcast source: %w", err)
	}
	// Each receiver times its own Get; the broadcast is the time until the
	// last of them has the object.
	type received struct {
		ref *hoplite.ObjectRef
		d   time.Duration
		err error
	}
	recv := make([]received, len(parts)-1)
	start := time.Now()
	bcast := tr.begin(root, op, "core.bcast")
	octx := cl.octx.get()
	var wg sync.WaitGroup
	for i, n := range parts[1:] {
		wg.Add(1)
		go func(r *received, n *hoplite.Node) {
			defer wg.Done()
			start := time.Now()
			id := tr.begin(bcast, op, "core.getref")
			r.ref, r.err = n.GetRef(octx, src)
			tr.end(id)
			r.d = time.Since(start)
		}(&recv[i], n)
	}
	wg.Wait()
	tr.end(bcast)
	d := time.Since(start)
	busy += d
	var err error
	for _, r := range recv {
		if r.err != nil {
			err = r.err
			continue
		}
		if !bytes.Equal(r.ref.Bytes(), e.collIn[0]) {
			err = errCorrupt
		}
		r.ref.Release()
		cl.rec.coll.get.add(r.d)
	}
	if err != nil {
		return busy, fmt.Errorf("broadcast: %w", err)
	}
	cl.rec.coll.bcast.add(d)
	if err := delAll(src); err != nil {
		return busy, err
	}

	// Reduce: one source per participant, the sum lands on node 0.
	srcs := make([]hoplite.ObjectID, len(parts))
	for i := range parts {
		srcs[i] = cl.ids.oid()
		if err := put(i, srcs[i]); err != nil {
			return busy, fmt.Errorf("put source %d: %w", i, err)
		}
	}
	target := cl.ids.oid()
	d, err = timed(tr, root, op, "core.reduce", func() error {
		octx := cl.octx.get()
		if _, err := n0.Reduce(octx, target, srcs, len(srcs), hoplite.SumF32); err != nil {
			return err
		}
		return n0.WaitLocal(octx, target)
	})
	busy += d
	if err != nil {
		return busy, fmt.Errorf("reduce: %w", err)
	}
	cl.rec.coll.reduce.add(d)
	if _, err := getRefChecked(cl, nil, 0, 0, n0, target, e.sum); err != nil {
		return busy, fmt.Errorf("reduce result: %w", err)
	}
	if err := delAll(target); err != nil {
		return busy, err
	}

	// Allreduce over the same sources: every node of the cluster ends up
	// with the sum.
	target = cl.ids.oid()
	d, err = timed(tr, root, op, "hoplite.allreduce", func() error {
		_, err := e.c.AllReduce(cl.octx.get(), 0, target, srcs, len(srcs), hoplite.SumF32)
		return err
	})
	busy += d
	if err != nil {
		return busy, fmt.Errorf("allreduce: %w", err)
	}
	cl.rec.coll.allreduce.add(d)
	for i, n := range e.c.Nodes() {
		if _, err := getRefChecked(cl, nil, 0, 0, n, target, e.sum); err != nil {
			return busy, fmt.Errorf("allreduce result on node %d: %w", i, err)
		}
	}
	if err := delAll(append(srcs, target)...); err != nil {
		return busy, err
	}
	return busy, nil
}

// usage is what the process consumed between two meter readings.
type usage struct {
	cpu     time.Duration
	bytes   uint64
	mallocs uint64
}

// meter reads the process CPU time and the allocator's running totals.
// ReadMemStats stops the world, so it is read only at phase boundaries.
type meter struct {
	cpu time.Duration
	ms  runtime.MemStats
}

func readMeter() meter {
	m := meter{cpu: processCPU()}
	runtime.ReadMemStats(&m.ms)
	return m
}

// processCPU is the user and system CPU time of the whole process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSlices cuts a stretch of cycles into slices and keeps the CPU time per
// cycle of each, so that cpu_ms_per_op can be a quantile over the slices:
// one garbage collection of a gigabyte heap landing inside the run moves a
// mean over the run by a tenth.
type cpuSlices struct {
	every  time.Duration
	at     time.Time
	cpu    time.Duration
	cycles int64
	perOp  samples // CPU milliseconds per cycle, one value per slice
}

func newCPUSlices(every time.Duration, cycles int64) *cpuSlices {
	return &cpuSlices{every: every, at: time.Now(), cpu: processCPU(), cycles: cycles}
}

// sample closes the current slice if it is long enough and saw a cycle.
func (c *cpuSlices) sample(cycles int64) {
	now := time.Now()
	if now.Sub(c.at) < c.every || cycles == c.cycles {
		return
	}
	cpu := processCPU()
	c.perOp = append(c.perOp, float64(cpu-c.cpu)/float64(time.Millisecond)/float64(cycles-c.cycles))
	c.at, c.cpu, c.cycles = now, cpu, cycles
}

func (u *usage) add(o usage) {
	u.cpu += o.cpu
	u.bytes += o.bytes
	u.mallocs += o.mallocs
}

func (m meter) since(start meter) usage {
	return usage{
		cpu:     m.cpu - start.cpu,
		bytes:   m.ms.TotalAlloc - start.ms.TotalAlloc,
		mallocs: m.ms.Mallocs - start.ms.Mallocs,
	}
}

// peakRSSMB reads the process's high-water resident set from procfs.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}
