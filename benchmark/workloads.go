package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"hoplite"
	"hoplite/internal/netem"
)

const (
	kib = 1 << 10
	mib = 1 << 20

	// collective_netem's links and the object node 8 fetches striped.
	netemRate     = 64 * mib  // bytes/s per node, each direction
	netemFastRate = 512 * mib // node 8, which only reads
	netemLatency  = 200 * time.Microsecond
	bigSize       = 32 * mib
	bigCopies     = 4

	// outofcore_spill's shape: the working set is 12 times the memory.
	spillMemory  = 32 * mib
	spillObjects = 48
	spillChurn   = 8
)

func defaultOptions(string) hoplite.Options { return hoplite.Options{} }

// workloads lists the benchmark's workloads in the order of BENCHMARK.json.
var workloads = []*workload{
	{
		name:  "small_loopback",
		why:   "1 KiB objects ride inline in directory replies: wire, directory and core do all the work, transport and buffer none",
		nodes: 3, clients: 2, size: kib, collSize: kib, payloads: 64, setups: 5, warmup: 300,
		expected: time.Millisecond, collShare: 0.2, traceEvery: 5,
		options: defaultOptions,
		cycle:   smallCycle,
	},
	{
		name:  "mid_loopback",
		why:   "1 MiB is the crossover size: fixed per-pull costs (lease RPCs, a fresh dial, four chunk frames) are a third of a Get",
		nodes: 2, clients: 1, size: mib, collSize: mib, payloads: 8, setups: 5, warmup: 100,
		expected: 5 * time.Millisecond, collShare: 0.2, traceEvery: 5,
		options: defaultOptions,
		cycle:   putGetCycle,
	},
	{
		name:  "bulk_loopback",
		why:   "64 MiB pulls are 256 chunk frames against 3 RPCs: transport, buffer and store copies and allocations set the time",
		nodes: 2, clients: 1, size: 64 * mib, collSize: 16 * mib, payloads: 2, setups: 3, warmup: 1,
		expected: 250 * time.Millisecond, collShare: 0.35, traceEvery: 2,
		options: defaultOptions,
		cycle:   putGetCycle,
	},
	{
		name:  "collective_netem",
		why:   "under 64 MiB/s netem caps the transfer schedule (relay tree, pipelining, reduce degree, striping) sets the time, not the CPU",
		nodes: 9, clients: 1, size: 4 * mib, collSize: 4 * mib, payloads: 8, setups: 3, warmup: 1,
		expected: 2 * time.Second, traceEvery: 2,
		options: func(string) hoplite.Options {
			return hoplite.Options{Emulate: &netem.LinkConfig{Latency: netemLatency, BytesPerSec: netemRate}}
		},
		preload: collectivePreload,
		cycle:   collectiveCycle,
	},
	{
		name:  "outofcore_spill",
		why:   "a working set 12 times the memory limit: Gets are served off spill files and every restore forces a demotion",
		nodes: 2, clients: 1, spill: true, size: 8 * mib, collSize: mib, payloads: 4, setups: 3, warmup: 1,
		expected: 2 * time.Second, collShare: 0.3, traceEvery: 2,
		options: func(dir string) hoplite.Options {
			return hoplite.Options{MemoryLimit: spillMemory, SpillDir: dir}
		},
		preload: spillPreload,
		cycle:   spillCycle,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// getFunc is one timed remote Get of oid by n, under a span when tr is not
// nil, with the payload compared with want after the clock stopped.
type getFunc func(cl *client, tr *tracer, root, op int32, n *hoplite.Node, oid hoplite.ObjectID, want []byte) (time.Duration, error)

// getChecked is a Get, which copies the payload out.
func getChecked(cl *client, tr *tracer, root, op int32, n *hoplite.Node, oid hoplite.ObjectID, want []byte) (time.Duration, error) {
	var got []byte
	d, err := timed(tr, root, op, "core.get", func() (err error) {
		got, err = n.Get(cl.octx.get(), oid)
		return err
	})
	if err == nil && !bytes.Equal(got, want) {
		err = errCorrupt
	}
	return d, err
}

// getRefChecked is a GetRef, released once compared. With a nil tracer it
// also serves to check an object the node already holds.
func getRefChecked(cl *client, tr *tracer, root, op int32, n *hoplite.Node, oid hoplite.ObjectID, want []byte) (time.Duration, error) {
	start := time.Now()
	id := tr.begin(root, op, "core.getref")
	ref, err := n.GetRef(cl.octx.get(), oid)
	tr.end(id)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	ok := bytes.Equal(ref.Bytes(), want)
	ref.Release()
	if !ok {
		return d, errCorrupt
	}
	return d, nil
}

// smallCycle: Put 1 KiB on node 0, cold Get on node 1, Delete. The Delete
// keeps the directory's state flat over the run.
func smallCycle(e *env, cl *client, tr *tracer) (time.Duration, error) {
	return putGetDelete(e, cl, tr, getChecked)
}

// putGetCycle: Put on node 0, remote GetRef on node 1, Delete.
func putGetCycle(e *env, cl *client, tr *tracer) (time.Duration, error) {
	return putGetDelete(e, cl, tr, getRefChecked)
}

func putGetDelete(e *env, cl *client, tr *tracer, get getFunc) (time.Duration, error) {
	oid := cl.ids.oid()
	want := e.payloads[cl.i%len(e.payloads)]
	n0, n1 := e.c.Node(0), e.c.Node(1)
	op := tr.newOp()
	root := tr.begin(0, op, "op")
	defer tr.end(root)

	dPut, err := timed(tr, root, op, "core.put", func() error { return n0.Put(cl.octx.get(), oid, want) })
	if err != nil {
		return 0, fmt.Errorf("put: %w", err)
	}
	dGet, err := get(cl, tr, root, op, n1, oid, want)
	if err != nil {
		return 0, fmt.Errorf("get: %w", err)
	}
	dDel, err := timed(tr, root, op, "core.delete", func() error { return n0.Delete(cl.octx.get(), oid) })
	if err != nil {
		return 0, fmt.Errorf("delete: %w", err)
	}
	cl.rec.put.add(dPut)
	cl.rec.get.add(dGet)
	return dPut + dGet + dDel, nil
}

// dropCopy makes n forget its fetched copy of oid, so that its next Get
// crosses the network again. The object's other copies are untouched.
func dropCopy(ctx context.Context, n *hoplite.Node, oid hoplite.ObjectID) error {
	n.Store().Delete(oid)
	return n.Directory().RemoveLocation(ctx, oid)
}

// collectivePreload gives node 8 its fat link and stages the first big
// object.
func collectivePreload(ctx context.Context, e *env) error {
	if err := e.c.SetNodeLink(8, netem.LinkConfig{BytesPerSec: netemFastRate}); err != nil {
		return err
	}
	if e.big == nil {
		e.big = newRNG(e.seed, "big").f32Payload(bigSize)
	}
	return e.stageBig(ctx, newRNG(e.seed, "big-oid-0").oid())
}

// stageBig puts a complete copy of the big object on nodes 0-3 under a
// fresh ObjectID, which is the state a striped Get needs: Put returns once
// the directory lists the copy as complete. It must be a fresh object
// every round: a node that fetched an object once remembers one sender in
// its location cache and would not stripe a repeat Get of it.
func (e *env) stageBig(ctx context.Context, oid hoplite.ObjectID) error {
	for i := 0; i < bigCopies; i++ {
		if err := e.c.Node(i).Put(ctx, oid, e.big); err != nil {
			return fmt.Errorf("stage copy %d: %w", i, err)
		}
	}
	e.bigOID = oid
	return nil
}

// collectiveCycle is one round: broadcast, reduce and allreduce of 4 MiB
// over nodes 0-7, then one striped GetRef of the 32 MiB object by node 8.
func collectiveCycle(e *env, cl *client, tr *tracer) (time.Duration, error) {
	op := tr.newOp()
	root := tr.begin(0, op, "op")
	defer tr.end(root)
	busy, err := e.collectiveRound(cl, tr, root, op)
	if err != nil {
		return busy, err
	}
	n8 := e.c.Node(8)
	d, err := getRefChecked(cl, tr, root, op, n8, e.bigOID, e.big)
	if err != nil {
		return busy, fmt.Errorf("striped getref: %w", err)
	}
	cl.rec.coll.striped.add(d)
	busy += d
	// Scaffolding, outside the cycle's busy time: retire this round's big
	// object and stage the next.
	octx := cl.octx.get()
	if err := e.c.Node(0).Delete(octx, e.bigOID); err != nil {
		return busy, fmt.Errorf("delete staged object: %w", err)
	}
	if err := e.stageBig(octx, cl.ids.oid()); err != nil {
		return busy, err
	}
	return busy, nil
}

// spillPreload puts the working set on node 0, which demotes all but the
// last few objects to its spill files.
func spillPreload(ctx context.Context, e *env) error {
	ids := newRNG(e.seed, "spill-preload")
	e.live = e.live[:0]
	for i := 0; i < spillObjects; i++ {
		o := liveObject{oid: ids.oid(), payload: i % len(e.payloads)}
		if err := e.c.Node(0).Put(ctx, o.oid, e.payloads[o.payload]); err != nil {
			return fmt.Errorf("put %d: %w", i, err)
		}
		e.live = append(e.live, o)
	}
	return nil
}

// spillCycle is one round over the working set: a local GetRef scan on
// node 0 (every restore forces a demotion), a remote GetRef scan from node
// 1 (served off node 0's spill files), then the eight oldest objects are
// deleted and eight new ones put under admission backpressure.
func spillCycle(e *env, cl *client, tr *tracer) (time.Duration, error) {
	n0, n1 := e.c.Node(0), e.c.Node(1)
	op := tr.newOp()
	root := tr.begin(0, op, "op")
	defer tr.end(root)
	var busy time.Duration
	for i, o := range e.live {
		d, err := getRefChecked(cl, tr, root, op, n0, o.oid, e.payloads[o.payload])
		if err != nil {
			return busy, fmt.Errorf("local getref %d: %w", i, err)
		}
		busy += d
	}
	for i, o := range e.live {
		d, err := getRefChecked(cl, tr, root, op, n1, o.oid, e.payloads[o.payload])
		if err != nil {
			return busy, fmt.Errorf("remote getref %d: %w", i, err)
		}
		busy += d
		cl.rec.get.add(d)
		// Node 1 would otherwise keep the copy (and demote it to its own
		// spill files), and the next round's scan would not be remote.
		if err := dropCopy(cl.octx.get(), n1, o.oid); err != nil {
			return busy, fmt.Errorf("drop copy %d: %w", i, err)
		}
	}
	for i := 0; i < spillChurn; i++ {
		old := e.live[0]
		d, err := timed(tr, root, op, "core.delete", func() error { return n0.Delete(cl.octx.get(), old.oid) })
		if err != nil {
			return busy, fmt.Errorf("delete: %w", err)
		}
		busy += d
		fresh := liveObject{oid: cl.ids.oid(), payload: (old.payload + 1) % len(e.payloads)}
		d, err = timed(tr, root, op, "core.put", func() error {
			return n0.Put(cl.octx.get(), fresh.oid, e.payloads[fresh.payload])
		})
		if err != nil {
			return busy, fmt.Errorf("put: %w", err)
		}
		busy += d
		cl.rec.put.add(d)
		e.live = append(e.live[1:], fresh)
	}
	return busy, nil
}
