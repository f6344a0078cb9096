package hoplite

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hoplite/internal/netem"
	"hoplite/internal/types"
)

// TestReduceCriticalPathRTTs counts the round trips on a reduce's critical
// path. With unlimited bandwidth an 8-way 256 KiB reduce moves its data in
// a few frame times, so what is left is control: watching the sources,
// dispatching the specs, each parent's pull of its children's outputs
// straight from their hosts, and the target's registration. The
// coordinator fans its watches and specs out concurrently, finishes on its
// own root executor and unwatches after it returns, so the whole reduce
// costs under 10 RTTs; serial per-source watches, specs and unwatches
// cost about 60.
func TestReduceCriticalPathRTTs(t *testing.T) {
	const (
		oneWay  = 10 * time.Millisecond
		rtt     = 2 * oneWay
		sources = 8
		elems   = 64 << 10 // 256 KiB of f32
		maxRTTs = 20
	)
	ctx := testCtx(t)
	c := startCluster(t, sources+1, Options{Emulate: &netem.LinkConfig{Latency: oneWay}})
	round := func(label string) time.Duration {
		srcs := make([]ObjectID, sources)
		var puts sync.WaitGroup
		for i := range srcs {
			srcs[i] = ObjectIDFromString(fmt.Sprintf("rtt-%s-src-%d", label, i))
			puts.Add(1)
			go func(i int) {
				defer puts.Done()
				xs := make([]float32, elems)
				for j := range xs {
					xs[j] = float32(i + 1)
				}
				if err := c.Node(i).Put(ctx, srcs[i], types.EncodeF32(xs)); err != nil {
					t.Errorf("%s put %d: %v", label, i, err)
				}
			}(i)
		}
		puts.Wait()
		if t.Failed() {
			t.FailNow()
		}
		target := ObjectIDFromString("rtt-" + label + "-out")
		start := time.Now()
		if _, err := c.Node(0).Reduce(ctx, target, srcs, sources, SumF32); err != nil {
			t.Fatalf("%s reduce: %v", label, err)
		}
		if err := c.Node(0).WaitLocal(ctx, target); err != nil {
			t.Fatalf("%s WaitLocal: %v", label, err)
		}
		d := time.Since(start)
		raw, err := c.Node(0).Get(ctx, target)
		if err != nil {
			t.Fatalf("%s get: %v", label, err)
		}
		checkConst(t, raw, sources*(sources+1)/2)
		return d
	}
	round("warm") // dials every control and data connection once
	// The faster of two rounds: CPU contention from packages tested in
	// parallel stretches a round; it never shortens one.
	d := min(round("measured-1"), round("measured-2"))
	rtts := float64(d) / float64(rtt)
	t.Logf("reduce + WaitLocal: %v = %.1f RTTs of %v", d, rtts, rtt)
	if rtts > maxRTTs {
		t.Fatalf("reduce critical path %.1f RTTs, want <= %d", rtts, maxRTTs)
	}
}

// TestReduceDirectoryCalls counts the directory RPCs of a warm 8-way 1 MiB
// reduce, summed over every node's directory client. Only the
// application's objects touch the directory: the source watches and their
// unwatches, and the target's watch, registration and completion. The
// slot outputs below the root are private to their run and cost none.
func TestReduceDirectoryCalls(t *testing.T) {
	const (
		sources     = 8
		elems       = 256 << 10 // 1 MiB of f32
		rounds      = 3
		maxPerRound = 26
	)
	ctx := testCtx(t)
	c := startCluster(t, sources+1, Options{})
	calls := func() int64 {
		var sum int64
		for _, n := range c.Nodes() {
			sum += n.Directory().Stats().Calls
		}
		return sum
	}
	// Every round's sources are put up front, so only reduces are counted.
	srcs := make([][]ObjectID, rounds+1)
	for r := range srcs {
		for i := 0; i < sources; i++ {
			oid := RandomObjectID()
			putF32(t, ctx, c.Node(i), oid, float32(i+1), elems)
			srcs[r] = append(srcs[r], oid)
		}
	}
	reduce := func(r int) {
		target := RandomObjectID()
		if _, err := c.Node(0).Reduce(ctx, target, srcs[r], sources, SumF32); err != nil {
			t.Fatalf("round %d reduce: %v", r, err)
		}
		if err := c.Node(0).WaitLocal(ctx, target); err != nil {
			t.Fatalf("round %d WaitLocal: %v", r, err)
		}
	}
	// settled returns the count once the reduces' teardown, which runs
	// after Reduce returns, has stopped issuing calls.
	settled := func() int64 {
		waitCond(t, "every executor to stop", func() bool { return reduceExecutors(c) == 0 })
		prev := calls()
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			time.Sleep(50 * time.Millisecond)
			cur := calls()
			if cur == prev {
				return cur
			}
			prev = cur
		}
		t.Fatal("directory calls never settled")
		return 0
	}
	reduce(0) // dials every connection and learns the links once
	before := settled()
	for r := 1; r <= rounds; r++ {
		reduce(r)
	}
	per := float64(settled()-before) / rounds
	t.Logf("%.1f directory RPCs per %d-way reduce", per, sources)
	if per > maxPerRound {
		t.Fatalf("%.1f directory RPCs per reduce, want <= %d", per, maxPerRound)
	}
}

// TestConcurrentReducesShareFailedParticipant runs two reduces from one
// coordinator whose trees share a participant, then kills it. Both must
// notice through the one control connection they share, replace its slot
// with a spare source and fold exactly the sources they report.
func TestConcurrentReducesShareFailedParticipant(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 6, Options{Emulate: slowEmu()})
	const (
		elems  = 1 << 20 // 4 MB per source
		victim = 3
	)
	type job struct {
		sources []ObjectID
		vals    map[ObjectID]float64
		target  ObjectID
		used    []ObjectID
		err     error
	}
	jobs := make([]*job, 2)
	for j := range jobs {
		jb := &job{vals: make(map[ObjectID]float64), target: oidOnShard(t, fmt.Sprintf("shared-out-%d", j), c.Size(), 0)}
		// One source on each of nodes 1-5; the reduce uses four, so one
		// is the spare that replaces the victim's.
		for i := 1; i < c.Size(); i++ {
			oid := oidOnShard(t, fmt.Sprintf("shared-src-%d-%d", j, i), c.Size(), 0)
			val := float32(10*j + i)
			putF32(t, ctx, c.Node(i), oid, val, elems)
			jb.sources = append(jb.sources, oid)
			jb.vals[oid] = float64(val)
		}
		jobs[j] = jb
	}
	var wg sync.WaitGroup
	for _, jb := range jobs {
		wg.Add(1)
		go func(jb *job) {
			defer wg.Done()
			jb.used, jb.err = c.Node(0).Reduce(ctx, jb.target, jb.sources, len(jb.sources)-1, SumF32)
		}(jb)
	}
	// Both trees have a slot on the victim once it runs an executor per
	// reduce (its source and one output each).
	waitExecutors(t, c, victim, 2)
	if err := c.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for j, jb := range jobs {
		if jb.err != nil {
			t.Fatalf("reduce %d: %v", j, jb.err)
		}
		if len(jb.used) != len(jb.sources)-1 {
			t.Fatalf("reduce %d used %d sources, want %d", j, len(jb.used), len(jb.sources)-1)
		}
		var want float64
		for _, src := range jb.used {
			if src == jb.sources[victim-1] {
				t.Fatalf("reduce %d used the killed participant's source", j)
			}
			want += jb.vals[src]
		}
		raw, err := c.Node(0).Get(ctx, jb.target)
		if err != nil {
			t.Fatalf("reduce %d result: %v", j, err)
		}
		checkConst(t, raw, float32(want))
	}
}

// waitExecutors blocks until node i runs at least n reduce slot
// executors: a kill after it lands inside the reduce's transfer.
func waitExecutors(t *testing.T, c *Cluster, i, n int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for c.Node(i).ReduceExecutors() < n {
		if time.Now().After(deadline) {
			t.Fatalf("node %d never ran %d reduce executors", i, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReduceOddSizeMatchesLocalFold reduces 8 objects of 1 MiB + 24 bytes
// (a multiple of every element size but not of the 256 KiB run) at forced
// degrees 1, 2 and 8, so the fold's short last run and the leaves' direct
// copies are both exercised, and byte-compares each result with the same
// fold done locally. Every op is exact in any order: whole-number f32
// sums, wrapping i64 sums, and min and max.
func TestReduceOddSizeMatchesLocalFold(t *testing.T) {
	const nodes, size = 8, 1<<20 + 24
	rng := rand.New(rand.NewSource(3))
	for _, degree := range []int{1, 2, nodes} {
		t.Run(fmt.Sprintf("degree=%d", degree), func(t *testing.T) {
			ctx := testCtx(t)
			c := startCluster(t, nodes, Options{Node: Config{ReduceDegree: degree}})
			for _, op := range []ReduceOp{SumF32, {Kind: Max, DType: F64}, {Kind: Min, DType: I32}, {Kind: Sum, DType: I64}} {
				sources := make([]ObjectID, nodes)
				var want []byte
				for i := range sources {
					payload := make([]byte, size)
					rng.Read(payload)
					for e := 0; e < size; e += op.DType.Size() {
						switch op.DType {
						case F32:
							binary.LittleEndian.PutUint32(payload[e:], math.Float32bits(float32(rng.Intn(256))))
						case F64:
							binary.LittleEndian.PutUint64(payload[e:], math.Float64bits(rng.NormFloat64()))
						}
					}
					if want == nil {
						want = bytes.Clone(payload)
					} else if err := op.Accumulate(want, payload); err != nil {
						t.Fatal(err)
					}
					sources[i] = RandomObjectID()
					if err := c.Node(i).Put(ctx, sources[i], payload); err != nil {
						t.Fatal(err)
					}
				}
				target := RandomObjectID()
				if _, err := c.Node(0).Reduce(ctx, target, sources, nodes, op); err != nil {
					t.Fatalf("%v reduce: %v", op, err)
				}
				got, err := c.Node(0).Get(ctx, target)
				if err != nil {
					t.Fatalf("%v result: %v", op, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%v: result differs from the local fold", op)
				}
			}
		})
	}
}
