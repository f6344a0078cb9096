package hoplite

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hoplite/internal/netem"
	"hoplite/internal/types"
)

// TestWarmCollectivesReuseDataConnections runs the same broadcast, 8-way
// Reduce and AllReduce round twelve times on nine emulated nodes and
// counts the data connections every node accepts per round. Receivers
// keep their connections to a sender open between pulls, so once the
// pairs a round uses have met, later rounds dial almost nothing: the last
// four rounds together accept fewer connections than the first alone.
func TestWarmCollectivesReuseDataConnections(t *testing.T) {
	const (
		nodes  = 9
		srcs   = 8
		rounds = 12
		elems  = 64 << 10 // 256 KiB of f32: above the inline threshold
	)
	ctx := testCtx(t)
	c := startCluster(t, nodes, Options{Emulate: &netem.LinkConfig{Latency: 100 * time.Microsecond}})
	inputs := make([][]byte, srcs)
	for i := range inputs {
		xs := make([]float32, elems)
		for j := range xs {
			xs[j] = float32(i + 1)
		}
		inputs[i] = types.EncodeF32(xs)
	}
	accepted := func() (sum int64) {
		for _, n := range c.Nodes() {
			sum += n.DataStats().Conns
		}
		return sum
	}
	putSources := func(label string) []ObjectID {
		oids := make([]ObjectID, srcs)
		var wg sync.WaitGroup
		for i := range oids {
			oids[i] = ObjectIDFromString(fmt.Sprintf("%s-src-%d", label, i))
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := c.Node(i).Put(ctx, oids[i], inputs[i]); err != nil {
					t.Errorf("%s put %d: %v", label, i, err)
				}
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		return oids
	}
	deleteAll := func(oids ...ObjectID) {
		for _, oid := range oids {
			if err := c.Node(0).Delete(ctx, oid); err != nil {
				t.Fatalf("delete %v: %v", oid, err)
			}
		}
	}
	round := func(r int) {
		// Broadcast: node 0's object to every other node at once.
		src := ObjectIDFromString(fmt.Sprintf("warm-%d-bcast", r))
		if err := c.Node(0).Put(ctx, src, inputs[0]); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 1; i < nodes; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := c.Node(i).Get(ctx, src); err != nil {
					t.Errorf("round %d broadcast to %d: %v", r, i, err)
				}
			}(i)
		}
		wg.Wait()
		deleteAll(src)

		// Reduce, coordinated by the node that holds no source.
		label := fmt.Sprintf("warm-%d-reduce", r)
		oids := putSources(label)
		target := ObjectIDFromString(label + "-out")
		if _, err := c.Node(srcs).Reduce(ctx, target, oids, srcs, SumF32); err != nil {
			t.Fatalf("round %d reduce: %v", r, err)
		}
		raw, err := c.Node(srcs).Get(ctx, target)
		if err != nil {
			t.Fatalf("round %d reduce result: %v", r, err)
		}
		checkConst(t, raw, srcs*(srcs+1)/2)
		deleteAll(append(oids, target)...)

		// AllReduce: the same reduce, then the result to every node.
		label = fmt.Sprintf("warm-%d-allreduce", r)
		oids = putSources(label)
		target = ObjectIDFromString(label + "-out")
		if _, err := c.AllReduce(ctx, 0, target, oids, srcs, SumF32); err != nil {
			t.Fatalf("round %d allreduce: %v", r, err)
		}
		deleteAll(append(oids, target)...)
	}
	perRound := make([]int64, rounds)
	for r := range perRound {
		before := accepted()
		round(r)
		perRound[r] = accepted() - before
	}
	t.Logf("data connections accepted per round: %v", perRound)
	var late int64
	for _, n := range perRound[8:] {
		late += n
	}
	if late >= perRound[0] {
		t.Fatalf("rounds 9-12 accepted %d data connections, round 1 alone %d: connections are not reused", late, perRound[0])
	}
}
