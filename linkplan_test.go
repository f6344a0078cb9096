package hoplite

import (
	"bytes"
	"testing"
	"time"

	"hoplite/internal/netem"
)

// A striped Get must drain the sender with the fastest link hardest: node
// 0's link to the receiver is capped at 4x the rate of nodes 1 and 2, and
// the receiver's link tracker is seeded with the same 4x edge (so node 0
// also claims longer chunk runs per trip). The skew is physically real —
// the byte split is set by the caps, not by which worker goroutine happens
// to win a race on a symmetric fabric.
func TestStripedGetSkewsSpansTowardFastSender(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{Emulate: &netem.LinkConfig{}, Node: Config{StripeThreshold: 1 << 20, MaxSources: 4}})

	// Node 0 at 200 MB/s, nodes 1-2 at 50 MB/s, on the wire and in the
	// receiver's tracker. Repeated samples pin the EWMA regardless of gain.
	links := c.Node(3).Links()
	for i, bw := range []int64{200 << 20, 50 << 20, 50 << 20} {
		if err := c.SetPairLink(i, 3, netem.LinkConfig{BytesPerSec: float64(bw)}); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 10; s++ {
			links.ObserveTransfer(c.Node(i).ID(), bw, time.Second)
		}
	}

	data := payload(32<<20, 9)
	oid := ObjectIDFromString("skewed-striped-get")
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	for i := 1; i <= 2; i++ {
		if _, err := c.Node(i).Get(ctx, oid); err != nil {
			t.Fatalf("warm Get node%d: %v", i, err)
		}
	}
	waitComplete(t, ctx, c, 3, oid, 3)

	receiver := c.Node(3).ID()
	before := make([]int64, 3)
	for i := 0; i < 3; i++ {
		before[i] = c.Node(i).PeerDataStats()[receiver].Bytes
	}
	got, err := c.Node(3).Get(ctx, oid)
	if err != nil {
		t.Fatalf("striped Get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("striped Get payload mismatch")
	}
	served := make([]int64, 3)
	for i := 0; i < 3; i++ {
		served[i] = c.Node(i).PeerDataStats()[receiver].Bytes - before[i]
	}
	t.Logf("bytes served to receiver: fast=%d slow=%d/%d", served[0], served[1], served[2])
	for i := 0; i < 3; i++ {
		if served[i] <= 0 {
			t.Fatalf("sender %d served no bytes; all senders should participate", i)
		}
	}
	if served[0] <= served[1] || served[0] <= served[2] {
		t.Fatalf("fast sender served %d bytes, not more than slow senders (%d, %d)",
			served[0], served[1], served[2])
	}
}
