package hoplite

import (
	"bytes"
	"context"
	"testing"
	"time"

	"hoplite/internal/types"
)

// waitComplete polls the directory until the object has at least want
// complete locations (the striped-pull coordinator reports PutComplete
// asynchronously after sealing).
func waitComplete(t *testing.T, ctx context.Context, c *Cluster, from int, oid ObjectID, want int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		rec, err := c.Node(from).Directory().Lookup(ctx, oid, false)
		if err == nil {
			complete := 0
			for _, l := range rec.Locs {
				if l.Progress == types.ProgressComplete {
					complete++
				}
			}
			if complete >= want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("object never reached %d complete copies", want)
		}
		select {
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
			t.Fatal(ctx.Err())
		}
	}
}

// stripedSenders runs one striped Get against k complete remote copies
// and returns how many distinct senders served ranged pulls for it.
func stripedSenders(t *testing.T, maxSources int) int {
	return stripedSendersSized(t, maxSources, 16<<20)
}

func stripedSendersSized(t *testing.T, maxSources, size int) int {
	t.Helper()
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{Node: Config{StripeThreshold: 1 << 20, MaxSources: maxSources}})
	data := payload(size, 5)
	oid := ObjectIDFromString("striped-get")
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Warm two more complete copies so k = 3 complete remote copies exist.
	for i := 1; i <= 2; i++ {
		if _, err := c.Node(i).Get(ctx, oid); err != nil {
			t.Fatalf("warm Get node%d: %v", i, err)
		}
	}
	waitComplete(t, ctx, c, 3, oid, 3)
	before := make([]int64, 3)
	for i := 0; i < 3; i++ {
		before[i] = c.Node(i).DataStats().RangedPulls
	}
	got, err := c.Node(3).Get(ctx, oid)
	if err != nil {
		t.Fatalf("striped Get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("striped Get payload mismatch")
	}
	senders := 0
	for i := 0; i < 3; i++ {
		if c.Node(i).DataStats().RangedPulls > before[i] {
			senders++
		}
	}
	waitLeasesReturned(t, c)
	return senders
}

// A Get of an object with k complete remote copies must issue ranged
// pulls to min(k, MaxSources) senders concurrently.
func TestStripedGetUsesAllCompleteCopies(t *testing.T) {
	if got := stripedSenders(t, 4); got != 3 { // k=3 < MaxSources=4
		t.Fatalf("striped Get drew ranged pulls from %d senders, want min(k=3, MaxSources=4) = 3", got)
	}
}

func TestStripedGetRespectsMaxSources(t *testing.T) {
	if got := stripedSenders(t, 2); got != 2 { // MaxSources=2 < k=3
		t.Fatalf("striped Get drew ranged pulls from %d senders, want min(k=3, MaxSources=2) = 2", got)
	}
}

// An object smaller than two default ledger chunks must still spread
// across every leased sender: the striped pull shrinks the claim grid to
// the object and sender count instead of handing the whole (single
// default chunk) ledger to the first worker.
func TestStripedGetSmallObjectUsesAllSenders(t *testing.T) {
	if got := stripedSendersSized(t, 4, 4<<20); got != 3 { // one default chunk, k=3
		t.Fatalf("small striped Get drew ranged pulls from %d senders, want 3", got)
	}
}

// Below the stripe threshold a Get must keep the classic single-sender
// pipelined pull: exactly one sender serves, with no ranged pulls.
func TestSmallGetDoesNotStripe(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{Node: Config{StripeThreshold: 64 << 20, MaxSources: 4}})
	data := payload(8<<20, 6)
	oid := ObjectIDFromString("unstriped-get")
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	for i := 1; i <= 2; i++ {
		if _, err := c.Node(i).Get(ctx, oid); err != nil {
			t.Fatalf("warm Get node%d: %v", i, err)
		}
	}
	waitComplete(t, ctx, c, 3, oid, 3)
	got, err := c.Node(3).Get(ctx, oid)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload mismatch")
	}
	var ranged int64
	for i := 0; i < 3; i++ {
		ranged += c.Node(i).DataStats().RangedPulls
	}
	if ranged != 0 {
		t.Fatalf("%d ranged pulls issued below the stripe threshold", ranged)
	}
}
