package hoplite

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"hoplite/internal/netem"
	"hoplite/internal/types"
)

// oidOnShard crafts an ObjectID that maps to the given directory shard, so
// fault tests can keep coordination metadata away from killed nodes (the
// paper delegates directory fault tolerance to the framework, §6).
func oidOnShard(t *testing.T, label string, shards, want int) ObjectID {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		oid := ObjectIDFromString(fmt.Sprintf("%s-%d", label, i))
		if oid.Shard(shards) == want {
			return oid
		}
	}
	t.Fatal("could not craft ObjectID on shard")
	return ObjectID{}
}

func slowEmu() *netem.LinkConfig {
	return &netem.LinkConfig{
		Latency:     200 * time.Microsecond,
		BytesPerSec: 32 << 20, // 32 MB/s so multi-MB transfers take visible time
	}
}

// TestBroadcastSenderFailure kills an intermediate broadcast sender
// mid-transfer and checks the receiver fails over to the original source
// and still receives exact bytes (§3.5.1, Figure 4c').
func TestBroadcastSenderFailure(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{Emulate: slowEmu()})
	data := payload(8<<20, 7)
	oid := oidOnShard(t, "bfail", c.Size(), 0)
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Node 1 fetches the full object first.
	if _, err := c.Node(1).Get(ctx, oid); err != nil {
		t.Fatalf("node1 Get: %v", err)
	}
	// Node 3 leases node 0 (the only complete copy is preferred, but to
	// make the test deterministic we start it first and let it hold the
	// lease while node 2 arrives).
	done3 := make(chan error, 1)
	go func() {
		_, err := c.Node(3).Get(ctx, oid)
		done3 <- err
	}()
	time.Sleep(100 * time.Millisecond)
	// Node 2 must now fetch from node 1 or node 0 — whichever it gets,
	// kill node 1 mid-flight; if node 2 was on node 1 it must fail over.
	done2 := make(chan error, 1)
	var got2 []byte
	go func() {
		var err error
		got2, err = c.Node(2).Get(ctx, oid)
		done2 <- err
	}()
	time.Sleep(60 * time.Millisecond)
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if err := <-done2; err != nil {
		t.Fatalf("node2 Get after sender failure: %v", err)
	}
	if !bytes.Equal(got2, data) {
		t.Fatal("node2 payload mismatch after failover")
	}
	if err := <-done3; err != nil {
		t.Fatalf("node3 Get: %v", err)
	}
	waitLeasesReturned(t, c, 1)
}

// TestStripedGetSenderFailure kills one of a striped Get's senders
// mid-transfer. The dead worker returns its unwritten chunks to the
// ledger, so the surviving senders re-fetch exactly the missing ranges —
// the Get must complete with exact bytes and without restarting from the
// lowest contiguous offset.
func TestStripedGetSenderFailure(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{Emulate: slowEmu(), Node: Config{StripeThreshold: 1 << 20, MaxSources: 3}})
	data := payload(16<<20, 13)
	oid := oidOnShard(t, "stripefail", c.Size(), 0)
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Warm complete copies on nodes 1 and 2 so the striped Get leases
	// three senders.
	for i := 1; i <= 2; i++ {
		if err := c.Node(i).WaitLocal(ctx, oid); err != nil {
			t.Fatalf("warm node%d: %v", i, err)
		}
	}
	waitComplete(t, ctx, c, 0, oid, 3)
	before := []int64{c.Node(0).DataStats().RangedPulls, 0, c.Node(2).DataStats().RangedPulls}
	done := make(chan error, 1)
	var got []byte
	go func() {
		var err error
		got, err = c.Node(3).Get(ctx, oid)
		done <- err
	}()
	// 16 MB at 32 MB/s receiver ingress takes ~500 ms; kill a sender once
	// the stripes are in flight.
	time.Sleep(120 * time.Millisecond)
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("striped Get after sender failure: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("striped Get payload mismatch after sender failure")
	}
	// The surviving senders carried the stripes (including any ranges the
	// dead sender returned to the ledger).
	if c.Node(0).DataStats().RangedPulls <= before[0] || c.Node(2).DataStats().RangedPulls <= before[2] {
		t.Fatal("surviving senders served no ranged pulls")
	}
	waitLeasesReturned(t, c, 1)
}

// TestReduceParticipantFailure kills a reduce participant mid-stream; the
// coordinator must drop it, replace the slot with the spare source, and
// produce the fold of exactly the used sources (§3.5.2, Figure 5b).
func TestReduceParticipantFailure(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 8, Options{Emulate: slowEmu()})
	const elems = 1 << 20 // 4 MB per object
	vals := make([]float32, c.Size())
	sources := make([]ObjectID, 0, 7)
	for i := 1; i < c.Size(); i++ {
		xs := make([]float32, elems)
		vals[i] = float32(i * 10)
		for j := range xs {
			xs[j] = vals[i]
		}
		oid := oidOnShard(t, fmt.Sprintf("rfail-src-%d", i), c.Size(), 0)
		if err := c.Node(i).Put(ctx, oid, types.EncodeF32(xs)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		sources = append(sources, oid)
	}
	target := oidOnShard(t, "rfail-out", c.Size(), 0)

	reduceDone := make(chan error, 1)
	var used []ObjectID
	go func() {
		var err error
		used, err = c.Node(0).Reduce(ctx, target, sources, 6, SumF32)
		reduceDone <- err
	}()
	waitExecutors(t, c, 3, 1)
	if err := c.KillNode(3); err != nil {
		t.Fatal(err)
	}
	if err := <-reduceDone; err != nil {
		t.Fatalf("Reduce with failure: %v", err)
	}
	if len(used) != 6 {
		t.Fatalf("used %d sources, want 6", len(used))
	}
	// The killed node's source must not be in the used set.
	killed := ObjectID{}
	for i, src := range sources {
		if i+1 == 3 { // sources[i] was put by node i+1
			killed = src
		}
	}
	var want float64
	for _, src := range used {
		if src == killed {
			t.Fatal("killed participant's source in used set")
		}
		for i := 1; i < c.Size(); i++ {
			if src == sources[i-1] {
				want += float64(vals[i])
			}
		}
	}
	raw, err := c.Node(0).Get(ctx, target)
	if err != nil {
		t.Fatalf("Get result: %v", err)
	}
	got := types.DecodeF32(raw)
	for j := 0; j < elems; j += elems / 7 {
		if float64(got[j]) != want {
			t.Fatalf("elem %d: got %v want %v (used=%d)", j, got[j], want, len(used))
		}
	}
}

// TestReduceRejoin kills a participant when there is no spare source
// (m == n); the reduce must block until the "task" re-executes (the source
// is re-Put elsewhere) and then complete — the paper's rejoin behaviour.
func TestReduceRejoin(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 5, Options{Emulate: slowEmu()})
	const elems = 1 << 20
	sources := make([]ObjectID, 0, 4)
	var want float64
	var data3 []byte
	for i := 1; i < c.Size(); i++ {
		xs := make([]float32, elems)
		for j := range xs {
			xs[j] = float32(i)
		}
		want += float64(i)
		oid := oidOnShard(t, fmt.Sprintf("rejoin-src-%d", i), c.Size(), 0)
		enc := types.EncodeF32(xs)
		if i == 3 {
			data3 = enc
		}
		if err := c.Node(i).Put(ctx, oid, enc); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		sources = append(sources, oid)
	}
	target := oidOnShard(t, "rejoin-out", c.Size(), 0)
	reduceDone := make(chan error, 1)
	go func() {
		_, err := c.Node(0).Reduce(ctx, target, sources, len(sources), SumF32)
		reduceDone <- err
	}()
	waitExecutors(t, c, 3, 1)
	if err := c.KillNode(3); err != nil {
		t.Fatal(err)
	}
	// The reduce cannot finish: 4 of 4 sources are required.
	select {
	case err := <-reduceDone:
		t.Fatalf("Reduce finished despite missing source: %v", err)
	case <-time.After(1 * time.Second):
	}
	// "Task re-execution": the lost source reappears on node 0.
	if err := c.Node(0).Put(ctx, sources[2], data3); err != nil {
		t.Fatalf("re-Put: %v", err)
	}
	if err := <-reduceDone; err != nil {
		t.Fatalf("Reduce after rejoin: %v", err)
	}
	raw, err := c.Node(0).Get(ctx, target)
	if err != nil {
		t.Fatalf("Get result: %v", err)
	}
	got := types.DecodeF32(raw)
	if float64(got[0]) != want || float64(got[elems-1]) != want {
		t.Fatalf("got %v want %v", got[0], want)
	}
}

// TestBroadcastReceiverRejoin kills a receiver mid-fetch; after "restart"
// the same fetch (a fresh Get from a live node) succeeds and other
// receivers are unaffected.
func TestBroadcastReceiverRejoin(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{Emulate: slowEmu()})
	data := payload(8<<20, 11)
	oid := oidOnShard(t, "brejoin", c.Size(), 0)
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Node(2).Get(ctx, oid)
		done <- err
	}()
	time.Sleep(60 * time.Millisecond)
	if err := c.KillNode(2); err != nil {
		t.Fatal(err)
	}
	<-done // the killed node's Get fails or hangs; either way others work
	got, err := c.Node(1).Get(ctx, oid)
	if err != nil {
		t.Fatalf("node1 Get after receiver death: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload mismatch")
	}
	ctxShort, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	got3, err := c.Node(3).Get(ctxShort, oid)
	if err != nil {
		t.Fatalf("node3 Get: %v", err)
	}
	if !bytes.Equal(got3, data) {
		t.Fatal("node3 payload mismatch")
	}
}
