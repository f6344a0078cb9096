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

// TestReadersRideRootRestart starts a remote Get, a remote GetRefAsync and
// a Get on the root's own host of a reduce target, and kills a participant
// once the first epoch's bytes reach a reader. The failure restarts the
// tree up to its root, which re-creates the target in place under a new
// generation (§3.5.2, Figure 5b). Every reader must return the restarted
// reduce's sum, never bytes of the superseded epoch, and never an error.
func TestReadersRideRootRestart(t *testing.T) {
	ctx := testCtx(t)
	// Nodes 1-7 hold the sources; nodes 0 (the coordinator) and 8 hold
	// none, so neither can host the root: both read remotely.
	c := startCluster(t, 9, Options{Emulate: slowEmu()})
	const elems = 1 << 20 // 4 MB per object
	vals := make(map[ObjectID]float64)
	sources := make([]ObjectID, 0, 7)
	for i := 1; i <= 7; i++ {
		oid := oidOnShard(t, fmt.Sprintf("rride-src-%d", i), c.Size(), 0)
		xs := make([]float32, elems)
		for j := range xs {
			xs[j] = float32(i * 10)
		}
		if err := c.Node(i).Put(ctx, oid, types.EncodeF32(xs)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		vals[oid] = float64(i * 10)
		sources = append(sources, oid)
	}
	target := oidOnShard(t, "rride-out", c.Size(), 0)

	reduceDone := make(chan error, 1)
	var used []ObjectID
	go func() {
		var err error
		used, err = c.Node(0).Reduce(ctx, target, sources, 6, SumF32)
		reduceDone <- err
	}()
	waitExecutors(t, c, 3, 1)
	rootHost := -1
	for deadline := time.Now().Add(15 * time.Second); rootHost < 0; time.Sleep(time.Millisecond) {
		for i := 1; i <= 7; i++ {
			if c.Node(i).Store().Contains(target) {
				rootHost = i
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no node created the target")
		}
	}
	if rootHost == 3 {
		t.Fatal("the root landed on the node the test kills")
	}
	type result struct {
		data []byte
		err  error
	}
	got := make(chan result, 1)
	go func() {
		data, err := c.Node(0).Get(ctx, target)
		got <- result{data, err}
	}()
	atRoot := make(chan result, 1)
	go func() {
		data, err := c.Node(rootHost).Get(ctx, target)
		atRoot <- result{data, err}
	}()
	fut := c.Node(8).GetRefAsync(ctx, target)
	// Kill once node 0 holds bytes of the first epoch, so the restart
	// supersedes a copy mid-stream.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if buf, ok := c.Node(0).Store().Get(target); ok && buf.Watermark() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node 0 never received bytes of the target")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.KillNode(3); err != nil {
		t.Fatal(err)
	}
	if err := <-reduceDone; err != nil {
		t.Fatalf("Reduce with failure: %v", err)
	}
	var want float64
	for _, src := range used {
		want += vals[src]
	}
	check := func(who string, raw []byte) {
		t.Helper()
		xs := types.DecodeF32(raw)
		if len(xs) != elems {
			t.Fatalf("%s: %d elements, want %d", who, len(xs), elems)
		}
		for j, x := range xs {
			if float64(x) != want {
				t.Fatalf("%s: elem %d = %v, want %v (a superseded epoch's bytes)", who, j, x, want)
			}
		}
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("node 0 Get across the restart: %v", r.err)
	}
	check("node 0 Get", r.data)
	if r := <-atRoot; r.err != nil {
		t.Fatalf("Get on the root's host across the restart: %v", r.err)
	} else {
		check("root host Get", r.data)
	}
	ref, err := fut.Await(ctx)
	if err != nil {
		t.Fatalf("node 8 GetRefAsync across the restart: %v", err)
	}
	defer ref.Release()
	check("node 8 GetRefAsync", ref.Bytes())
}

// TestReduceTargetCopiesFollowRecord reduces into a target that readers
// already hold complete copies of, as a root restarted after the first
// epoch sealed finds it. The new root's registration must evict every
// such copy before it lists its own: afterwards no node keeps a copy the
// directory does not list, and every reader gets the new sum.
func TestReduceTargetCopiesFollowRecord(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{})
	const elems = 1 << 18 // 1 MiB per object
	put := func(name string, i int, v float32) ObjectID {
		oid := ObjectIDFromString(name)
		xs := make([]float32, elems)
		for j := range xs {
			xs[j] = v
		}
		if err := c.Node(i).Put(ctx, oid, types.EncodeF32(xs)); err != nil {
			t.Fatalf("Put %s: %v", name, err)
		}
		return oid
	}
	var first, second []ObjectID
	for i := 0; i < 4; i++ {
		first = append(first, put(fmt.Sprintf("follow-a-%d", i), i, 1))
		second = append(second, put(fmt.Sprintf("follow-b-%d", i), i, 10))
	}
	target := ObjectIDFromString("follow-out")
	sumOn := func(i int) float32 {
		t.Helper()
		data, err := c.Node(i).Get(ctx, target)
		if err != nil {
			t.Fatalf("node %d Get: %v", i, err)
		}
		return types.DecodeF32(data)[elems-1]
	}
	if _, err := c.Node(0).Reduce(ctx, target, first, 4, SumF32); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if got := sumOn(i); got != 4 {
			t.Fatalf("node %d: first sum %v, want 4", i, got)
		}
	}
	if _, err := c.Node(0).Reduce(ctx, target, second, 4, SumF32); err != nil {
		t.Fatal(err)
	}
	rec, err := c.Node(0).Directory().Lookup(ctx, target, false)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[NodeID]bool{}
	for _, l := range rec.Locs {
		listed[l.Node] = true
	}
	for i := 0; i < 4; i++ {
		if c.Node(i).Store().Contains(target) && !listed[c.Node(i).ID()] {
			t.Errorf("node %d keeps a copy the directory does not list (%+v)", i, rec.Locs)
		}
	}
	for i := 0; i < 4; i++ {
		if got := sumOn(i); got != 40 {
			t.Fatalf("node %d: second sum %v, want 40 (the first reduce's bytes)", i, got)
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
