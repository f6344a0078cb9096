package directory

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"hoplite/internal/types"
	"hoplite/internal/wire"
)

// startShard runs one directory shard over TCP and returns clients for
// the given node names.
func startShard(t *testing.T, nodes ...types.NodeID) []*Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shard := NewServer()
	srv := wire.NewServer(ln, shard.Handler())
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	var clients []*Client
	for _, n := range nodes {
		c := NewClient(n, []string{ln.Addr().String()}, dial)
		t.Cleanup(func() { c.Close() })
		clients = append(clients, c)
	}
	return clients
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestPutAndLookup(t *testing.T) {
	cs := startShard(t, "n1", "n2")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("a")
	if err := cs[0].PutStarted(ctx, oid, 100); err != nil {
		t.Fatal(err)
	}
	rec, err := cs[1].Lookup(ctx, oid, false)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Size != 100 || len(rec.Locs) != 1 || rec.Locs[0].Progress != types.ProgressPartial {
		t.Fatalf("rec %+v", rec)
	}
	if err := cs[0].PutComplete(ctx, oid); err != nil {
		t.Fatal(err)
	}
	rec, _ = cs[1].Lookup(ctx, oid, false)
	if rec.Locs[0].Progress != types.ProgressComplete {
		t.Fatal("not complete")
	}
}

func TestLookupNotFound(t *testing.T) {
	cs := startShard(t, "n1")
	_, err := cs[0].Lookup(ctxT(t), types.ObjectIDFromString("missing"), false)
	if !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

func TestLookupWaitBlocksUntilPut(t *testing.T) {
	cs := startShard(t, "n1", "n2")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("later")
	done := make(chan error, 1)
	go func() {
		_, err := cs[1].Lookup(ctx, oid, true)
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("lookup returned before put")
	case <-time.After(50 * time.Millisecond):
	}
	if err := cs[0].PutStarted(ctx, oid, 8); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestInlineFastPath(t *testing.T) {
	cs := startShard(t, "n1", "n2")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("small")
	payload := []byte("tiny object")
	if err := cs[0].PutInline(ctx, oid, payload); err != nil {
		t.Fatal(err)
	}
	lease, err := cs[1].AcquireSender(ctx, oid, false)
	if err != nil {
		t.Fatal(err)
	}
	if string(lease.Inline) != string(payload) {
		t.Fatalf("inline %q", lease.Inline)
	}
	rec, err := cs[1].Lookup(ctx, oid, false)
	if err != nil || string(rec.Inline) != string(payload) {
		t.Fatalf("lookup inline %q err %v", rec.Inline, err)
	}
}

func TestAcquireManyLeasesAllCompleteCopies(t *testing.T) {
	cs := startShard(t, "n1", "n2", "n3", "n4", "n5")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("striped")
	// Three complete copies and one partial.
	for i := 0; i < 3; i++ {
		if err := cs[i].PutStarted(ctx, oid, 1000); err != nil {
			t.Fatal(err)
		}
		if err := cs[i].PutComplete(ctx, oid); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs[3].PutStarted(ctx, oid, 1000); err != nil {
		t.Fatal(err)
	}
	ml, err := cs[4].AcquireSenders(ctx, oid, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ml.Senders) != 3 {
		t.Fatalf("leased %d senders, want 3 (the complete copies)", len(ml.Senders))
	}
	seen := map[types.NodeID]bool{}
	for _, s := range ml.Senders {
		if s == "n4" || s == "n5" {
			t.Fatalf("leased ineligible sender %s", s)
		}
		seen[s] = true
	}
	if len(seen) != 3 {
		t.Fatal("duplicate senders leased")
	}
	if ml.Size != 1000 {
		t.Fatalf("size %d", ml.Size)
	}
	// All complete copies are now leased: another striped acquire must
	// not block, it reports ErrNoSender so the caller falls back.
	if _, err := cs[3].AcquireSenders(ctx, oid, 8); !errors.Is(err, types.ErrNoSender) {
		t.Fatalf("got %v, want ErrNoSender", err)
	}
	// Releasing one sender makes it leasable again.
	if err := cs[4].ReleaseSender(ctx, oid, ml.Senders[0], false); err != nil {
		t.Fatal(err)
	}
	ml2, err := cs[3].AcquireSenders(ctx, oid, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ml2.Senders) != 1 || ml2.Senders[0] != ml.Senders[0] {
		t.Fatalf("re-lease got %v", ml2.Senders)
	}
}

func TestAcquireManyRespectsMax(t *testing.T) {
	cs := startShard(t, "n1", "n2", "n3", "n4")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("maxed")
	for i := 0; i < 3; i++ {
		if err := cs[i].PutStarted(ctx, oid, 64); err != nil {
			t.Fatal(err)
		}
		if err := cs[i].PutComplete(ctx, oid); err != nil {
			t.Fatal(err)
		}
	}
	ml, err := cs[3].AcquireSenders(ctx, oid, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ml.Senders) != 2 {
		t.Fatalf("leased %d senders, want max 2", len(ml.Senders))
	}
}

func TestAcquireManyNotFoundAndInline(t *testing.T) {
	cs := startShard(t, "n1", "n2")
	ctx := ctxT(t)
	if _, err := cs[0].AcquireSenders(ctx, types.ObjectIDFromString("absent"), 4); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
	oid := types.ObjectIDFromString("tiny")
	if err := cs[0].PutInline(ctx, oid, []byte("inline!")); err != nil {
		t.Fatal(err)
	}
	ml, err := cs[1].AcquireSenders(ctx, oid, 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(ml.Inline) != "inline!" {
		t.Fatalf("inline %q", ml.Inline)
	}
}

func TestAcquirePrefersComplete(t *testing.T) {
	cs := startShard(t, "holderP", "holderC", "recv")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("x")
	if err := cs[0].PutStarted(ctx, oid, 10); err != nil { // partial
		t.Fatal(err)
	}
	if err := cs[1].PutStarted(ctx, oid, 10); err != nil {
		t.Fatal(err)
	}
	if err := cs[1].PutComplete(ctx, oid); err != nil { // complete
		t.Fatal(err)
	}
	lease, err := cs[2].AcquireSender(ctx, oid, false)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Sender != "holderC" {
		t.Fatalf("picked %s, want the complete holder", lease.Sender)
	}
}

func TestAcquireLeasesAreExclusive(t *testing.T) {
	cs := startShard(t, "holder", "r1", "r2")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("x")
	if err := cs[0].PutStarted(ctx, oid, 10); err != nil {
		t.Fatal(err)
	}
	if err := cs[0].PutComplete(ctx, oid); err != nil {
		t.Fatal(err)
	}
	l1, err := cs[1].AcquireSender(ctx, oid, false)
	if err != nil || l1.Sender != "holder" {
		t.Fatalf("first acquire: %v %v", l1, err)
	}
	// The holder is leased out; the only other location is r1's fresh
	// partial — r2 gets routed to r1 (the broadcast-tree growth, §3.4.1).
	l2, err := cs[2].AcquireSender(ctx, oid, false)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Sender != "r1" {
		t.Fatalf("second acquire picked %s, want r1 (the partial)", l2.Sender)
	}
	// Releasing returns the holder and upgrades r1 to complete.
	if err := cs[1].ReleaseSender(ctx, oid, "holder", true); err != nil {
		t.Fatal(err)
	}
	rec, _ := cs[0].Lookup(ctx, oid, false)
	progress := map[types.NodeID]types.Progress{}
	for _, l := range rec.Locs {
		progress[l.Node] = l.Progress
	}
	if progress["r1"] != types.ProgressComplete {
		t.Fatalf("r1 progress %v", progress["r1"])
	}
}

func TestAcquireCycleAvoidance(t *testing.T) {
	cs := startShard(t, "s", "r1", "r2")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("x")
	cs[0].PutStarted(ctx, oid, 10)
	cs[0].PutComplete(ctx, oid)
	// r1 fetches from s; r2 fetches from r1.
	if l, err := cs[1].AcquireSender(ctx, oid, false); err != nil || l.Sender != "s" {
		t.Fatalf("%v %v", l, err)
	}
	if l, err := cs[2].AcquireSender(ctx, oid, false); err != nil || l.Sender != "r1" {
		t.Fatalf("%v %v", l, err)
	}
	// s dies; r1 aborts and re-acquires. The only free location is r2 —
	// but r2's dependency chain leads back to r1, so it must be skipped
	// (no cyclic transfers, §3.5.1).
	if err := cs[1].AbortTransfer(ctx, oid, "s", true); err != nil {
		t.Fatal(err)
	}
	_, err := cs[1].AcquireSender(ctx, oid, false)
	if !errors.Is(err, types.ErrNoSender) {
		t.Fatalf("got %v, want ErrNoSender (cycle)", err)
	}
	// r2 finishes; now r1 can fetch from it.
	if err := cs[2].ReleaseSender(ctx, oid, "r1", true); err != nil {
		t.Fatal(err)
	}
	l, err := cs[1].AcquireSender(ctx, oid, false)
	if err != nil || l.Sender != "r2" {
		t.Fatalf("%v %v", l, err)
	}
}

func TestAbortDropsDeadSender(t *testing.T) {
	cs := startShard(t, "s", "r")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("x")
	cs[0].PutStarted(ctx, oid, 10)
	cs[0].PutComplete(ctx, oid)
	if _, err := cs[1].AcquireSender(ctx, oid, false); err != nil {
		t.Fatal(err)
	}
	if err := cs[1].AbortTransfer(ctx, oid, "s", true); err != nil {
		t.Fatal(err)
	}
	rec, _ := cs[1].Lookup(ctx, oid, false)
	for _, l := range rec.Locs {
		if l.Node == "s" {
			t.Fatal("dead sender still listed")
		}
	}
}

func TestAbortDownstream(t *testing.T) {
	cs := startShard(t, "s", "r", "r2")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("x")
	cs[0].PutStarted(ctx, oid, 10)
	cs[0].PutComplete(ctx, oid)
	if _, err := cs[1].AcquireSender(ctx, oid, false); err != nil {
		t.Fatal(err)
	}
	// The sender reports the receiver's socket died: the lease frees and
	// the receiver's partial location drops, so a new receiver can lease
	// the sender again.
	if err := cs[0].AbortDownstream(ctx, oid, "r"); err != nil {
		t.Fatal(err)
	}
	l, err := cs[2].AcquireSender(ctx, oid, false)
	if err != nil || l.Sender != "s" {
		t.Fatalf("%v %v", l, err)
	}
}

func TestAcquireWaitUnblocksOnRelease(t *testing.T) {
	cs := startShard(t, "s", "r1", "r2")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("x")
	cs[0].PutStarted(ctx, oid, 10)
	cs[0].PutComplete(ctx, oid)
	if _, err := cs[1].AcquireSender(ctx, oid, false); err != nil {
		t.Fatal(err)
	}
	// r1 holds the only lease; r1's own partial is the only other
	// location but r2 could lease it... remove it to force waiting.
	if err := cs[1].RemoveLocation(ctx, oid); err != nil {
		t.Fatal(err)
	}
	done := make(chan types.NodeID, 1)
	go func() {
		l, err := cs[2].AcquireSender(ctx, oid, true)
		if err != nil {
			done <- ""
			return
		}
		done <- l.Sender
	}()
	select {
	case <-done:
		t.Fatal("acquire returned while all locations leased")
	case <-time.After(50 * time.Millisecond):
	}
	if err := cs[1].ReleaseSender(ctx, oid, "s", false); err != nil {
		t.Fatal(err)
	}
	select {
	case sender := <-done:
		if sender != "s" {
			t.Fatalf("sender %q", sender)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not woken")
	}
}

func TestDeleteTombstonesAndReports(t *testing.T) {
	cs := startShard(t, "a", "b")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("x")
	cs[0].PutStarted(ctx, oid, 10)
	cs[0].PutComplete(ctx, oid)
	cs[1].PutStarted(ctx, oid, 10)
	locs, err := cs[0].Delete(ctx, oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 2 {
		t.Fatalf("locs %v", locs)
	}
	if _, err := cs[1].AcquireSender(ctx, oid, false); !errors.Is(err, types.ErrDeleted) {
		t.Fatalf("got %v", err)
	}
	// Re-creation un-deletes with a new generation.
	if err := cs[0].PutStarted(ctx, oid, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := cs[1].AcquireSender(ctx, oid, false); err != nil {
		t.Fatal(err)
	}
}

func TestGenerationBumpsOnRecreate(t *testing.T) {
	cs := startShard(t, "a", "b")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("x")
	cs[0].PutStarted(ctx, oid, 10)
	cs[0].PutComplete(ctx, oid)
	l1, err := cs[1].AcquireSender(ctx, oid, false)
	if err != nil {
		t.Fatal(err)
	}
	cs[1].AbortTransfer(ctx, oid, "a", true)
	cs[1].RemoveLocation(ctx, oid) // drop own partial: zero locations
	cs[0].PutStarted(ctx, oid, 10)
	cs[0].PutComplete(ctx, oid)
	l2, err := cs[1].AcquireSender(ctx, oid, false)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Gen == l1.Gen {
		t.Fatal("generation did not bump on re-creation")
	}
}

// TestSupersedeStartsNewGeneration re-creates an object in place, as a
// restarted reduce root does. The first Supersede drops every other copy
// and lease and returns the dropped copies for eviction; while they are
// gone nobody is registered, and a holder whose lease or location the
// re-creation dropped cannot mark its copy complete. The next Supersede
// registers the re-creator alone under a new generation, with no
// tombstone, and a stale report from an old reader cannot drop it.
func TestSupersedeStartsNewGeneration(t *testing.T) {
	cs := startShard(t, "root", "r1", "r2")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("x")
	if err := cs[0].PutStarted(ctx, oid, 10); err != nil {
		t.Fatal(err)
	}
	old, err := cs[1].AcquireSender(ctx, oid, false) // r1 reads the old epoch
	if err != nil || old.Sender != "root" {
		t.Fatalf("acquire: %+v %v", old, err)
	}
	if err := cs[2].PutStarted(ctx, oid, 10); err != nil { // r2 writes its own copy
		t.Fatal(err)
	}
	dropped, err := cs[0].Supersede(ctx, oid, 10)
	if err != nil {
		t.Fatal(err)
	}
	got := map[types.NodeID]bool{}
	for _, l := range dropped {
		got[l.Node] = true
	}
	if len(dropped) != 2 || !got["r1"] || !got["r2"] {
		t.Fatalf("dropped %+v, want r1 and r2", dropped)
	}
	// r1 finishes the old epoch's bytes, r2 its own: neither is listed.
	if err := cs[1].ReleaseSender(ctx, oid, "root", true); !errors.Is(err, types.ErrAborted) {
		t.Fatalf("complete release without a lease: %v, want ErrAborted", err)
	}
	if err := cs[2].PutComplete(ctx, oid); !errors.Is(err, types.ErrAborted) {
		t.Fatalf("complete a dropped location: %v, want ErrAborted", err)
	}
	if rec, err := cs[2].Lookup(ctx, oid, false); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("lookup between the calls: %+v %v, want no location", rec.Locs, err)
	}
	if dropped, err := cs[0].Supersede(ctx, oid, 10); err != nil || len(dropped) != 0 {
		t.Fatalf("second Supersede: dropped %+v, %v", dropped, err)
	}
	// r1's transfer of the old epoch fails and blames the root.
	if err := cs[1].AbortTransfer(ctx, oid, "root", true); err != nil {
		t.Fatal(err)
	}
	rec, err := cs[2].Lookup(ctx, oid, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Locs) != 1 || rec.Locs[0].Node != "root" || rec.Locs[0].Progress != types.ProgressPartial {
		t.Fatalf("locations after the re-creation: %+v, want the root's partial copy alone", rec.Locs)
	}
	cur, err := cs[1].AcquireSender(ctx, oid, false)
	if err != nil || cur.Sender != "root" {
		t.Fatalf("re-acquire: %+v %v", cur, err)
	}
	if cur.Gen == old.Gen {
		t.Fatal("the re-creation kept the old generation")
	}
}

func TestSubscribeNotifications(t *testing.T) {
	cs := startShard(t, "pub", "sub")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("x")
	var mu sync.Mutex
	var updates []Update
	_, cancel, err := cs[1].Watch(ctx, oid, func(u Update) {
		mu.Lock()
		updates = append(updates, u)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	cs[0].PutStarted(ctx, oid, 42)
	cs[0].PutComplete(ctx, oid)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(updates)
		mu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("got %d updates, want 2", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	last := updates[len(updates)-1]
	if last.Size != 42 || len(last.Locs) != 1 || last.Locs[0].Progress != types.ProgressComplete {
		t.Fatalf("last update %+v", last)
	}
}

// TestUnsubscribeStopsNotifications: cancelling one of two watches on an
// object silences only that callback; cancelling the last unsubscribes,
// which stops the push.
func TestUnsubscribeStopsNotifications(t *testing.T) {
	cs := startShard(t, "pub", "sub")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("x")
	cancelled := make(chan struct{}, 16)
	kept := make(chan struct{}, 16)
	_, cancel, err := cs[1].Watch(ctx, oid, func(Update) { cancelled <- struct{}{} })
	if err != nil {
		t.Fatal(err)
	}
	_, cancelKept, err := cs[1].Watch(ctx, oid, func(Update) { kept <- struct{}{} })
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	cs[0].PutStarted(ctx, oid, 1)
	select {
	case <-kept:
	case <-time.After(5 * time.Second):
		t.Fatal("remaining watch got no notification")
	}
	cancelKept()
	cs[0].PutComplete(ctx, oid)
	time.Sleep(50 * time.Millisecond)
	select {
	case <-cancelled:
		t.Fatal("notification after cancel")
	case <-kept:
		t.Fatal("notification after the last cancel")
	default:
	}
}

func TestPurgeNode(t *testing.T) {
	cs := startShard(t, "dead", "live", "r")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("x")
	cs[0].PutStarted(ctx, oid, 10)
	cs[0].PutComplete(ctx, oid)
	cs[1].PutStarted(ctx, oid, 10)
	cs[1].PutComplete(ctx, oid)
	// r leases "dead"; then dead is purged: lease freed and location gone.
	if l, _ := cs[2].AcquireSender(ctx, oid, false); l.Sender != "dead" && l.Sender != "live" {
		t.Fatalf("sender %s", l.Sender)
	}
	if err := cs[2].PurgeNode(ctx, "dead"); err != nil {
		t.Fatal(err)
	}
	rec, _ := cs[2].Lookup(ctx, oid, false)
	for _, l := range rec.Locs {
		if l.Node == "dead" {
			t.Fatal("purged node still listed")
		}
	}
}

// TestPurgeNodeReturnsStripedLeases: striped acquires (AcquireSenders)
// record no fetch-dependency entry for the receiver, so purging a dead
// receiver must find its leases by scanning lease holders — otherwise a
// getter that died between its striped acquire and its release pins the
// sender busy forever and later blocking acquires park on it (the
// restart-and-rejoin wedge).
func TestPurgeNodeReturnsStripedLeases(t *testing.T) {
	cs := startShard(t, "holder", "ghost", "r")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("x")
	if err := cs[0].PutStarted(ctx, oid, 10); err != nil {
		t.Fatal(err)
	}
	if err := cs[0].PutComplete(ctx, oid); err != nil {
		t.Fatal(err)
	}
	// ghost takes the only complete copy's lease via the multi-sender
	// path, then dies without releasing it.
	ml, err := cs[1].AcquireSenders(ctx, oid, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ml.Senders) != 1 || ml.Senders[0] != "holder" {
		t.Fatalf("leased %v, want [holder]", ml.Senders)
	}
	if _, err := cs[2].AcquireSenders(ctx, oid, 4); !errors.Is(err, types.ErrNoSender) {
		t.Fatalf("pre-purge acquire got %v, want ErrNoSender", err)
	}
	if err := cs[2].PurgeNode(ctx, "ghost"); err != nil {
		t.Fatal(err)
	}
	ml2, err := cs[2].AcquireSenders(ctx, oid, 4)
	if err != nil {
		t.Fatalf("post-purge acquire: %v", err)
	}
	if len(ml2.Senders) != 1 || ml2.Senders[0] != "holder" {
		t.Fatalf("post-purge leased %v, want [holder]", ml2.Senders)
	}
}

func TestStats(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shard := NewServer()
	srv := wire.NewServer(ln, shard.Handler())
	go srv.Serve()
	defer srv.Close()
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	c := NewClient("n", []string{ln.Addr().String()}, dial)
	defer c.Close()
	ctx := ctxT(t)
	c.PutInline(ctx, types.ObjectIDFromString("s"), []byte("x"))
	c.PutStarted(ctx, types.ObjectIDFromString("l"), 100)
	st := shard.Stats()
	if st.Objects != 2 || st.Inline != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFailureReportsOnUnknownOIDCreateNoEntry: a transfer abort, a
// sender-side failure report and a location removal name an object the
// shard has never seen (a reduce intermediate, say, which never touches
// the directory). None of them may create an entry for it.
func TestFailureReportsOnUnknownOIDCreateNoEntry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shard := NewServer()
	srv := wire.NewServer(ln, shard.Handler())
	go srv.Serve()
	defer srv.Close()
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	c := NewClient("n", []string{ln.Addr().String()}, dial)
	defer c.Close()
	ctx := ctxT(t)
	if err := c.PutStarted(ctx, types.ObjectIDFromString("known"), 100); err != nil {
		t.Fatal(err)
	}
	want := shard.Stats().Objects
	calls := map[string]func(types.ObjectID) error{
		"AbortTransfer":   func(oid types.ObjectID) error { return c.AbortTransfer(ctx, oid, "sender", true) },
		"AbortDownstream": func(oid types.ObjectID) error { return c.AbortDownstream(ctx, oid, "receiver") },
		"RemoveLocation":  func(oid types.ObjectID) error { return c.RemoveLocation(ctx, oid) },
	}
	for name, call := range calls {
		if err := call(types.ObjectIDFromString("unknown-" + name)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := shard.Stats().Objects; got != want {
			t.Fatalf("%s on an unknown OID: %d entries, want %d", name, got, want)
		}
	}
}

// TestMarkSpilledRanking: a spilled location keeps serving but loses to
// in-memory complete copies in sender selection, and beats partials.
func TestMarkSpilledRanking(t *testing.T) {
	cs := startShard(t, "mem", "disk", "part", "recv")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("ranked")
	for _, c := range cs[:2] {
		if err := c.PutStarted(ctx, oid, 100); err != nil {
			t.Fatal(err)
		}
		if err := c.PutComplete(ctx, oid); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs[2].PutStarted(ctx, oid, 100); err != nil { // partial only
		t.Fatal(err)
	}
	if err := cs[1].MarkSpilled(ctx, oid, 100); err != nil {
		t.Fatal(err)
	}
	rec, err := cs[3].Lookup(ctx, oid, false)
	if err != nil {
		t.Fatal(err)
	}
	prog := map[types.NodeID]types.Progress{}
	for _, l := range rec.Locs {
		prog[l.Node] = l.Progress
	}
	if prog["mem"] != types.ProgressComplete || prog["disk"] != types.ProgressSpilled {
		t.Fatalf("locations %v", prog)
	}
	// First acquire takes the in-memory copy, second the spilled one,
	// third falls back to the partial.
	l1, err := cs[3].AcquireSender(ctx, oid, false)
	if err != nil || l1.Sender != "mem" {
		t.Fatalf("first lease %+v (%v), want mem", l1, err)
	}
	l2, err := cs[3].AcquireSender(ctx, oid, false)
	if err != nil || l2.Sender != "disk" {
		t.Fatalf("second lease %+v (%v), want disk", l2, err)
	}
	l3, err := cs[3].AcquireSender(ctx, oid, false)
	if err != nil || l3.Sender != "part" {
		t.Fatalf("third lease %+v (%v), want part", l3, err)
	}
}

// TestAcquireManyIncludesSpilled: the striping planner fills its slots
// with in-memory senders first, then disk-backed ones — never partials.
func TestAcquireManyIncludesSpilled(t *testing.T) {
	cs := startShard(t, "mem", "disk", "part", "recv")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("striped")
	for _, c := range cs[:2] {
		if err := c.PutStarted(ctx, oid, 1000); err != nil {
			t.Fatal(err)
		}
		if err := c.PutComplete(ctx, oid); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs[2].PutStarted(ctx, oid, 1000); err != nil {
		t.Fatal(err)
	}
	if err := cs[1].MarkSpilled(ctx, oid, 1000); err != nil {
		t.Fatal(err)
	}
	ml, err := cs[3].AcquireSenders(ctx, oid, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ml.Senders) != 2 || ml.Senders[0] != "mem" || ml.Senders[1] != "disk" {
		t.Fatalf("senders %v, want [mem disk]", ml.Senders)
	}
}

// TestMarkSpilledLifecycle: restart re-registration creates the entry
// (learning the size from the file), deletion tombstones it, and marking
// a tombstoned object reports ErrDeleted so the stale file is discarded.
func TestMarkSpilledLifecycle(t *testing.T) {
	cs := startShard(t, "n1", "n2")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("reborn")
	// Fresh registration (no prior locations): the restart path.
	if err := cs[0].MarkSpilled(ctx, oid, 4096); err != nil {
		t.Fatal(err)
	}
	rec, err := cs[1].Lookup(ctx, oid, false)
	if err != nil || rec.Size != 4096 {
		t.Fatalf("rec %+v err %v", rec, err)
	}
	if len(rec.Locs) != 1 || rec.Locs[0].Progress != types.ProgressSpilled {
		t.Fatalf("locs %v", rec.Locs)
	}
	// A spilled-only object is still acquirable.
	l, err := cs[1].AcquireSender(ctx, oid, false)
	if err != nil || l.Sender != "n1" || l.Size != 4096 {
		t.Fatalf("lease %+v (%v)", l, err)
	}
	if _, err := cs[1].Delete(ctx, oid); err != nil {
		t.Fatal(err)
	}
	if err := cs[0].MarkSpilled(ctx, oid, 4096); !errors.Is(err, types.ErrDeleted) {
		t.Fatalf("mark after delete: %v, want ErrDeleted", err)
	}
}
