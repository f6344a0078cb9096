package directory

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hoplite/internal/types"
	"hoplite/internal/wire"
)

func tcpDial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// replicaHarness runs one shard's replica group over real TCP, each
// replica an independent directory server behind its own wire server.
type replicaHarness struct {
	t     *testing.T
	addrs []string
	lns   []net.Listener
	dirs  []*Server
	wires []*wire.Server
	// wrap, if set, interposes on replica i's handler (fault injection).
	wrap func(i int, next wire.Handler) wire.Handler
}

const (
	testBeat  = 10 * time.Millisecond
	testLease = 80 * time.Millisecond
)

func startReplicaGroup(t *testing.T, n int) *replicaHarness {
	t.Helper()
	return startWrappedGroup(t, n, nil)
}

func startWrappedGroup(t *testing.T, n int, wrap func(i int, next wire.Handler) wire.Handler) *replicaHarness {
	t.Helper()
	h := &replicaHarness{
		t:     t,
		lns:   make([]net.Listener, n),
		dirs:  make([]*Server, n),
		wires: make([]*wire.Server, n),
		wrap:  wrap,
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		h.lns[i] = ln
		h.addrs = append(h.addrs, ln.Addr().String())
	}
	for i := 0; i < n; i++ {
		h.start(i)
	}
	t.Cleanup(func() {
		for i := range h.dirs {
			if h.dirs[i] != nil {
				h.kill(i)
			}
		}
	})
	return h
}

func (h *replicaHarness) start(i int) {
	h.t.Helper()
	d := NewReplicated(Config{
		Self:              h.addrs[i],
		Groups:            [][]string{h.addrs},
		Dial:              tcpDial,
		HeartbeatInterval: testBeat,
		LeaseTimeout:      testLease,
	})
	hd := d.Handler()
	if h.wrap != nil {
		hd = h.wrap(i, hd)
	}
	ws := wire.NewServer(h.lns[i], hd)
	go ws.Serve()
	d.Start()
	h.dirs[i] = d
	h.wires[i] = ws
}

func (h *replicaHarness) kill(i int) {
	h.wires[i].Close()
	h.dirs[i].Close()
	h.dirs[i] = nil
}

func (h *replicaHarness) restart(i int) {
	h.t.Helper()
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		h.lns[i], err = net.Listen("tcp", h.addrs[i])
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("rebind %s: %v", h.addrs[i], err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	h.start(i)
}

func (h *replicaHarness) client(node types.NodeID) *Client {
	h.t.Helper()
	c := NewReplicatedClient(node, [][]string{h.addrs}, tcpDial)
	h.t.Cleanup(func() { c.Close() })
	return c
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicatedMutationFailover kills the shard primary between
// mutations and checks the client lands every later op on the promoted
// backup with no state lost.
func TestReplicatedMutationFailover(t *testing.T) {
	h := startReplicaGroup(t, 3)
	ctx := ctxT(t)
	c := h.client("n1")
	oid := types.ObjectIDFromString("failover")
	if err := c.PutStarted(ctx, oid, 4096); err != nil {
		t.Fatalf("PutStarted: %v", err)
	}
	waitFor(t, "initial primary", func() bool { return h.dirs[0].Primary(0) })
	h.kill(0)
	// The next mutation must fail over to the promoted backup.
	if err := c.PutComplete(ctx, oid); err != nil {
		t.Fatalf("PutComplete after primary kill: %v", err)
	}
	rec, err := c.Lookup(ctx, oid, false)
	if err != nil {
		t.Fatalf("Lookup after failover: %v", err)
	}
	if rec.Size != 4096 || len(rec.Locs) != 1 || rec.Locs[0].Progress != types.ProgressComplete {
		t.Fatalf("replicated record lost state: %+v", rec)
	}
}

// TestPromotionOrder checks succession: killing the primary promotes the
// next replica by group index — not a later one — and killing that
// promotes the third.
func TestPromotionOrder(t *testing.T) {
	h := startReplicaGroup(t, 3)
	waitFor(t, "initial primary", func() bool { return h.dirs[0].Primary(0) })
	if h.dirs[1].Primary(0) || h.dirs[2].Primary(0) {
		t.Fatal("backup believes itself primary at boot")
	}
	h.kill(0)
	waitFor(t, "second replica promotion", func() bool { return h.dirs[1].Primary(0) })
	if h.dirs[2].Primary(0) {
		t.Fatal("third replica promoted out of order")
	}
	h.kill(1)
	waitFor(t, "third replica promotion", func() bool { return h.dirs[2].Primary(0) })
}

// TestLogTailReplayOnPromotion drives a backup directly with out-of-order
// replicated ops from a test-controlled "primary", then kills the primary
// and checks promotion replays the buffered tail in sequence order.
func TestLogTailReplayOnPromotion(t *testing.T) {
	// addr0 is the fake primary (a bare wire server answering pings);
	// addr1 hosts the real backup under test.
	fakeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fake := wire.NewServer(fakeLn, func(ctx context.Context, m wire.Message, p *wire.Peer) wire.Message {
		return wire.Message{Method: wire.MethodPing}
	})
	go fake.Serve()
	backupLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	group := []string{fakeLn.Addr().String(), backupLn.Addr().String()}
	backup := NewReplicated(Config{
		Self:              group[1],
		Groups:            [][]string{group},
		Dial:              tcpDial,
		HeartbeatInterval: testBeat,
		LeaseTimeout:      testLease,
	})
	bsrv := wire.NewServer(backupLn, backup.Handler())
	go bsrv.Serve()
	backup.Start()
	t.Cleanup(func() { bsrv.Close(); backup.Close(); fake.Close() })

	conn, err := tcpDial(context.Background(), group[1])
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewClient(conn, nil)
	t.Cleanup(func() { wc.Close() })
	ctx := ctxT(t)

	oid := types.ObjectIDFromString("replay")
	send := func(seq int64, op wire.Message) wire.Message {
		payload, err := wire.AppendMessage(nil, &op)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wc.Call(ctx, wire.Message{
			Method:   wire.MethodReplicate,
			Offset:   0,
			Gen:      1,
			Num:      seq,
			Node:     types.NodeID(group[0]),
			Complete: true,
			Payload:  payload,
		})
		if err != nil {
			t.Fatalf("replicate seq %d: %v", seq, err)
		}
		return resp
	}
	// Deliver op 2 (complete) before op 1 (started), then op 4 with a
	// permanent gap at 3: the backup must buffer all of them.
	send(2, wire.Message{Method: wire.MethodPutComplete, OID: oid, Node: "h1"})
	resp := send(1, wire.Message{Method: wire.MethodPutStarted, OID: oid, Node: "h1", Size: 512})
	if resp.Num != 2 {
		t.Fatalf("backup applied through seq %d, want 2 (out-of-order op not drained)", resp.Num)
	}
	gapOID := types.ObjectIDFromString("replay-gap")
	send(4, wire.Message{Method: wire.MethodPutStarted, OID: gapOID, Node: "h2", Size: 64})
	// Kill the fake primary; the backup promotes and must replay op 4
	// across the missing seq 3.
	fake.Close()
	waitFor(t, "backup promotion", func() bool { return backup.Primary(0) })
	epoch, seq := backup.ShardSeq(0)
	if epoch < 2 || seq != 4 {
		t.Fatalf("promoted replica at epoch %d seq %d, want epoch >= 2 seq 4", epoch, seq)
	}
	c := NewReplicatedClient("reader", [][]string{group}, tcpDial)
	t.Cleanup(func() { c.Close() })
	rec, err := c.Lookup(ctx, oid, false)
	if err != nil {
		t.Fatalf("Lookup after replay: %v", err)
	}
	if rec.Size != 512 || len(rec.Locs) != 1 || rec.Locs[0].Progress != types.ProgressComplete {
		t.Fatalf("replayed record wrong: %+v", rec)
	}
	if rec, err := c.Lookup(ctx, gapOID, false); err != nil || len(rec.Locs) != 1 {
		t.Fatalf("tail op past the gap not replayed: %+v err %v", rec, err)
	}
}

// TestPromotionPrefersSyncedReplica: succession is by state, not bare
// liveness — when the primary dies, an empty (restarted) replica earlier
// in the group order must defer to a later replica holding the shard's
// replicated history, instead of claiming the shard and wiping it.
func TestPromotionPrefersSyncedReplica(t *testing.T) {
	// group[0] is a test-controlled fake primary; group[1] ("empty") and
	// group[2] ("synced") are real replicas. Only synced receives the
	// fake's replicated ops.
	fakeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fake := wire.NewServer(fakeLn, func(ctx context.Context, m wire.Message, p *wire.Peer) wire.Message {
		return wire.Message{Method: wire.MethodPing}
	})
	go fake.Serve()
	lns := make([]net.Listener, 2)
	group := []string{fakeLn.Addr().String()}
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		group = append(group, lns[i].Addr().String())
	}
	servers := make([]*Server, 2)
	for i := range servers {
		servers[i] = NewReplicated(Config{
			Self:              group[i+1],
			Groups:            [][]string{group},
			Dial:              tcpDial,
			HeartbeatInterval: testBeat,
			LeaseTimeout:      testLease,
		})
		ws := wire.NewServer(lns[i], servers[i].Handler())
		go ws.Serve()
		servers[i].Start()
		srv := servers[i]
		t.Cleanup(func() { ws.Close(); srv.Close() })
	}
	t.Cleanup(func() { fake.Close() })
	empty, synced := servers[0], servers[1]

	// Feed the synced replica four ops at epoch 1; the empty one gets
	// nothing (a restarted replica that lost its state).
	conn, err := tcpDial(context.Background(), group[2])
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewClient(conn, nil)
	t.Cleanup(func() { wc.Close() })
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("prefer-synced")
	for seq := int64(1); seq <= 4; seq++ {
		op := wire.Message{Method: wire.MethodPutStarted, OID: oid, Node: types.NodeID(fmt.Sprintf("h%d", seq)), Size: 64}
		payload, err := wire.AppendMessage(nil, &op)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wc.Call(ctx, wire.Message{
			Method: wire.MethodReplicate, Offset: 0, Gen: 1, Num: seq,
			Node: types.NodeID(group[0]), Complete: true, Payload: payload,
		})
		if err != nil || resp.ErrorOf() != nil {
			t.Fatalf("replicate %d: %v %v", seq, err, resp.ErrorOf())
		}
	}
	fake.Close() // primary dies
	waitFor(t, "synced replica promotion", func() bool { return synced.Primary(0) })
	if empty.Primary(0) {
		t.Fatal("empty replica claimed the shard over a synced survivor")
	}
	_, seq := synced.ShardSeq(0)
	if seq != 4 {
		t.Fatalf("promoted replica lost state: seq %d, want 4", seq)
	}
}

// TestRetriedAcquireDedupe sends the same acquire (same client op
// sequence number) twice — to the original primary and, after killing
// it, to the promoted backup — and checks both return the same committed
// lease instead of double-leasing a second sender.
func TestRetriedAcquireDedupe(t *testing.T) {
	h := startReplicaGroup(t, 3)
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("dedupe")
	h1 := h.client("h1")
	h2 := h.client("h2")
	if err := h1.PutStarted(ctx, oid, 1024); err != nil {
		t.Fatal(err)
	}
	if err := h1.PutComplete(ctx, oid); err != nil {
		t.Fatal(err)
	}
	if err := h2.PutStarted(ctx, oid, 1024); err != nil {
		t.Fatal(err)
	}
	if err := h2.PutComplete(ctx, oid); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial primary", func() bool { return h.dirs[0].Primary(0) })

	// Raw wire client: the retry must carry the same Num2, which the
	// directory Client would refresh on a new logical acquire.
	conn, err := tcpDial(ctx, h.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewClient(conn, nil)
	t.Cleanup(func() { wc.Close() })
	acquire := wire.Message{Method: wire.MethodAcquire, OID: oid, Node: "recv", Num2: 77}
	first, err := wc.Call(ctx, acquire)
	if err != nil || first.ErrorOf() != nil {
		t.Fatalf("acquire: %v %v", err, first.ErrorOf())
	}
	if first.Sender == "" {
		t.Fatal("no sender leased")
	}
	retry, err := wc.Call(ctx, acquire)
	if err != nil || retry.ErrorOf() != nil {
		t.Fatalf("retried acquire: %v %v", err, retry.ErrorOf())
	}
	if retry.Sender != first.Sender {
		t.Fatalf("retry leased %s, first leased %s: double lease", retry.Sender, first.Sender)
	}

	// Kill the primary; the promoted backup received the op via
	// replication and must dedupe the same retry too.
	h.kill(0)
	waitFor(t, "promotion", func() bool { return h.dirs[1].Primary(0) })
	conn2, err := tcpDial(ctx, h.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	wc2 := wire.NewClient(conn2, nil)
	t.Cleanup(func() { wc2.Close() })
	retry2, err := wc2.Call(ctx, acquire)
	if err != nil || retry2.ErrorOf() != nil {
		t.Fatalf("retry on promoted backup: %v %v", err, retry2.ErrorOf())
	}
	if retry2.Sender != first.Sender {
		t.Fatalf("promoted backup leased %s, committed lease was %s: double lease", retry2.Sender, first.Sender)
	}

	// A different receiver (fresh op seq) gets the one remaining holder —
	// proving exactly one of the two was leased by all three calls above.
	other, err := h.client("recv2").AcquireSender(ctx, oid, false)
	if err != nil {
		t.Fatalf("second receiver acquire: %v", err)
	}
	if other.Sender == first.Sender {
		t.Fatalf("second receiver got the already-leased sender %s", first.Sender)
	}
}

// TestSnapshotResyncAfterRestart restarts a backup empty and checks the
// primary's heartbeat-driven snapshot push restores the full shard state,
// after which the restarted replica can be promoted and serve it.
func TestSnapshotResyncAfterRestart(t *testing.T) {
	h := startReplicaGroup(t, 2)
	ctx := ctxT(t)
	c := h.client("n1")
	var oids []types.ObjectID
	for i := 0; i < 20; i++ {
		oid := types.RandomObjectID()
		oids = append(oids, oid)
		if err := c.PutStarted(ctx, oid, int64(100+i)); err != nil {
			t.Fatal(err)
		}
		if err := c.PutComplete(ctx, oid); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.PutInline(ctx, types.ObjectIDFromString("inline"), []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial primary", func() bool { return h.dirs[0].Primary(0) })
	_, primarySeq := h.dirs[0].ShardSeq(0)

	h.kill(1)
	// More ops while the backup is down.
	extra := types.ObjectIDFromString("while-down")
	if err := c.PutStarted(ctx, extra, 7); err != nil {
		t.Fatal(err)
	}
	h.restart(1)
	waitFor(t, "snapshot resync", func() bool {
		_, seq := h.dirs[1].ShardSeq(0)
		return seq > primarySeq
	})

	// Promote the restarted replica by killing the primary: the resynced
	// state must be served in full.
	h.kill(0)
	waitFor(t, "restarted replica promotion", func() bool { return h.dirs[1].Primary(0) })
	for i, oid := range oids {
		rec, err := c.Lookup(ctx, oid, false)
		if err != nil {
			t.Fatalf("Lookup %d after resync: %v", i, err)
		}
		if rec.Size != int64(100+i) || len(rec.Locs) != 1 {
			t.Fatalf("record %d lost in resync: %+v", i, rec)
		}
	}
	if rec, err := c.Lookup(ctx, extra, false); err != nil || len(rec.Locs) != 1 {
		t.Fatalf("op issued while backup down lost: %+v err %v", rec, err)
	}
	if rec, err := c.Lookup(ctx, types.ObjectIDFromString("inline"), false); err != nil || string(rec.Inline) != "tiny" {
		t.Fatalf("inline payload lost in resync: %+v err %v", rec, err)
	}
}

// TestSubscribeRehomedOnReplicaDeath watches through the replica group,
// kills the replica serving the subscription, and checks updates keep
// flowing (the client re-homes the subscription; backups fan out the
// mutations they apply).
func TestSubscribeRehomedOnReplicaDeath(t *testing.T) {
	h := startReplicaGroup(t, 3)
	ctx := ctxT(t)
	c := h.client("subnode")
	oid := types.ObjectIDFromString("rehome")
	updates := make(chan Update, 64)
	_, cancel, err := c.Watch(ctx, oid, func(u Update) { updates <- u })
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer cancel()
	writer := h.client("writer")
	if err := writer.PutStarted(ctx, oid, 9); err != nil {
		t.Fatal(err)
	}
	select {
	case <-updates:
	case <-time.After(5 * time.Second):
		t.Fatal("no update before kill")
	}
	// Kill every replica except the last; whichever was serving the
	// subscription dies, and the survivor ends up primary.
	h.kill(0)
	h.kill(1)
	waitFor(t, "survivor promotion", func() bool { return h.dirs[2].Primary(0) })
	if err := writer.PutComplete(ctx, oid); err != nil {
		t.Fatalf("PutComplete after kills: %v", err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case u := <-updates:
			for _, l := range u.Locs {
				if l.Progress == types.ProgressComplete {
					return // the post-kill mutation reached the subscriber
				}
			}
		case <-deadline:
			t.Fatal("subscription not re-homed: completion update never arrived")
		}
	}
}

// TestStandaloneBackCompat checks the zero-config server still behaves as
// the unreplicated single shard (no role checks, no forwarding).
func TestStandaloneBackCompat(t *testing.T) {
	cs := startShard(t, "n1", "n2")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("standalone")
	if err := cs[0].PutStarted(ctx, oid, 10); err != nil {
		t.Fatal(err)
	}
	lease, err := cs[1].AcquireSender(ctx, oid, false)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Sender != "n1" {
		t.Fatalf("sender %s", lease.Sender)
	}
	if err := cs[1].ReleaseSender(ctx, oid, lease.Sender, true); err != nil {
		t.Fatal(err)
	}
}

// TestMutationOnBackupRedirects checks a backup bounces mutations with
// ErrNotPrimary (the raw protocol error the client's failover consumes).
func TestMutationOnBackupRedirects(t *testing.T) {
	h := startReplicaGroup(t, 2)
	waitFor(t, "initial primary", func() bool { return h.dirs[0].Primary(0) })
	ctx := ctxT(t)
	conn, err := tcpDial(ctx, h.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewClient(conn, nil)
	t.Cleanup(func() { wc.Close() })
	// The backup learns the primary's address from its first heartbeat;
	// the redirect itself must fire from the very first call.
	waitFor(t, "redirect with primary hint", func() bool {
		resp, err := wc.Call(ctx, wire.Message{
			Method: wire.MethodPutStarted,
			OID:    types.ObjectIDFromString("redirect"),
			Node:   "n1",
			Size:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(resp.ErrorOf(), types.ErrNotPrimary) {
			t.Fatalf("backup accepted a mutation: %v", resp.ErrorOf())
		}
		return string(resp.Node) == h.addrs[0]
	})
}

// TestReplicateFansOutToAllBackups holds backup 1's answer to each
// forwarded op until backup 2 has received the same op. A primary that
// forwards to one backup after another sends nothing to backup 2 while
// backup 1 is unanswered, so it can break the hold only by giving up on
// backup 1, which cancels that forward; a primary that forwards to every
// backup at once never has to.
func TestReplicateFansOutToAllBackups(t *testing.T) {
	var mu sync.Mutex
	reached := make(map[int64]chan struct{}) // closed once backup 2 has the op
	gate := func(seq int64) chan struct{} {
		mu.Lock()
		defer mu.Unlock()
		if reached[seq] == nil {
			reached[seq] = make(chan struct{})
		}
		return reached[seq]
	}
	var abandoned atomic.Int64
	h := startWrappedGroup(t, 3, func(i int, next wire.Handler) wire.Handler {
		return func(ctx context.Context, m wire.Message, p *wire.Peer) wire.Message {
			if m.Method == wire.MethodReplicate {
				switch i {
				case 1:
					select {
					case <-gate(m.Num):
					case <-ctx.Done(): // the primary gave up on this forward
						abandoned.Add(1)
					}
				case 2:
					ch := gate(m.Num)
					mu.Lock()
					select {
					case <-ch:
					default:
						close(ch)
					}
					mu.Unlock()
				}
			}
			return next(ctx, m, p)
		}
	})
	waitFor(t, "initial primary", func() bool { return h.dirs[0].Primary(0) })
	ctx := ctxT(t)
	c := h.client("n1")
	for i := 0; i < 3; i++ {
		if err := c.PutStarted(ctx, types.ObjectIDFromString(fmt.Sprintf("fanout-%d", i)), 64); err != nil {
			t.Fatalf("PutStarted %d: %v", i, err)
		}
	}
	if n := abandoned.Load(); n > 0 {
		t.Fatalf("primary abandoned %d forwards to backup 1: backup 2 got no op until backup 1 answered", n)
	}
	_, seq := h.dirs[0].ShardSeq(0)
	for _, b := range []int{1, 2} {
		if _, got := h.dirs[b].ShardSeq(0); got != seq {
			t.Fatalf("backup %d at seq %d after acknowledged ops, primary at %d", b, got, seq)
		}
	}
}

// TestPromotionAfterOnlyLaterBackupApplied covers the interleaving that
// forwarding to all backups at once makes common: the primary dies after
// the later backup in group order has applied op N but before the earlier
// one has. The later backup holds the better (epoch, seq) and must win the
// promotion, every acknowledged op must survive, and the earlier backup
// must be re-synced to the new primary's state.
func TestPromotionAfterOnlyLaterBackupApplied(t *testing.T) {
	var lost atomic.Int64 // the seq backup 1 never applies from the first primary
	h := startWrappedGroup(t, 3, func(i int, next wire.Handler) wire.Handler {
		if i != 1 {
			return next
		}
		return func(ctx context.Context, m wire.Message, p *wire.Peer) wire.Message {
			if m.Gen == 1 { // the first primary's epoch
				switch {
				case m.Method == wire.MethodReplicate && m.Num == lost.Load():
					<-ctx.Done() // held until the first primary's connection dies
					return wire.Message{Err: "test: forward lost"}
				case m.Method == wire.MethodDirSnapshot:
					// No repair from the first primary either: backup 1 must
					// reach the promotion one op behind backup 2.
					return wire.Message{Err: "test: snapshot refused"}
				}
			}
			return next(ctx, m, p)
		}
	})
	waitFor(t, "initial primary", func() bool { return h.dirs[0].Primary(0) })
	ctx := ctxT(t)
	c := h.client("n1")
	acked := make([]types.ObjectID, 3)
	for i := range acked {
		acked[i] = types.ObjectIDFromString(fmt.Sprintf("acked-%d", i))
		if err := c.PutStarted(ctx, acked[i], int64(100+i)); err != nil {
			t.Fatalf("PutStarted %d: %v", i, err)
		}
	}
	epoch, seq := h.dirs[0].ShardSeq(0)
	if epoch != 1 {
		t.Fatalf("first primary at epoch %d, want 1", epoch)
	}
	waitFor(t, "backups at the acknowledged seq", func() bool {
		_, s1 := h.dirs[1].ShardSeq(0)
		_, s2 := h.dirs[2].ShardSeq(0)
		return s1 == seq && s2 == seq
	})
	lost.Store(seq + 1)

	// Op N goes to the primary on a raw connection, so no client retries
	// it onto the successor: it is never acknowledged.
	conn, err := tcpDial(ctx, h.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewClient(conn, nil)
	t.Cleanup(func() { wc.Close() })
	last := types.ObjectIDFromString("only-later")
	call := wc.Go(wire.Message{Method: wire.MethodPutStarted, OID: last, Node: "n1", Size: 7})
	waitFor(t, "backup 2 applies op N", func() bool {
		_, s := h.dirs[2].ShardSeq(0)
		return s == seq+1
	})
	h.kill(0)
	if resp, err := call.Wait(ctx); err == nil && resp.ErrorOf() == nil {
		t.Fatal("op N acknowledged while backup 1 had not applied it")
	}

	waitFor(t, "backup 2 promotion", func() bool { return h.dirs[2].Primary(0) })
	if h.dirs[1].Primary(0) {
		t.Fatal("backup 1 promoted over backup 2, which applied more of the history")
	}
	if _, s := h.dirs[2].ShardSeq(0); s < seq+1 {
		t.Fatalf("promoted replica at seq %d, want at least %d", s, seq+1)
	}
	for i, oid := range acked {
		rec, err := c.Lookup(ctx, oid, false)
		if err != nil || rec.Size != int64(100+i) || len(rec.Locs) != 1 {
			t.Fatalf("acknowledged op %d lost after promotion: %+v err %v", i, rec, err)
		}
	}
	// Backup 1 is re-synced by the new primary and serves its state.
	sizes := map[types.ObjectID]int64{last: 7}
	for i, oid := range acked {
		sizes[oid] = int64(100 + i)
	}
	waitFor(t, "backup 1 converges on the new primary", func() bool {
		e1, s1 := h.dirs[1].ShardSeq(0)
		e2, s2 := h.dirs[2].ShardSeq(0)
		if e1 != e2 || s1 != s2 {
			return false
		}
		for oid, size := range sizes {
			resp := rawCall(t, h.addrs[1], wire.Message{Method: wire.MethodLookup, OID: oid})
			if resp.ErrorOf() != nil || resp.Size != size || len(resp.Locs) != 1 {
				return false
			}
		}
		return true
	})
}

// TestBootQueryRacesMapPush runs Start's boot query while a map push
// replaces the replica's group. With one P the boot goroutine has not run
// when the push lands, so under -race a boot query that reads the group
// without s.mu is reported.
func TestBootQueryRacesMapPush(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	boot := types.ClusterMap{Epoch: 1, NumShards: 1, DirRF: 2, ObjectRF: 1, Members: []types.Member{
		{Addr: "boot-self:1", State: types.MemberActive, ShardHost: true},
		{Addr: "boot-peer:1", State: types.MemberActive, ShardHost: true},
	}}
	s := NewReplicated(Config{
		Self:   "boot-self:1",
		Groups: boot.DeriveGroups(),
		Dial: func(context.Context, string) (net.Conn, error) {
			return nil, errors.New("unreachable")
		},
		HeartbeatInterval: testBeat,
		LeaseTimeout:      testLease,
		InitialMap:        &boot,
		RepairInterval:    -1,
	})
	t.Cleanup(s.Close)
	next := boot.Clone()
	next.Epoch = 2
	s.Start()
	s.mu.Lock()
	after := s.installMapLocked(next)
	s.mu.Unlock()
	for _, fn := range after {
		fn()
	}
	waitFor(t, "boot query", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		r := s.reps[0]
		return r != nil && r.booted
	})
}

// TestFanOutCountsAnswersPastHungPeer puts a peer that accepts
// connections but never answers (a stopped process) first in group order,
// so every group round waits on it for the full forwardTimeout before it
// reads the later peers' answers under the expired deadline. Those answers
// came in long before and must still count: the primary never marks the
// healthy backup down, and the backup, whose lease lapses while the
// primary waits on the hung peer, finds the primary's answer and never
// promotes itself past it.
func TestFanOutCountsAnswersPastHungPeer(t *testing.T) {
	h := startReplicaGroup(t, 3)
	waitFor(t, "initial primary", func() bool { return h.dirs[0].Primary(0) })
	h.kill(0)
	waitFor(t, "replica 1 promotion", func() bool { return h.dirs[1].Primary(0) })

	var ln net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for ln, err = net.Listen("tcp", h.addrs[0]); err != nil; ln, err = net.Listen("tcp", h.addrs[0]) {
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", h.addrs[0], err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var accepted atomic.Int64
	var held []net.Conn
	var heldMu sync.Mutex
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			heldMu.Lock()
			held = append(held, c) // never read, never answered
			heldMu.Unlock()
			accepted.Add(1)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		heldMu.Lock()
		defer heldMu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})

	primary, backup := h.dirs[1], h.dirs[2]
	backupDown := func() bool {
		primary.mu.Lock()
		defer primary.mu.Unlock()
		b := primary.reps[0].backups[h.addrs[2]]
		return b == nil || b.down
	}
	follows := func() bool {
		backup.mu.Lock()
		defer backup.mu.Unlock()
		return backup.reps[0].primaryAddr == h.addrs[1]
	}
	waitFor(t, "replica 2 following replica 1", func() bool { return follows() && !backupDown() })

	// Each round the primary's heartbeat and the backup's promotion
	// survey both dial the hung peer afresh, so eight accepts span several
	// of each.
	deadline = time.Now().Add(30 * time.Second)
	for accepted.Load() < 8 {
		switch {
		case time.Now().After(deadline):
			t.Fatalf("only %d rounds reached the hung peer", accepted.Load())
		case backupDown():
			t.Fatal("primary marked the answering backup down after a round that waited on the hung peer")
		case backup.Primary(0):
			t.Fatal("backup promoted itself past a live primary that answered after the hung peer")
		case !primary.Primary(0):
			t.Fatal("primary lost its primaryship")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPromotionPassesHighestSeenEpoch surveys a peer that answers as a
// backup at epoch 1 with no ops applied, from a replica at epoch 0 that
// heads the group order. Both are empty, so the index ranks them and the
// replica promotes; it must promote past the epoch the survey saw (2), not
// to its own epoch + 1 (1), which the peer's epoch already names.
func TestPromotionPassesHighestSeenEpoch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer := wire.NewServer(ln, func(_ context.Context, m wire.Message, _ *wire.Peer) wire.Message {
		return wire.Message{Gen: 1} // not primary, epoch 1, seq 0
	})
	go peer.Serve()
	t.Cleanup(func() { peer.Close() })
	self := "self:1"
	s := NewReplicated(Config{
		Self:              self,
		Groups:            [][]string{{self, ln.Addr().String()}},
		Dial:              tcpDial,
		HeartbeatInterval: testBeat,
		LeaseTimeout:      testLease,
	})
	t.Cleanup(s.Close)
	// Not started: the survey below is the only group round.
	r := s.reps[0]
	r.booted = true
	r.lastBeat = time.Now().Add(-time.Second)
	s.checkPromotion(r)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !r.primary {
		t.Fatal("the head of the group order did not promote")
	}
	if r.epoch != 2 {
		t.Fatalf("promoted to epoch %d, want 2: one past the peer's epoch 1", r.epoch)
	}
}

// TestHeartbeatInFlightOpIsNoStall holds each replicated op at the backup
// until the backup has answered one heartbeat without it, so the primary
// sees the backup one op behind at a beat, with no progress since the
// previous one. The op was forwarded after that previous beat went out,
// so it is in flight, not stalled: the primary must not push a snapshot.
func TestHeartbeatInFlightOpIsNoStall(t *testing.T) {
	var (
		mu        sync.Mutex
		beat      = make(chan struct{}) // closed and replaced by each heartbeat the backup answers
		holding   atomic.Bool
		snapshots atomic.Int64
	)
	h := startWrappedGroup(t, 2, func(i int, next wire.Handler) wire.Handler {
		if i != 1 {
			return next
		}
		return func(ctx context.Context, m wire.Message, p *wire.Peer) wire.Message {
			switch m.Method {
			case wire.MethodReplicate:
				if holding.Load() {
					mu.Lock()
					ch := beat
					mu.Unlock()
					select {
					case <-ch:
					case <-ctx.Done():
					}
				}
			case wire.MethodDirSnapshot:
				snapshots.Add(1)
			}
			resp := next(ctx, m, p)
			if m.Method == wire.MethodDirHeartbeat {
				mu.Lock()
				close(beat)
				beat = make(chan struct{})
				mu.Unlock()
			}
			return resp
		}
	})
	primary := h.dirs[0]
	inSync := func() bool {
		primary.mu.Lock()
		defer primary.mu.Unlock()
		r := primary.reps[0]
		b := r.backups[h.addrs[1]]
		return r.primary && b != nil && !b.down && !b.waiting && b.lastSeq == r.seq
	}
	waitFor(t, "the backup in sync", inSync)
	snapshots.Store(0)
	holding.Store(true)
	ctx := ctxT(t)
	c := h.client("n1")
	for i := 0; i < 5; i++ {
		if err := c.PutStarted(ctx, types.ObjectIDFromString(fmt.Sprintf("in-flight-%d", i)), 64); err != nil {
			t.Fatalf("PutStarted %d: %v", i, err)
		}
		// A heartbeat sees the backup caught up, so the next op starts
		// from a beat after which the backup makes no progress.
		waitFor(t, "a heartbeat to see the op applied", inSync)
	}
	if n := snapshots.Load(); n > 0 {
		t.Fatalf("primary pushed %d snapshots to a backup whose only missing op was in flight", n)
	}
}

// A snapshot push allocates what the shard's state is worth: pushing a
// one-entry shard must not reserve a full snapshot chunk up front.
func TestPushSnapshotAllocatesByState(t *testing.T) {
	h := startReplicaGroup(t, 1)
	ctx := ctxT(t)
	c := h.client("n1")
	waitFor(t, "primary", func() bool { return h.dirs[0].Primary(0) })
	if err := c.PutStarted(ctx, types.RandomObjectID(), 100); err != nil {
		t.Fatal(err)
	}
	// A closed listener's address: the push builds its chunks, then its
	// first call fails at the dial.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	d := h.dirs[0]
	d.mu.Lock()
	r := d.reps[0]
	d.mu.Unlock()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d.pushSnapshot(r, dead)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 256<<10 {
		t.Fatalf("pushing a one-entry shard allocated %d KiB, want < 256 KiB", n>>10)
	}
}
