package hoplite

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"hoplite/internal/types"
	"hoplite/internal/wire"
)

// waitCond polls cond until it holds or the deadline passes.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// completeHolders returns the nodes holding a full copy of oid, per the
// directory record read through node q.
func completeHolders(ctx context.Context, t *testing.T, c *Cluster, q int, oid ObjectID) []types.NodeID {
	t.Helper()
	rec, err := c.Node(q).Directory().Lookup(ctx, oid, false)
	if err != nil {
		t.Fatalf("Lookup %v: %v", oid, err)
	}
	var holders []types.NodeID
	for _, l := range rec.Locs {
		if l.Progress.HasAll() {
			holders = append(holders, l.Node)
		}
	}
	return holders
}

// TestJoinMidStripedGet scales the cluster out while a striped Get is in
// flight: the transfer must complete with exact bytes, and the joiner must
// end up hosting rebalanced directory shard replicas and serving Gets.
func TestJoinMidStripedGet(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 3, Options{Emulate: slowEmu()})
	data := payload(8<<20, 11)
	oid := ObjectIDFromString("join-mid-get")
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// A second complete copy so the striped pull has two sources.
	if _, err := c.Node(1).Get(ctx, oid); err != nil {
		t.Fatalf("warm copy Get: %v", err)
	}

	done := make(chan error, 1)
	var got []byte
	go func() {
		var err error
		got, err = c.Node(2).Get(ctx, oid)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the pull get going

	idx, err := c.AddNode(false)
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Get concurrent with join: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload mismatch for Get concurrent with join")
	}

	joiner := c.Node(idx)
	if cm := joiner.ClusterMap(); cm.Epoch < 2 {
		t.Fatalf("joiner map epoch = %d, want >= 2", cm.Epoch)
	}
	// The rebalance must hand the new shard host real replicas.
	waitCond(t, "joiner hosts shard replicas", func() bool {
		return joiner.ShardServer().HostedReplicas() > 0
	})
	jgot, err := joiner.Get(ctx, oid)
	if err != nil {
		t.Fatalf("joiner Get: %v", err)
	}
	if !bytes.Equal(jgot, data) {
		t.Fatal("joiner payload mismatch")
	}
}

// TestDrainSoleCopyHolderMidGet gracefully drains the node holding the
// only complete copy while another node is pulling it. The drain must
// evacuate the sole copy before the holder leaves, and both the in-flight
// and post-drain Gets must see exact bytes.
func TestDrainSoleCopyHolderMidGet(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 3, Options{Emulate: slowEmu()})
	data := payload(6<<20, 12)
	oid := ObjectIDFromString("drain-sole-copy")
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}

	done := make(chan error, 1)
	var got []byte
	go func() {
		var err error
		got, err = c.Node(1).Get(ctx, oid)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)

	// Blocks until node 0's shards are handed off and its sole copies
	// (including oid, unless the Get above already registered a second
	// copy) are evacuated.
	if err := c.DrainNode(ctx, 0); err != nil {
		t.Fatalf("DrainNode: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Get concurrent with drain: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload mismatch for Get concurrent with drain")
	}

	cm := c.Node(2).ClusterMap()
	if cm.MemberIndex(types.NodeID(c.Node(2).Addr())) < 0 || len(cm.Members) != 2 {
		t.Fatalf("post-drain map has %d members", len(cm.Members))
	}
	// The object must have survived its sole holder leaving.
	got2, err := c.Node(2).Get(ctx, oid)
	if err != nil {
		t.Fatalf("Get after drain: %v", err)
	}
	if !bytes.Equal(got2, data) {
		t.Fatal("payload mismatch after drain")
	}
}

// TestDeclareDeadRestoresReplication kills a copy holder permanently and
// checks the repair scanner re-creates the lost copy on a surviving node,
// restoring the ObjectReplication target.
func TestDeclareDeadRestoresReplication(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{
		Emulate:           slowEmu(),
		ObjectReplication: 2,
		Node:              Config{RepairInterval: 50 * time.Millisecond},
	})
	data := payload(2<<20, 13)
	oid := ObjectIDFromString("repair-after-death")
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// The scanner proactively replicates up to the target.
	waitCond(t, "object reaches replication 2", func() bool {
		return len(completeHolders(ctx, t, c, 0, oid)) >= 2
	})

	// Kill one holder that is not node 0 (our query client); with RF 2
	// and the origin holding a copy there is exactly one such node.
	var victim int
	for _, h := range completeHolders(ctx, t, c, 0, oid) {
		for i := 1; i < c.Size(); i++ {
			if c.Node(i) != nil && c.Node(i).ID() == h {
				victim = i
			}
		}
	}
	if victim == 0 {
		t.Fatal("no killable holder found")
	}
	deadID := c.Node(victim).ID()
	if err := c.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareDead(ctx, victim); err != nil {
		t.Fatalf("DeclareDead: %v", err)
	}

	// Repair must restore two complete copies on surviving nodes.
	waitCond(t, "replication restored after node loss", func() bool {
		live := 0
		for _, h := range completeHolders(ctx, t, c, 0, oid) {
			if h != deadID {
				live++
			}
		}
		return live >= 2
	})
	got, err := c.Node(0).Get(ctx, oid)
	if err != nil {
		t.Fatalf("Get after repair: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload mismatch after repair")
	}
	waitCond(t, "under-replication drains to zero", func() bool {
		u, err := c.Node(0).Directory().UnderReplicated(ctx)
		return err == nil && u == 0
	})
}

// TestJoinDuringShardResync restarts a former shard host (which comes back
// as an out-of-sync backup being snapshot-synced) and joins a brand-new
// node while that resync is in flight. Both must converge: the joiner
// hosts replicas, and every object stays readable.
func TestJoinDuringShardResync(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 3, Options{Emulate: slowEmu()})
	var oids []ObjectID
	for i := 0; i < 6; i++ {
		oid := ObjectIDFromString(fmt.Sprintf("resync-join-%d", i))
		if err := c.Node(0).Put(ctx, oid, payload(64<<10, byte(i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		oids = append(oids, oid)
	}

	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(1); err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	// Join while node 1 is still resyncing its shard replicas.
	idx, err := c.AddNode(false)
	if err != nil {
		t.Fatalf("AddNode during resync: %v", err)
	}

	waitCond(t, "joiner hosts shard replicas", func() bool {
		return c.Node(idx).ShardServer().HostedReplicas() > 0
	})
	// All nodes converge on the post-join epoch.
	waitCond(t, "epochs converge", func() bool {
		want := c.Node(0).ClusterMap().Epoch
		if want < 2 {
			return false
		}
		for _, n := range c.Nodes() {
			if n != nil && n.ClusterMap().Epoch != want {
				return false
			}
		}
		return true
	})
	for i, oid := range oids {
		got, err := c.Node(2).Get(ctx, oid)
		if err != nil {
			t.Fatalf("Get %d after resync+join: %v", i, err)
		}
		if !bytes.Equal(got, payload(64<<10, byte(i))) {
			t.Fatalf("payload %d mismatch after resync+join", i)
		}
	}
}

// TestPeerCtrlStaleEpochBounce checks the peer control plane's epoch gate:
// after the map advances, a request stamped with the old epoch is bounced
// with ErrStaleMap and the current encoded map, while unstamped and
// current-epoch requests pass.
func TestPeerCtrlStaleEpochBounce(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{}) // plain TCP so we can dial raw
	if _, err := c.AddNode(true); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	waitCond(t, "node 0 installs the post-join map", func() bool {
		return c.Node(0).ClusterMap().Epoch >= 2
	})
	cur := c.Node(0).ClusterMap().Epoch

	conn, err := net.Dial("tcp", c.Node(0).Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0xC1}); err != nil { // control-plane select byte
		t.Fatal(err)
	}
	wc := wire.NewClient(conn, nil)
	defer wc.Close()

	cases := []struct {
		name  string
		m     wire.Message
		stale bool
	}{
		{"unstamped ping", wire.Message{Method: wire.MethodPing}, false},
		{"current ping", wire.Message{Method: wire.MethodPing, Epoch: cur}, false},
		{"stale ping", wire.Message{Method: wire.MethodPing, Epoch: 1}, true},
		{"stale directory lookup", wire.Message{
			Method: wire.MethodLookup, OID: types.ObjectIDFromString("x"), Epoch: 1,
		}, true},
	}
	for _, tc := range cases {
		resp, err := wc.Call(ctx, tc.m)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := errors.Is(resp.ErrorOf(), types.ErrStaleMap)
		if got != tc.stale {
			t.Fatalf("%s: stale bounce = %v, want %v (err %q)", tc.name, got, tc.stale, resp.Err)
		}
		if tc.stale {
			cm, derr := types.DecodeClusterMap(resp.Payload)
			if derr != nil || cm.Epoch != cur {
				t.Fatalf("%s: bounce map epoch %d err %v, want %d", tc.name, cm.Epoch, derr, cur)
			}
		}
	}
}
