package hoplite

// Directory shard fault tests: every scenario kills the node hosting a
// shard's primary replica mid-workload and asserts the workload completes
// through the promoted backup — the kill-anything story PR 2–4 built for
// the data plane, extended to the metadata plane.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hoplite/internal/types"
)

// shardPrimary returns the node index hosting shard s's initial primary
// (replica groups start at the shard's own index).
func shardPrimary(s int) int { return s }

// TestShardPrimaryKillMidGet kills the directory shard primary while a
// large Get is streaming: the transfer itself rides the data plane, and
// the directory ops bracketing it (release, completion) must fail over to
// the promoted backup.
func TestShardPrimaryKillMidGet(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 5, Options{Emulate: slowEmu()})
	data := payload(8<<20, 21)
	// Shard 3's replica group is nodes 3, 4, 0; node 3 is neither the
	// sender (0) nor the receiver (1), so killing it hits only metadata.
	oid := oidOnShard(t, "skill-get", c.Size(), 3)
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
	time.Sleep(60 * time.Millisecond) // mid-transfer at 32 MB/s
	if err := c.KillNode(shardPrimary(3)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Get across primary kill: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload mismatch")
	}
	// The shard stays fully writable through the promoted backup.
	oid2 := oidOnShard(t, "skill-get2", c.Size(), 3)
	if err := c.Node(2).Put(ctx, oid2, data); err != nil {
		t.Fatalf("Put on shard after primary kill: %v", err)
	}
	got2, err := c.Node(4).Get(ctx, oid2)
	if err != nil {
		t.Fatalf("Get on shard after primary kill: %v", err)
	}
	if !bytes.Equal(got2, data) {
		t.Fatal("post-kill payload mismatch")
	}
}

// TestShardPrimaryKillMidStripedGet kills the shard primary while a
// striped multi-source Get is draining ranges from three senders: the
// per-sender lease releases and the striped completion report must land
// on the promoted backup, and every byte must arrive.
func TestShardPrimaryKillMidStripedGet(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 5, Options{
		Emulate: slowEmu(),
		Node:    Config{StripeThreshold: 1 << 20, MaxSources: 4},
	})
	data := payload(16<<20, 22)
	// Shard 4's group is nodes 4, 0, 1: node 4 is not among the senders
	// (0, 1, 2) or the receiver (3)... node 0 and 1 are senders AND
	// backups, which is exactly the point: metadata failover must not
	// disturb their data-plane serving.
	oid := oidOnShard(t, "skill-stripe", c.Size(), 4)
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	for i := 1; i <= 2; i++ {
		if _, err := c.Node(i).Get(ctx, oid); err != nil {
			t.Fatalf("warm Get node%d: %v", i, err)
		}
	}
	// Wait until the directory records three complete copies so the
	// striped acquire leases all of them.
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec, err := c.Node(3).Directory().Lookup(ctx, oid, false)
		if err != nil {
			t.Fatalf("Lookup: %v", err)
		}
		complete := 0
		for _, l := range rec.Locs {
			if l.Progress == types.ProgressComplete {
				complete++
			}
		}
		if complete >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw 3 complete copies: %+v", rec.Locs)
		}
		time.Sleep(10 * time.Millisecond)
	}
	done := make(chan error, 1)
	var got []byte
	go func() {
		var err error
		got, err = c.Node(3).Get(ctx, oid)
		done <- err
	}()
	time.Sleep(60 * time.Millisecond)
	if err := c.KillNode(shardPrimary(4)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("striped Get across primary kill: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("striped payload mismatch")
	}
}

// TestShardPrimaryKillMidReduce kills the primary of the shard holding
// the reduce target's metadata while the tree reduce is streaming. The
// intermediate slot outputs have no directory record to lose: each parent
// pulls them straight from the child's host. The coordinator's watches
// re-home to a live replica and the reduce completes with the exact fold.
func TestShardPrimaryKillMidReduce(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 5, Options{Emulate: slowEmu()})
	const elems = 1 << 20 // 4 MB per source
	sources := make([]ObjectID, 3)
	want := 0.0
	for i := range sources {
		sources[i] = oidOnShard(t, fmt.Sprintf("skill-reduce-src-%d", i), c.Size(), i)
		vals := make([]float32, elems)
		for j := range vals {
			vals[j] = float32(i + 1)
		}
		want += float64(i + 1)
		if err := c.Node(i+1).Put(ctx, sources[i], types.EncodeF32(vals)); err != nil {
			t.Fatalf("Put source %d: %v", i, err)
		}
	}
	// Target metadata on shard 4, whose primary node 4 hosts no source and
	// is not the coordinator.
	target := oidOnShard(t, "skill-reduce-target", c.Size(), 4)
	done := make(chan error, 1)
	go func() {
		_, err := c.Node(0).Reduce(ctx, target, sources, len(sources), SumF32)
		done <- err
	}()
	time.Sleep(80 * time.Millisecond) // tree assigned, blocks streaming
	if err := c.KillNode(shardPrimary(4)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Reduce across primary kill: %v", err)
	}
	raw, err := c.Node(0).Get(ctx, target)
	if err != nil {
		t.Fatalf("Get result: %v", err)
	}
	got := types.DecodeF32(raw)
	if float64(got[0]) != want || float64(got[elems-1]) != want {
		t.Fatalf("reduce result %v, want %v", got[0], want)
	}
}

// TestShardPrimaryKillNoDoubleLease kills the primary under a burst of
// concurrent Gets of one object with a single complete copy: across the
// failover every transfer must complete (a double-leased sender would
// wedge one receiver behind a lease nobody returns).
func TestShardPrimaryKillNoDoubleLease(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 5, Options{Emulate: slowEmu()})
	data := payload(4<<20, 23)
	oid := oidOnShard(t, "skill-lease", c.Size(), 2)
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	errs := make(chan error, 3)
	for _, i := range []int{1, 3, 4} {
		go func(i int) {
			got, err := c.Node(i).Get(ctx, oid)
			if err == nil && !bytes.Equal(got, data) {
				err = fmt.Errorf("node %d payload mismatch", i)
			}
			errs <- err
		}(i)
	}
	time.Sleep(40 * time.Millisecond)
	if err := c.KillNode(shardPrimary(2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("Get under primary kill: %v", err)
		}
	}
}

// TestRestartNodeFailureLeavesClusterUsable forces core.NewNode to fail
// during a restart (the spill directory path is occupied by a regular
// file) and checks the failure is surfaced, the slot is left empty but
// harmless, and a later retry succeeds.
func TestRestartNodeFailureLeavesClusterUsable(t *testing.T) {
	ctx := testCtx(t)
	spillRoot := t.TempDir()
	c := startCluster(t, 3, Options{Emulate: slowEmu(), SpillDir: spillRoot})
	data := payload(2<<20, 24)
	oid := oidOnShard(t, "restart-fail", c.Size(), 0)
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	// Occupy node-2's spill directory with a file: spill.Open must fail.
	nodeDir := filepath.Join(spillRoot, "node-2")
	if err := os.RemoveAll(nodeDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(nodeDir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(2); err == nil {
		t.Fatal("RestartNode succeeded with an unopenable spill dir")
	}
	if c.Node(2) != nil {
		t.Fatal("failed restart left a dead node in the slot")
	}
	// The rest of the cluster is unaffected.
	if got, err := c.Node(1).Get(ctx, oid); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cluster unusable after failed restart: %v", err)
	}
	// Clear the obstruction; the retry must fully rejoin the node.
	if err := os.Remove(nodeDir); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(2); err != nil {
		t.Fatalf("RestartNode retry: %v", err)
	}
	got, err := c.Node(2).Get(ctx, oid)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("restarted node Get: %v", err)
	}
}

// TestShardPrimaryKillThenRestart exercises the full cycle: kill a shard
// primary, work through the promoted backup, restart the old primary,
// and verify it rejoins as a serving replica (snapshot resync) that can
// take the shard over again when the interim primary dies.
func TestShardPrimaryKillThenRestart(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 3, Options{Emulate: slowEmu()})
	data := payload(1<<20, 25)
	oid := oidOnShard(t, "cycle", c.Size(), 0)
	if err := c.Node(1).Put(ctx, oid, data); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(0); err != nil {
		t.Fatal(err)
	}
	// Shard 0 promotes node 1; shards 1 and 2 lose a backup only.
	oid2 := oidOnShard(t, "cycle2", c.Size(), 0)
	if err := c.Node(1).Put(ctx, oid2, data); err != nil {
		t.Fatalf("Put after kill: %v", err)
	}
	if err := c.RestartNode(0); err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	if got, err := c.Node(0).Get(ctx, oid2); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("restarted ex-primary Get: %v", err)
	}
	// Kill the interim primary: the restarted, resynced ex-primary must
	// take shard 0 back and serve its (post-restart) state. Give the
	// resync a moment to complete first.
	time.Sleep(500 * time.Millisecond)
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	oid3 := oidOnShard(t, "cycle3", c.Size(), 0)
	if err := c.Node(2).Put(ctx, oid3, data); err != nil {
		t.Fatalf("Put after second kill: %v", err)
	}
	if got, err := c.Node(0).Get(ctx, oid3); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get after shard handback: %v", err)
	}
}
