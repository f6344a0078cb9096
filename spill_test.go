package hoplite

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"hoplite/internal/netem"
	"hoplite/internal/types"
)

// waitProgress polls the directory until node's location for oid reaches
// the given progress flavor (location publishes are asynchronous).
func waitProgress(t *testing.T, ctx context.Context, c *Cluster, oid ObjectID, node types.NodeID, want types.Progress) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec, err := c.Node(0).Directory().Lookup(ctx, oid, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range rec.Locs {
			if l.Node == node && l.Progress == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %v never reached %v; locations %v", node, want, rec.Locs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOutOfCoreSpill runs the workload class the spill tier exists for:
// aggregate object bytes 4x the per-node memory budget. Producing demotes
// cold pinned objects to disk instead of blocking; consuming cycles
// remote replicas through the consumer's own spill tier; everything stays
// readable, and the producer's memory stays under its limit.
func TestOutOfCoreSpill(t *testing.T) {
	ctx := testCtx(t)
	const (
		memLimit = 1 << 20
		objSize  = 256 << 10
		objects  = 16 // 4 MB aggregate = 4x the limit
	)
	c := startCluster(t, 2, Options{MemoryLimit: memLimit, SpillDir: t.TempDir()})
	oids := make([]ObjectID, objects)
	for i := range oids {
		oids[i] = ObjectIDFromString(fmt.Sprintf("ooc-%d", i))
		if err := c.Node(0).Put(ctx, oids[i], payload(objSize, byte(i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if used := c.Node(0).Store().Used(); used > memLimit {
		t.Fatalf("producer memory %d exceeds limit %d", used, memLimit)
	}
	if c.Node(0).Store().Demotions() == 0 || c.Node(0).Spill().Len() == 0 {
		t.Fatalf("no demotions (%d) / spilled objects (%d) for a 4x working set",
			c.Node(0).Store().Demotions(), c.Node(0).Spill().Len())
	}
	// Consume everything from the other node: its 1 MB store cycles the
	// 4 MB of replicas through its own spill tier.
	for i, oid := range oids {
		got, err := c.Node(1).Get(ctx, oid)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, payload(objSize, byte(i))) {
			t.Fatalf("object %d corrupted through the spill cycle", i)
		}
	}
	// Local restore path: the producer re-reads an object it demoted.
	got, err := c.Node(0).Get(ctx, oids[0])
	if err != nil {
		t.Fatalf("restore get: %v", err)
	}
	if !bytes.Equal(got, payload(objSize, 0)) {
		t.Fatal("restored object corrupted")
	}
}

// TestBackpressureWithoutSpill: same out-of-core pressure with spill
// disabled must turn into admission backpressure — the Put blocks under
// its ctx instead of failing or overshooting — and a blocked Put rides
// through when room appears.
func TestBackpressureWithoutSpill(t *testing.T) {
	ctx := testCtx(t)
	const memLimit = 1 << 20
	c := startCluster(t, 1, Options{MemoryLimit: memLimit})
	n := c.Node(0)
	a, b := ObjectIDFromString("bp-a"), ObjectIDFromString("bp-b")
	if err := n.Put(ctx, a, payload(512<<10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := n.Put(ctx, b, payload(512<<10, 2)); err != nil {
		t.Fatal(err)
	}
	// The store is full of pinned objects and there is no spill tier:
	// the next Put must block, not error.
	short, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
	defer cancel()
	err := n.Put(short, ObjectIDFromString("bp-c"), payload(512<<10, 3))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("over-limit Put = %v, want ctx deadline (blocked)", err)
	}
	if used := n.Store().Used(); used > memLimit {
		t.Fatalf("memory %d overshot the limit", used)
	}
	// Freeing room unblocks a waiting producer.
	done := make(chan error, 1)
	go func() {
		done <- n.Put(ctx, ObjectIDFromString("bp-d"), payload(512<<10, 4))
	}()
	time.Sleep(50 * time.Millisecond)
	if err := n.Delete(ctx, a); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Put after room appeared: %v", err)
	}
}

// TestStripedGetWithSpilledSender: the striping planner leases a
// disk-backed sender alongside in-memory ones, and the spilled copy
// serves its ranges straight off the spill file. The in-memory holders'
// links to the receiver are slow, so they cannot drain the object before
// the spilled sender claims its first chunk.
func TestStripedGetWithSpilledSender(t *testing.T) {
	ctx := testCtx(t)
	const objSize = 1 << 20
	c := startCluster(t, 4, Options{
		Emulate:     &netem.LinkConfig{},
		MemoryLimit: 1536 << 10,
		SpillDir:    t.TempDir(),
		Node:        Config{StripeThreshold: 256 << 10, MaxSources: 3},
	})
	oid := ObjectIDFromString("striped-spill")
	want := payload(objSize, 7)
	if err := c.Node(0).Put(ctx, oid, want); err != nil {
		t.Fatal(err)
	}
	// Warm complete copies on nodes 1 and 2. A Get returns as soon as the
	// bytes are local; wait until each copy's completion has actually been
	// published (the publish is asynchronous) before applying pressure,
	// or the late PutComplete would overwrite the Spilled downgrade.
	for _, i := range []int{1, 2} {
		if _, err := c.Node(i).Get(ctx, oid); err != nil {
			t.Fatal(err)
		}
		waitProgress(t, ctx, c, oid, c.Node(i).ID(), types.ProgressComplete)
	}
	// Pressure node 2 into demoting its copy (the only unpinned object).
	if err := c.Node(2).Put(ctx, ObjectIDFromString("filler"), payload(768<<10, 9)); err != nil {
		t.Fatal(err)
	}
	waitProgress(t, ctx, c, oid, c.Node(2).ID(), types.ProgressSpilled)
	// A third of the object at 4 MiB/s takes about 80 ms per in-memory
	// sender: far longer than it takes the spilled sender to start.
	for _, i := range []int{0, 1} {
		if err := c.SetPairLink(i, 3, netem.LinkConfig{BytesPerSec: 4 << 20}); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Node(2).DataStats()
	got, err := c.Node(3).Get(ctx, oid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("striped get with disk-backed sender corrupted the object")
	}
	after := c.Node(2).DataStats()
	if after.RangedPulls == before.RangedPulls {
		t.Fatalf("spilled sender served no ranged pulls (stats %+v)", after)
	}
	waitLeasesReturned(t, c)
}

// TestRestartRediscoversSpill: a restarted worker rescans its spill
// directory and re-offers the objects it demoted in its previous life —
// even after the directory purged every location it used to hold.
func TestRestartRediscoversSpill(t *testing.T) {
	ctx := testCtx(t)
	dir := t.TempDir()
	c := startCluster(t, 3, Options{
		Emulate:     &netem.LinkConfig{Latency: 200 * time.Microsecond, BytesPerSec: 1e9},
		ShardNodes:  1,
		MemoryLimit: 1 << 20,
		SpillDir:    dir,
	})
	oidA := ObjectIDFromString("restart-a")
	wantA := payload(600<<10, 5)
	if err := c.Node(2).Put(ctx, oidA, wantA); err != nil {
		t.Fatal(err)
	}
	// A second Put crosses the high watermark and demotes A to disk.
	if err := c.Node(2).Put(ctx, ObjectIDFromString("restart-b"), payload(600<<10, 6)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Node(2).Spill().Contains(oidA); !ok {
		t.Fatal("object A was not demoted to the spill tier")
	}
	oldID := c.Node(2).ID()
	if err := c.KillNode(2); err != nil {
		t.Fatal(err)
	}
	// The framework notices the death and purges every location the dead
	// node held — A now has no locations at all.
	if err := c.Node(0).Directory().PurgeNode(ctx, oldID); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(2); err != nil {
		t.Fatal(err)
	}
	// The restarted node (same name, same spill subdirectory) re-offers
	// A from disk; the waiting Get unblocks when the registration lands.
	getCtx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	got, err := c.Node(0).Get(getCtx, oidA)
	if err != nil {
		t.Fatalf("get after restart: %v", err)
	}
	if !bytes.Equal(got, wantA) {
		t.Fatal("rediscovered object corrupted")
	}
}

// TestRestoreUnderEvictionPressure cycles a working set 4x the memory
// budget through Get/GetRef: every restore demotes colder objects, and
// every payload must come back intact whichever tier it was in.
func TestRestoreUnderEvictionPressure(t *testing.T) {
	ctx := testCtx(t)
	const (
		memLimit = 1 << 20
		objSize  = 256 << 10
		objects  = 16
	)
	c := startCluster(t, 1, Options{MemoryLimit: memLimit, SpillDir: t.TempDir()})
	n := c.Node(0)
	oids := make([]ObjectID, objects)
	for i := range oids {
		oids[i] = ObjectIDFromString(fmt.Sprintf("cycle-%d", i))
		if err := n.Put(ctx, oids[i], payload(objSize, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Two passes in opposite orders so every pass hits mostly-spilled
	// objects; odd indexes use the pinned zero-copy handle path.
	for pass := 0; pass < 2; pass++ {
		for j := 0; j < objects; j++ {
			i := j
			if pass == 1 {
				i = objects - 1 - j
			}
			want := payload(objSize, byte(i))
			if i%2 == 1 {
				ref, err := n.GetRef(ctx, oids[i])
				if err != nil {
					t.Fatalf("pass %d getref %d: %v", pass, i, err)
				}
				if !bytes.Equal(ref.Bytes(), want) {
					t.Fatalf("pass %d object %d corrupted (ref)", pass, i)
				}
				ref.Release()
			} else {
				got, err := n.Get(ctx, oids[i])
				if err != nil {
					t.Fatalf("pass %d get %d: %v", pass, i, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("pass %d object %d corrupted", pass, i)
				}
			}
		}
	}
	if n.Store().Demotions() == 0 {
		t.Fatal("no demotions under a 4x working set")
	}
	waitLeasesReturned(t, c)
}
