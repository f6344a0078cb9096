package hoplite

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"hoplite/internal/core"
	"hoplite/internal/netem"
	"hoplite/internal/types"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func startCluster(t *testing.T, n int, opts Options) *Cluster {
	t.Helper()
	c, err := StartLocalCluster(n, opts)
	if err != nil {
		t.Fatalf("StartLocalCluster(%d): %v", n, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitLeasesReturned checks lease conservation once transfers quiesce:
// every sender lease a Get was granted has been returned, as recorded by
// the directory replica on every node but the dead ones (killed or closed
// nodes, whose replicas stopped applying updates).
func waitLeasesReturned(t *testing.T, c *Cluster, dead ...int) {
	t.Helper()
	waitCond(t, "every sender lease to be returned", func() bool {
		for i, n := range c.Nodes() {
			if n != nil && !slices.Contains(dead, i) && n.ShardServer().Stats().Leases != 0 {
				return false
			}
		}
		return true
	})
}

func payload(size int, seed byte) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestPutGetLarge(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	data := payload(1<<20, 3)
	oid := ObjectIDFromString("large-1")
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := c.Node(1).Get(ctx, oid)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("payload mismatch: got %d bytes", len(got))
	}
}

func TestPutGetSmallInline(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	data := payload(1024, 9) // below 64 KB: directory fast path
	oid := ObjectIDFromString("small-1")
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := c.Node(1).Get(ctx, oid)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload mismatch")
	}
}

func TestGetBeforePut(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	oid := ObjectIDFromString("future-1")
	data := payload(256<<10, 5)
	done := make(chan error, 1)
	go func() {
		got, err := c.Node(1).Get(ctx, oid)
		if err == nil && !bytes.Equal(got, data) {
			err = errors.New("payload mismatch")
		}
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // receiver blocks first
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Get-before-Put: %v", err)
	}
}

func TestBroadcastAllNodes(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 8, Options{})
	data := payload(2<<20, 1)
	oid := ObjectIDFromString("bcast-1")
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, c.Size())
	for i := 1; i < c.Size(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := c.Node(i).Get(ctx, oid)
			if err != nil {
				errs <- fmt.Errorf("node %d: %w", i, err)
				return
			}
			if !bytes.Equal(got, data) {
				errs <- fmt.Errorf("node %d: payload mismatch", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestReduceSum(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{})
	const elems = 64 << 10 // 256 KB of f32
	sources := make([]ObjectID, c.Size())
	want := make([]float32, elems)
	for i := range sources {
		xs := make([]float32, elems)
		for j := range xs {
			xs[j] = float32(i + j%13)
			want[j] += xs[j]
		}
		sources[i] = ObjectIDFromString(fmt.Sprintf("red-src-%d", i))
		if err := c.Node(i).Put(ctx, sources[i], types.EncodeF32(xs)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	target := ObjectIDFromString("red-out")
	used, err := c.Node(0).Reduce(ctx, target, sources, len(sources), SumF32)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if len(used) != len(sources) {
		t.Fatalf("used %d sources, want %d", len(used), len(sources))
	}
	raw, err := c.Node(0).Get(ctx, target)
	if err != nil {
		t.Fatalf("Get result: %v", err)
	}
	got := types.DecodeF32(raw)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("elem %d: got %v want %v", j, got[j], want[j])
		}
	}
}

func TestAllReduce(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{})
	const elems = 32 << 10
	sources := make([]ObjectID, c.Size())
	var want float64
	for i := range sources {
		xs := make([]float32, elems)
		for j := range xs {
			xs[j] = float32(i)
		}
		want += float64(i)
		sources[i] = ObjectIDFromString(fmt.Sprintf("ar-src-%d", i))
		if err := c.Node(i).Put(ctx, sources[i], types.EncodeF32(xs)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	target := ObjectIDFromString("ar-out")
	if _, err := c.AllReduce(ctx, 0, target, sources, len(sources), SumF32); err != nil {
		t.Fatalf("AllReduce: %v", err)
	}
	for i := 0; i < c.Size(); i++ {
		raw, err := c.Node(i).GetImmutable(ctx, target)
		if err != nil {
			t.Fatalf("node %d GetImmutable: %v", i, err)
		}
		got := types.DecodeF32(raw)
		if float64(got[0]) != want || float64(got[elems-1]) != want {
			t.Fatalf("node %d: got %v want %v", i, got[0], want)
		}
	}
}

func TestDelete(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 3, Options{})
	oid := ObjectIDFromString("del-1")
	data := payload(1<<20, 2)
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := c.Node(2).Get(ctx, oid); err != nil {
		t.Fatalf("Get: %v", err)
	}
	if err := c.Node(1).Delete(ctx, oid); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	sctx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	if _, err := c.Node(1).Get(sctx, oid); err == nil {
		t.Fatal("Get after Delete succeeded")
	}
}

// TestDeleteEvictsPastDeadHolder deletes an object held on four nodes, one
// of them dead and one behind a slow link. The dead holder must not keep
// the live copies in place, and every holder must be sent its eviction
// before any answer is awaited: the holders after the slow one in the
// directory's order lose their copies while the slow one's eviction is
// still on the wire. A Delete that waited on each holder in turn would
// reach them only after the slow one had answered.
func TestDeleteEvictsPastDeadHolder(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 5, Options{Emulate: slowEmu()})
	oid := oidOnShard(t, "del-dead", c.Size(), 0)
	if err := c.Node(0).Put(ctx, oid, payload(256<<10, 3)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	holders := []int{0, 1, 2, 3}
	for _, i := range holders[1:] {
		if _, err := c.Node(i).Get(ctx, oid); err != nil {
			t.Fatalf("node %d Get: %v", i, err)
		}
	}
	for _, i := range holders {
		if !c.Node(i).Store().Contains(oid) {
			t.Fatalf("node %d holds no copy before the Delete", i)
		}
	}
	if err := c.KillNode(2); err != nil {
		t.Fatal(err)
	}
	// Slow the deleter's link to the first live holder it will evict.
	rec, err := c.Node(4).Directory().Lookup(ctx, oid, false)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	slow := -1
	var fast []int
	for _, loc := range rec.Locs {
		i := slices.IndexFunc(c.Nodes(), func(n *core.Node) bool { return n.ID() == loc.Node })
		switch {
		case i == 2 || i < 0:
		case slow < 0:
			slow = i
		default:
			fast = append(fast, i)
		}
	}
	if slow < 0 || len(fast) != 2 {
		t.Fatalf("directory lists %+v, want the three live holders", rec.Locs)
	}
	if err := c.SetPairLink(4, slow, netem.LinkConfig{Latency: 500 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The dead holder's failed eviction may be reported; the test is
		// about the others.
		_ = c.Node(4).Delete(ctx, oid)
	}()
	waitCond(t, "the holders after the slow one to drop their copies", func() bool {
		return !c.Node(fast[0]).Store().Contains(oid) && !c.Node(fast[1]).Store().Contains(oid)
	})
	if !c.Node(slow).Store().Contains(oid) {
		t.Fatalf("node %d dropped its copy before the holders after it: the evictions went out one at a time", slow)
	}
	<-done
	if c.Node(slow).Store().Contains(oid) {
		t.Fatalf("node %d still holds its copy after the Delete", slow)
	}
}
