package hoplite

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hoplite/internal/netem"
	"hoplite/internal/types"
)

// TestPutDirectoryCalls counts the directory RPCs of warm 1 MiB Puts,
// summed over every node's directory client. A Put copies and seals its
// payload locally and then registers a complete copy in one write, so a
// Put costs one call, and so does an idempotent re-put of a complete
// local copy.
func TestPutDirectoryCalls(t *testing.T) {
	const (
		nodes  = 3
		size   = 1 << 20
		rounds = 4
	)
	ctx := testCtx(t)
	c := startCluster(t, nodes, Options{})
	calls := func() int64 {
		var sum int64
		for _, n := range c.Nodes() {
			sum += n.Directory().Stats().Calls
		}
		return sum
	}
	data := payload(size, 3)
	oids := make([][]ObjectID, rounds+1)
	put := func(r int) {
		for i := 0; i < nodes; i++ {
			oid := RandomObjectID()
			if err := c.Node(i).Put(ctx, oid, data); err != nil {
				t.Fatalf("round %d node %d Put: %v", r, i, err)
			}
			oids[r] = append(oids[r], oid)
		}
	}
	put(0) // dials every node's connection to every shard once
	before := calls()
	for r := 1; r <= rounds; r++ {
		put(r)
	}
	puts := int64(rounds * nodes)
	if got := calls() - before; got != puts {
		t.Fatalf("%d directory RPCs for %d Puts, want 1 per Put", got, puts)
	}
	before = calls()
	for r := 1; r <= rounds; r++ {
		for i, oid := range oids[r] {
			if err := c.Node(i).Put(ctx, oid, data); err != nil {
				t.Fatalf("re-put %v on node %d: %v", oid, i, err)
			}
		}
	}
	if got := calls() - before; got != puts {
		t.Fatalf("%d directory RPCs for %d re-puts, want 1 per re-put", got, puts)
	}
}

// TestPutRacesDelete checks that a Put linearizes at its one directory
// write. Shard 1's replica group is nodes 1-3, so node 0's write to the
// primary can be delayed on its own link.
//   - A Delete that lands after the write deletes the object for good:
//     every node's Get fails with ErrDeleted.
//   - A Delete that lands after the Put's local copy but before its write
//     is overtaken: the write re-creates the object and every node reads
//     the Put's bytes.
//   - A concurrent Put and Delete, on another node or the putter itself,
//     both succeed and agree with one of those two orders on every node.
func TestPutRacesDelete(t *testing.T) {
	const (
		nodes = 4
		shard = 1
		delay = 200 * time.Millisecond
	)
	ctx := testCtx(t)
	c := startCluster(t, nodes, Options{Emulate: &netem.LinkConfig{}})
	// outcome reads oid from every node and checks that all agree: the
	// Put's bytes, or ErrDeleted with no copy left anywhere.
	outcome := func(label string, oid ObjectID, data []byte) (deleted bool) {
		t.Helper()
		for i := 0; i < nodes; i++ {
			gctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			got, err := c.Node(i).Get(gctx, oid)
			cancel()
			gone := errors.Is(err, types.ErrDeleted)
			if !gone && (err != nil || !bytes.Equal(got, data)) {
				rec, lerr := c.Node(3).Directory().Lookup(ctx, oid, false)
				t.Fatalf("%s: node %d Get: %d bytes, %v (record %v, %v)", label, i, len(got), err, rec.Locs, lerr)
			}
			if i == 0 {
				deleted = gone
			} else if gone != deleted {
				t.Fatalf("%s: node %d deleted %v, node 0 deleted %v", label, i, gone, deleted)
			}
		}
		if deleted {
			waitGone(t, c, oid)
		}
		return deleted
	}

	data := payload(1<<20, 5)
	after := oidOnShard(t, "put-del-after", nodes, shard)
	if err := c.Node(0).Put(ctx, after, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	for i := 1; i < nodes; i++ { // copies on every node for the Delete to evict
		if _, err := c.Node(i).Get(ctx, after); err != nil {
			t.Fatalf("node %d Get: %v", i, err)
		}
	}
	if err := c.Node(2).Delete(ctx, after); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if !outcome("delete after write", after, data) {
		t.Fatal("delete after write: the object is still readable")
	}

	before := oidOnShard(t, "put-del-before", nodes, shard)
	if err := c.SetPairLink(0, shard, netem.LinkConfig{Latency: delay}); err != nil {
		t.Fatal(err)
	}
	putErr := make(chan error, 1)
	go func() { putErr <- c.Node(0).Put(ctx, before, data) }()
	waitCond(t, "the Put's sealed local copy", func() bool {
		buf, ok := c.Node(0).Store().Get(before)
		return ok && buf.Complete()
	})
	if err := c.Node(2).Delete(ctx, before); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := <-putErr; err != nil {
		t.Fatalf("Put overtaking a Delete: %v", err)
	}
	if err := c.SetPairLink(0, shard, netem.LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if outcome("delete before write", before, data) {
		t.Fatal("delete before write: the Put's write did not re-create the object")
	}

	for r := 0; r < 16; r++ {
		deleter := 2 * (r % 2) // a remote Delete, then the putter's own
		oid := oidOnShard(t, fmt.Sprintf("put-del-race-%d", r), nodes, shard)
		var wg sync.WaitGroup
		var perr, derr error
		wg.Add(2)
		go func() { defer wg.Done(); perr = c.Node(0).Put(ctx, oid, data) }()
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(r/2) * 200 * time.Microsecond)
			derr = c.Node(deleter).Delete(ctx, oid)
		}()
		wg.Wait()
		label := fmt.Sprintf("round %d, Delete on node %d", r, deleter)
		if perr != nil || derr != nil {
			t.Fatalf("%s: Put: %v, Delete: %v", label, perr, derr)
		}
		outcome(label, oid, data)
	}
}

// TestPutFailedWriteLeavesNothing runs a Put whose directory write outlives
// its ctx: the write reaches the shard primary after the Put gave up, and
// is applied. The failed Put still leaves no store entry on the putter and
// no location of it in the record, and a later Put of the same object
// succeeds.
func TestPutFailedWriteLeavesNothing(t *testing.T) {
	const (
		nodes = 4
		shard = 1 // replica group: nodes 1-3, so node 0's write crosses its delayed link
	)
	ctx := testCtx(t)
	c := startCluster(t, nodes, Options{Emulate: &netem.LinkConfig{}})
	data := payload(1<<20, 9)
	// Dial node 0's connection to the primary before its link slows down.
	if err := c.Node(0).Put(ctx, oidOnShard(t, "put-failed-warm", nodes, shard), data); err != nil {
		t.Fatalf("warm Put: %v", err)
	}
	oid := oidOnShard(t, "put-failed-write", nodes, shard)
	if err := c.SetPairLink(0, shard, netem.LinkConfig{Latency: 100 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	_, seq0 := c.Node(shard).ShardServer().ShardSeq(shard)
	pctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	err := c.Node(0).Put(pctx, oid, data)
	cancel()
	if err == nil {
		t.Fatal("Put succeeded past its ctx")
	}
	if c.Node(0).Store().Contains(oid) {
		t.Fatal("failed Put left its store entry")
	}
	// The write and the cleanup crossed the same link in order, and the
	// cleanup was acknowledged before the Put returned.
	if _, seq1 := c.Node(shard).ShardServer().ShardSeq(shard); seq1-seq0 != 2 {
		t.Fatalf("shard applied %d ops, want the late write and its cleanup", seq1-seq0)
	}
	rec, err := c.Node(3).Directory().Lookup(ctx, oid, false)
	if err != nil && !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("Lookup: %v", err)
	}
	for _, l := range rec.Locs {
		if l.Node == c.Node(0).ID() {
			t.Fatalf("failed Put left its location %v in the record", l)
		}
	}
	if err := c.SetPairLink(0, shard, netem.LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put after a failed one: %v", err)
	}
	got, err := c.Node(2).Get(ctx, oid)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get after re-put: %d bytes, %v", len(got), err)
	}
}
