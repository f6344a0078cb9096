package hoplite

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"hoplite/internal/buffer"
	"hoplite/internal/netem"
)

// storedObjects sums every node's store entries.
func storedObjects(c *Cluster) int {
	total := 0
	for _, n := range c.Nodes() {
		total += n.Store().Len()
	}
	return total
}

// reduceExecutors sums every node's reduce slot executors.
func reduceExecutors(c *Cluster) int {
	total := 0
	for _, n := range c.Nodes() {
		total += n.ReduceExecutors()
	}
	return total
}

// TestReduceLeavesNoResidue checks that a completed reduce leaves no
// intermediate output and no slot executor anywhere, and that once its
// sources and its target are deleted every store in the cluster is empty
// and every lease is back. An intermediate output is held by its slot's
// executor, never by a store, and a parent's pulled copy lives only as
// long as its fold, so zero executors means zero intermediates; a slot
// output that reached a store would show up there. A reduce whose ctx is
// cancelled while its specs are still going out must leave no executor
// either: a start that lands after the cleanup's cancel would run on with
// nobody to stop it.
func TestReduceLeavesNoResidue(t *testing.T) {
	const nodes = 4
	const elems = 128 << 10 // 512 KiB of f32: two wire frames per fold
	run := func(t *testing.T, degree int, all bool) {
		ctx := testCtx(t)
		c := startCluster(t, nodes, Options{Node: Config{ReduceDegree: degree}})
		sources := make([]ObjectID, nodes)
		for i := range sources {
			sources[i] = RandomObjectID()
			putF32(t, ctx, c.Node(i), sources[i], float32(i+1), elems)
		}
		target := RandomObjectID()
		var err error
		if all {
			_, err = c.AllReduce(ctx, 0, target, sources, nodes, SumF32)
		} else {
			_, err = c.Node(0).Reduce(ctx, target, sources, nodes, SumF32)
		}
		if err != nil {
			t.Fatalf("reduce: %v", err)
		}
		raw, err := c.Node(0).Get(ctx, target)
		if err != nil {
			t.Fatalf("get result: %v", err)
		}
		checkConst(t, raw, nodes*(nodes+1)/2)
		for _, oid := range append(sources, target) {
			if err := c.Node(0).Delete(ctx, oid); err != nil {
				t.Fatalf("delete %v: %v", oid, err)
			}
		}
		waitCond(t, "every executor to stop", func() bool { return reduceExecutors(c) == 0 })
		waitCond(t, "every store to empty", func() bool { return storedObjects(c) == 0 })
		waitLeasesReturned(t, c)
	}
	for _, d := range []int{1, 2, nodes} {
		t.Run(fmt.Sprintf("degree=%d", d), func(t *testing.T) { run(t, d, false) })
	}
	t.Run("allreduce", func(t *testing.T) { run(t, 0, true) })
	t.Run("cancelled", func(t *testing.T) {
		ctx := testCtx(t)
		// Latency keeps the remote specs in flight when the cancel lands.
		c := startCluster(t, nodes, Options{Emulate: &netem.LinkConfig{Latency: 2 * time.Millisecond}})
		// The last source is never put: the tree cannot complete, and the
		// cancel finds every other slot dispatched or on its way.
		sources := make([]ObjectID, nodes)
		for i := range sources {
			sources[i] = RandomObjectID()
			if i < nodes-1 {
				putF32(t, ctx, c.Node(i), sources[i], float32(i+1), elems)
			}
		}
		target := RandomObjectID()
		rctx, cancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() {
			_, err := c.Node(0).Reduce(rctx, target, sources, nodes, SumF32)
			done <- err
		}()
		// A slot starts once it and its children are assigned; with a
		// source missing, the root may never start, so any executor will do.
		for reduceExecutors(c) == 0 {
			runtime.Gosched()
		}
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled reduce returned %v, want context.Canceled", err)
		}
		waitCond(t, "every executor to stop", func() bool { return reduceExecutors(c) == 0 })
		// The root's partial output is the target, which the application
		// deletes.
		for _, oid := range append(sources[:nodes-1], target) {
			if err := c.Node(0).Delete(ctx, oid); err != nil {
				t.Fatalf("delete %v: %v", oid, err)
			}
		}
		waitCond(t, "every store to empty", func() bool { return storedObjects(c) == 0 })
		waitLeasesReturned(t, c)
	})
}

// TestDeleteRacesReadersRecycling deletes a 4 MiB object while a local
// GetRef, a local Get and remote pulls read it, then puts a new object of
// the same size, which takes its array from the pool the deleted object's
// copies return to. Every read that succeeds must see exactly the deleted
// object's bytes: a reader must hold its copy's array until it is done.
func TestDeleteRacesReadersRecycling(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 3, Options{})
	const size = 4 << 20
	const rounds = 4
	var reads, wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		oid := RandomObjectID()
		want := payload(size, byte(r))
		if err := c.Node(0).Put(ctx, oid, want); err != nil {
			t.Fatalf("round %d put: %v", r, err)
		}
		check := func(what string, got []byte) {
			if !bytes.Equal(got, want) {
				t.Errorf("round %d %s: bytes differ from the object read", r, what)
			}
		}
		// Reads that lose the race to the Delete fail with ErrDeleted at
		// once; the deadline only bounds a read the test would otherwise
		// leave hanging.
		rctx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
		getRef := func(n *Node, what string) {
			defer reads.Done()
			ref, err := n.GetRef(rctx, oid)
			if err != nil {
				return
			}
			check(what, ref.Bytes())
			ref.Release()
		}
		get := func(n *Node, what string) {
			defer reads.Done()
			if got, err := n.Get(rctx, oid); err == nil {
				check(what, got)
			}
		}
		reads.Add(5)
		go getRef(c.Node(0), "local GetRef")
		go get(c.Node(0), "local Get")
		go get(c.Node(1), "remote Get")
		go getRef(c.Node(2), "remote GetRef")
		go get(c.Node(2), "second remote Get")
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Node(1).Delete(ctx, oid); err != nil {
				t.Errorf("round %d delete: %v", r, err)
			}
			// Same size, other bytes: the likeliest taker of a recycled
			// array.
			next := RandomObjectID()
			if err := c.Node(r%3).Put(ctx, next, payload(size, byte(r+100))); err != nil {
				t.Errorf("round %d refill put: %v", r, err)
			}
		}()
		reads.Wait()
		wg.Wait()
		cancel()
	}
	waitLeasesReturned(t, c)
}

// TestDropCopyMidServeRecycling drops the holder's copy from its store
// while a remote Get is streaming it, and puts another object of the same
// size from the same goroutine, the likeliest taker of the dropped array.
// The serve must keep sending the object's own bytes: it pins the copy
// for the whole pull.
func TestDropCopyMidServeRecycling(t *testing.T) {
	ctx := testCtx(t)
	// 64 MiB/s makes the 4 MiB pull last ~60 ms, so the drop lands mid-serve.
	c := startCluster(t, 2, Options{Emulate: &netem.LinkConfig{BytesPerSec: 64 << 20}})
	const size = 4 << 20
	for r := 0; r < 3; r++ {
		oid := RandomObjectID()
		want := payload(size, byte(r))
		if err := c.Node(0).Put(ctx, oid, want); err != nil {
			t.Fatal(err)
		}
		type result struct {
			got []byte
			err error
		}
		done := make(chan result, 1)
		go func() {
			got, err := c.Node(1).Get(ctx, oid)
			done <- result{got, err}
		}()
		// Wait until the first MiB has arrived: the sender is mid-serve.
		var dst *buffer.Buffer
		for dst == nil {
			dst, _ = c.Node(1).Store().Get(oid)
			runtime.Gosched()
		}
		if _, _, err := dst.WaitAt(ctx, 1<<20); err != nil {
			t.Fatal(err)
		}
		c.Node(0).Store().Delete(oid)
		if err := c.Node(0).Put(ctx, RandomObjectID(), payload(size, byte(r+100))); err != nil {
			t.Fatal(err)
		}
		res := <-done
		if res.err != nil {
			t.Fatalf("round %d: remote get: %v", r, res.err)
		}
		if !bytes.Equal(res.got, want) {
			t.Fatalf("round %d: remote get returned bytes of another object", r)
		}
	}
}

// TestGetImmutableSurvivesDeleteAndReuse: a GetImmutable slice carries no
// pin, so its array must never be recycled — not after the object is
// deleted and another of the same size is put on the same node.
func TestGetImmutableSurvivesDeleteAndReuse(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	const size = 1 << 20
	oid := ObjectIDFromString("immutable-reuse")
	want := payload(size, 7)
	if err := c.Node(0).Put(ctx, oid, want); err != nil {
		t.Fatal(err)
	}
	local, err := c.Node(0).GetImmutable(ctx, oid)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := c.Node(1).GetImmutable(ctx, oid)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Node(0).Delete(ctx, oid); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for _, n := range c.Nodes() {
			if err := n.Put(ctx, RandomObjectID(), payload(size, byte(100+i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !bytes.Equal(local, want) || !bytes.Equal(remote, want) {
		t.Fatal("a GetImmutable slice changed after Delete and a same-size Put")
	}
}
