package hoplite

// Tests for the handle-based object API: pinned zero-copy ObjectRefs,
// streaming ObjectWriters, and async futures.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"hoplite/internal/netem"
	"hoplite/internal/types"
)

// TestObjectRefSurvivesEviction is the end-to-end regression test for the
// GetImmutable recycle hazard: a held ObjectRef pins the store copy, so
// store-pressure eviction must skip it; once released, the copy becomes
// the next eviction victim.
func TestObjectRefSurvivesEviction(t *testing.T) {
	ctx := testCtx(t)
	const objSize = 1 << 20
	// Three objects fit under the limit. Puts are admission-controlled —
	// a node's pinned originals can never exceed it — so the six originals
	// are split across nodes 0 and 2; node 1 only ever holds evictable
	// remote copies.
	c := startCluster(t, 3, Options{MemoryLimit: int64(objSize)*3 + objSize/2})
	origin := func(i int) *Node { return c.Node(2 * ((i + 1) % 2)) } // 2, 0, 2, 0, 2
	oid := ObjectIDFromString("pinned-under-pressure")
	want := payload(objSize, 9)
	if err := c.Node(0).Put(ctx, oid, want); err != nil {
		t.Fatal(err)
	}
	ref, err := c.Node(1).GetRef(ctx, oid)
	if err != nil {
		t.Fatal(err)
	}
	// Flood node 1 with other remote objects. Each Get lands an unpinned
	// copy, so the store exceeds its three-object budget and must evict —
	// but never the ref'd copy, even though it is the LRU entry.
	for i := 0; i < 3; i++ {
		other := ObjectIDFromString(fmt.Sprintf("pressure-%d", i))
		if err := origin(i).Put(ctx, other, payload(objSize, byte(i))); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Node(1).Get(ctx, other); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Node(1).Store().Contains(oid) {
		t.Fatal("store evicted an object with a live ref")
	}
	if !bytes.Equal(ref.Bytes(), want) {
		t.Fatal("pinned view corrupted under store pressure")
	}
	// Streaming accessors read the same payload.
	got, err := io.ReadAll(ref.Reader())
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Reader mismatch (err %v)", err)
	}
	ref.Release()
	// Released and cold: the next pressure round may now evict it.
	for i := 3; i < 5; i++ {
		other := ObjectIDFromString(fmt.Sprintf("pressure-%d", i))
		if err := origin(i).Put(ctx, other, payload(objSize, byte(i))); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Node(1).Get(ctx, other); err != nil {
			t.Fatal(err)
		}
	}
	if c.Node(1).Store().Contains(oid) {
		t.Fatal("released LRU copy not evicted under pressure")
	}
}

// TestObjectRefReadableAfterDelete: a complete pinned view stays readable
// even after the object is deleted cluster-wide (sealed buffers are never
// failed; Delete only forgets the copy).
func TestObjectRefReadableAfterDelete(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	oid := ObjectIDFromString("read-after-delete")
	want := payload(1<<20, 5)
	if err := c.Node(0).Put(ctx, oid, want); err != nil {
		t.Fatal(err)
	}
	ref, err := c.Node(1).GetRef(ctx, oid)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	if err := c.Node(0).Delete(ctx, oid); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref.Bytes(), want) {
		t.Fatal("held ref corrupted by Delete")
	}
}

// TestObjectWriterStreaming drives the streaming producer path: a remote
// Get started mid-write streams the partial object off the chunk ledger
// and completes when the writer seals.
func TestObjectWriterStreaming(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	oid := ObjectIDFromString("streamed-put")
	want := payload(2<<20, 11)
	w, err := c.Node(0).Create(ctx, oid, int64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	half := len(want) / 2
	if _, err := w.Write(want[:half]); err != nil {
		t.Fatal(err)
	}
	if w.Written() != int64(half) || w.Size() != int64(len(want)) {
		t.Fatalf("written %d size %d", w.Written(), w.Size())
	}
	// Start the remote fetch while the object is half-written.
	fut := c.Node(1).GetAsync(ctx, oid)
	if _, err := w.Write(want[half:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	got, err := fut.Await(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("streamed object mismatch")
	}
	// The writer is spent: further writes and seals fail.
	if _, err := w.Write([]byte("x")); !errors.Is(err, types.ErrClosed) {
		t.Fatalf("write after seal: %v", err)
	}
	if err := w.Seal(); !errors.Is(err, types.ErrClosed) {
		t.Fatalf("double seal: %v", err)
	}
}

// TestObjectWriterAbort: an aborted writer removes the store entry and
// directory location; the ID is reusable by a fresh writer.
func TestObjectWriterAbort(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	oid := ObjectIDFromString("aborted-put")
	w, err := c.Node(0).Create(ctx, oid, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload(256<<10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err) // idempotent
	}
	if c.Node(0).Store().Contains(oid) {
		t.Fatal("aborted object still in store")
	}
	short, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
	if _, err := c.Node(1).Get(short, oid); err == nil {
		t.Fatal("aborted object still fetchable")
	}
	cancel()
	// The ID is free again.
	want := payload(1<<20, 2)
	w2, err := c.Node(0).Create(ctx, oid, int64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Write(want); err != nil {
		t.Fatal(err)
	}
	if err := w2.Seal(); err != nil {
		t.Fatal(err)
	}
	got, err := c.Node(1).Get(ctx, oid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("re-created object mismatch")
	}
}

// TestObjectWriterOverrun: writing past the declared size tears the
// object down with a sticky error.
func TestObjectWriterOverrun(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 1, Options{})
	w, err := c.Node(0).Create(ctx, ObjectIDFromString("overrun"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 16)); err == nil {
		t.Fatal("overrun write succeeded")
	}
	if err := w.Seal(); err == nil {
		t.Fatal("seal after overrun succeeded")
	}
	if c.Node(0).Store().Contains(w.OID()) {
		t.Fatal("overrun object left in store")
	}
}

// TestGetAsyncCancelInFlight cancels a GetAsync while its pull is mid
// transfer: the future must resolve with the ctx error promptly, and the
// object must remain fetchable afterwards — the ledger's claims are not
// poisoned by the abandoned waiter.
func TestGetAsyncCancelInFlight(t *testing.T) {
	ctx := testCtx(t)
	const size = 8 << 20
	c := startCluster(t, 2, Options{
		Emulate: &netem.LinkConfig{Latency: 200 * time.Microsecond, BytesPerSec: 8 << 20},
	})
	oid := ObjectIDFromString("cancel-mid-pull")
	want := payload(size, 3)
	if err := c.Node(0).Put(ctx, oid, want); err != nil {
		t.Fatal(err)
	}
	gctx, cancel := context.WithCancel(ctx)
	fut := c.Node(1).GetAsync(gctx, oid)
	// Wait until the pull has actually landed a partial buffer.
	deadline := time.Now().Add(10 * time.Second)
	for !c.Node(1).Store().Contains(oid) {
		if time.Now().After(deadline) {
			t.Fatal("pull never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	start := time.Now()
	if _, err := fut.Await(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("await after cancel: %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("canceled future resolved too slowly")
	}
	select {
	case <-fut.Done():
	default:
		t.Fatal("Done not closed after cancellation")
	}
	// The ledger is reusable: a fresh Get (joining or restarting the
	// pull) returns the full object.
	got, err := c.Node(1).Get(ctx, oid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("object corrupted after canceled async get")
	}
}

// TestGetAsyncCancelBeforeProduced cancels a GetAsync whose object does
// not exist anywhere yet (the future-as-ObjectID case): the acquisition
// must unwind, releasing its directory claim, and the object must remain
// producible and fetchable afterwards.
func TestGetAsyncCancelBeforeProduced(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	oid := ObjectIDFromString("cancel-before-put")
	gctx, cancel := context.WithCancel(ctx)
	fut := c.Node(1).GetAsync(gctx, oid)
	time.Sleep(50 * time.Millisecond) // let the acquisition block
	cancel()
	if _, err := fut.Await(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("await after cancel: %v", err)
	}
	want := payload(1<<20, 8)
	if err := c.Node(0).Put(ctx, oid, want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Node(1).Get(ctx, oid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("object mismatch after canceled pre-production get")
	}
}

// TestGetRefAsyncResolvesEventDriven: a future taken out before the
// object is produced resolves once the producer seals, and hands out a
// pinned ref.
func TestGetRefAsyncResolvesEventDriven(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	oid := ObjectIDFromString("future-before-put")
	fut := c.Node(1).GetRefAsync(ctx, oid)
	select {
	case <-fut.Done():
		t.Fatal("future resolved before production")
	case <-time.After(50 * time.Millisecond):
	}
	want := payload(1<<20, 4)
	if err := c.Node(0).Put(ctx, oid, want); err != nil {
		t.Fatal(err)
	}
	ref, err := fut.Await(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	if !bytes.Equal(ref.Bytes(), want) {
		t.Fatal("future-resolved ref mismatch")
	}
}

// TestGetOfDeletedObjectFailsAtOnce: a Delete is final. Every Get-shaped
// call of a user-deleted object on a node that never held it returns
// ErrDeleted at once, not after waiting for a re-creation. Each call's
// latency is the best of three attempts, so one scheduler stall on a busy
// host does not decide the bound; a call that waits for a re-creation
// misses it on every attempt.
func TestGetOfDeletedObjectFailsAtOnce(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	oid := ObjectIDFromString("deleted-for-good")
	if err := c.Node(0).Put(ctx, oid, payload(1<<20, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Node(0).Delete(ctx, oid); err != nil {
		t.Fatal(err)
	}
	n := c.Node(1)
	calls := []struct {
		name string
		call func() error
	}{
		{"Get", func() error { _, err := n.Get(ctx, oid); return err }},
		{"GetRef", func() error {
			ref, err := n.GetRef(ctx, oid)
			if err == nil {
				ref.Release()
			}
			return err
		}},
		{"GetRefAsync", func() error {
			ref, err := n.GetRefAsync(ctx, oid).Await(ctx)
			if err == nil {
				ref.Release()
			}
			return err
		}},
		{"WaitLocal", func() error { return n.WaitLocal(ctx, oid) }},
		{"GetImmutable", func() error { _, err := n.GetImmutable(ctx, oid); return err }},
	}
	const bound = 10 * time.Millisecond
	for _, tc := range calls {
		t.Run(tc.name, func(t *testing.T) {
			best := time.Duration(1<<63 - 1)
			for attempt := 0; attempt < 3; attempt++ {
				start := time.Now()
				err := tc.call()
				best = min(best, time.Since(start))
				if !errors.Is(err, ErrDeleted) {
					t.Fatalf("attempt %d: err = %v, want ErrDeleted", attempt, err)
				}
			}
			if best > bound {
				t.Fatalf("fastest of 3 calls took %v, want <= %v", best, bound)
			}
		})
	}
}

// TestGetAllBatched fetches a mixed batch (inline small objects and
// stored large ones) concurrently, preserving input order.
func TestGetAllBatched(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{})
	var oids []ObjectID
	var want [][]byte
	for i := 0; i < 8; i++ {
		size := 1 << 10 // inline
		if i%2 == 0 {
			size = 512 << 10 // stored
		}
		data := payload(size, byte(i))
		oid := ObjectIDFromString(fmt.Sprintf("batch-%d", i))
		if err := c.Node(i%4).Put(ctx, oid, data); err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
		want = append(want, data)
	}
	got, err := c.Node(3).GetAll(ctx, oids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("batch entry %d mismatch", i)
		}
	}
}

// TestReduceAsync runs a reduce through its future form.
func TestReduceAsync(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{})
	srcs := make([]ObjectID, 4)
	for i := range srcs {
		srcs[i] = ObjectIDFromString(fmt.Sprintf("ra-src-%d", i))
		xs := make([]float32, 64<<10)
		for j := range xs {
			xs[j] = float32(i + 1)
		}
		if err := c.Node(i).Put(ctx, srcs[i], types.EncodeF32(xs)); err != nil {
			t.Fatal(err)
		}
	}
	target := ObjectIDFromString("ra-sum")
	fut := c.Node(0).ReduceAsync(ctx, target, srcs, len(srcs), SumF32)
	used, err := fut.Await(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(used) != 4 {
		t.Fatalf("used %d sources", len(used))
	}
	raw, err := c.Node(2).Get(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	if got := types.DecodeF32(raw)[0]; got != 10 {
		t.Fatalf("sum %v, want 10", got)
	}
}

// TestObjectRefDoubleReleasePanics: handles are pooled, so a second
// Release must fail loudly rather than silently unpin a recycled handle.
func TestObjectRefDoubleReleasePanics(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 1, Options{})
	oid := ObjectIDFromString("double-release")
	if err := c.Node(0).Put(ctx, oid, payload(128<<10, 1)); err != nil {
		t.Fatal(err)
	}
	ref, err := c.Node(0).GetRef(ctx, oid)
	if err != nil {
		t.Fatal(err)
	}
	ref.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	ref.Release()
}

// TestAwaitReturnsResolvedRefAfterCancel: a future that resolved before
// the ctx died must still hand its pinned ref to Await — otherwise the
// pin could never be released.
func TestAwaitReturnsResolvedRefAfterCancel(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 1, Options{})
	oid := ObjectIDFromString("resolved-then-cancel")
	if err := c.Node(0).Put(ctx, oid, payload(128<<10, 2)); err != nil {
		t.Fatal(err)
	}
	gctx, cancel := context.WithCancel(ctx)
	fut := c.Node(0).GetRefAsync(gctx, oid) // local object: resolves synchronously
	<-fut.Done()
	cancel()
	for i := 0; i < 100; i++ { // the dead-ctx branch must never win
		ref, err := fut.Await(gctx)
		if err != nil {
			t.Fatalf("Await lost resolved ref to canceled ctx: %v", err)
		}
		if i == 0 {
			defer ref.Release()
		}
	}
}
