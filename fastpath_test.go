package hoplite

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"hoplite/internal/types"
)

// settleDirCalls waits until the node's directory RPC counter stops
// moving (trailing lease releases run off the Get critical path) and
// returns the settled value.
func settleDirCalls(t *testing.T, c *Cluster, i int) int64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	last := c.Node(i).Directory().Stats().Calls
	for {
		time.Sleep(50 * time.Millisecond)
		cur := c.Node(i).Directory().Stats().Calls
		if cur == last {
			return cur
		}
		if time.Now().After(deadline) {
			t.Fatalf("directory call counter never settled (%d -> %d)", last, cur)
		}
		last = cur
	}
}

// TestRemoteGetIsLeasedAndRegistered checks the one lease discipline of
// remote Gets (§3.4.1): a Get of a remote object costs exactly the lease
// round trips (AcquireSenders, then ReleaseSender), and the pulled copy
// becomes a directory location, so a Delete's eviction fan-out reaches it.
func TestRemoteGetIsLeasedAndRegistered(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	data := payload(128<<10, 5) // above the inline threshold
	oid := ObjectIDFromString("leased-get")
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	before := settleDirCalls(t, c, 1)
	got, err := c.Node(1).Get(ctx, oid)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("payload mismatch: %d bytes", len(got))
	}
	// The release trails the Get off its critical path.
	if calls := settleDirCalls(t, c, 1) - before; calls != 2 {
		t.Fatalf("remote Get issued %d directory RPCs, want 2 (AcquireSenders + ReleaseSender)", calls)
	}
	waitLeasesReturned(t, c)
	rec, err := c.Node(0).Directory().Lookup(ctx, oid, false)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	registered := false
	for _, l := range rec.Locs {
		if l.Node == c.Node(1).ID() && l.Progress.HasAll() {
			registered = true
		}
	}
	if !registered {
		t.Fatalf("pulled copy on node 1 is not a complete directory location: %v", rec.Locs)
	}
	if err := c.Node(0).Delete(ctx, oid); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	waitGone(t, c, oid)
}

// TestColdInlineGetOneRPC asserts the other acceptance bound: a cold Get
// of a sub-threshold object is exactly one directory RPC — the payload
// rides the acquire reply.
func TestColdInlineGetOneRPC(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	data := payload(1024, 7)
	oid := ObjectIDFromString("cold-inline")
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	before := settleDirCalls(t, c, 1)
	got, err := c.Node(1).Get(ctx, oid)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("payload mismatch: %d bytes", len(got))
	}
	if after := c.Node(1).Directory().Stats().Calls; after != before+1 {
		t.Fatalf("cold inline Get issued %d directory RPCs, want exactly 1", after-before)
	}
}

// TestRemoteGetRacesDelete races a remote Get against the holder deleting
// the object cluster-wide. The Get must either return the full payload or
// a deletion error — never hang, never corrupt — and no copy may survive
// the deletion. Run under -race.
func TestRemoteGetRacesDelete(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 3, Options{})
	for i := 0; i < 8; i++ {
		data := payload(128<<10, byte(i))
		oid := ObjectIDFromString(fmt.Sprintf("del-race-%d", i))
		if err := c.Node(0).Put(ctx, oid, data); err != nil {
			t.Fatalf("Put: %v", err)
		}
		errCh := make(chan error, 1)
		gotCh := make(chan []byte, 1)
		go func() {
			got, err := c.Node(2).Get(ctx, oid)
			gotCh <- got
			errCh <- err
		}()
		if err := c.Node(0).Delete(ctx, oid); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		got, err := <-gotCh, <-errCh
		if err == nil {
			if !bytes.Equal(got, data) {
				t.Fatalf("iter %d: racing Get returned corrupt payload (%d bytes)", i, len(got))
			}
		} else if !errors.Is(err, types.ErrDeleted) && !errors.Is(err, types.ErrNotFound) && !errors.Is(err, types.ErrAborted) {
			t.Fatalf("iter %d: racing Get failed with unexpected error: %v", i, err)
		}
		// The deletion must stick: no node may keep serving the object.
		waitGone(t, c, oid)
	}
	waitLeasesReturned(t, c)
}

// TestInlineGetDeleteNoResurrection races inline Gets against a
// concurrent cluster-wide Delete: whatever interleaving occurs, the
// in-flight inline payload must never re-materialize a store copy after
// the eviction fan-out has visited the node. Run under -race.
func TestInlineGetDeleteNoResurrection(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	for i := 0; i < 10; i++ {
		data := payload(2048, byte(i))
		oid := ObjectIDFromString(fmt.Sprintf("inline-race-%d", i))
		if err := c.Node(0).Put(ctx, oid, data); err != nil {
			t.Fatalf("Put: %v", err)
		}
		errCh := make(chan error, 1)
		gotCh := make(chan []byte, 1)
		go func() {
			got, err := c.Node(1).Get(ctx, oid)
			gotCh <- got
			errCh <- err
		}()
		if err := c.Node(0).Delete(ctx, oid); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		got, err := <-gotCh, <-errCh
		if err == nil && !bytes.Equal(got, data) {
			t.Fatalf("iter %d: racing inline Get returned corrupt payload", i)
		}
		waitGone(t, c, oid)
	}
}

// waitGone polls until no node's store holds oid: a deleted object that
// lingers (or reappears) in any store is a resurrection bug.
func waitGone(t *testing.T, c *Cluster, oid ObjectID) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		holders := 0
		for _, n := range c.Nodes() {
			if n != nil && n.Store().Contains(oid) {
				holders++
			}
		}
		if holders == 0 {
			// Re-check shortly after: the resurrection race inserts the
			// copy late, after the stores first look clean.
			time.Sleep(50 * time.Millisecond)
			clean := true
			for _, n := range c.Nodes() {
				if n != nil && n.Store().Contains(oid) {
					clean = false
				}
			}
			if clean {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("object %v still held by %d stores after delete", oid, holders)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
