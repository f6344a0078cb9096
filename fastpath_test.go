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
// moving (trailing lease releases and watch subscriptions run off the Get
// critical path) and returns the settled value.
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

// TestWarmGetZeroDirectoryRPCs is the fast path's headline acceptance
// check: once a node has pulled a remote object and cached its location,
// a repeat Get after local eviction goes straight to the cached sender —
// zero directory RPCs.
func TestWarmGetZeroDirectoryRPCs(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	data := payload(128<<10, 5) // above the inline threshold
	oid := ObjectIDFromString("warm-cached")
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := c.Node(1).Get(ctx, oid); err != nil {
		t.Fatalf("cold Get: %v", err)
	}
	// Let the trailing ReleaseSender and the cache's watch subscription
	// land, then drop the local copy so the next Get must pull again.
	settleDirCalls(t, c, 1)
	if cs := c.Node(1).CacheStats(); cs.Size != 1 {
		t.Fatalf("expected 1 cached location entry, got %+v", cs)
	}
	c.Node(1).Store().Delete(oid)

	before := settleDirCalls(t, c, 1)
	samples := c.Node(1).Links().Estimate(c.Node(0).ID()).Samples
	got, err := c.Node(1).Get(ctx, oid)
	if err != nil {
		t.Fatalf("warm Get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("warm Get payload mismatch: %d bytes", len(got))
	}
	if after := c.Node(1).Directory().Stats().Calls; after != before {
		t.Fatalf("warm Get issued %d directory RPCs, want 0", after-before)
	}
	if cs := c.Node(1).CacheStats(); cs.Hits < 1 {
		t.Fatalf("warm Get did not hit the location cache: %+v", cs)
	}
	// The cached pull feeds the link estimator like any other pull.
	if est := c.Node(1).Links().Estimate(c.Node(0).ID()); est.Samples <= samples {
		t.Fatalf("warm Get left no link sample for the cached sender (%d samples before, %+v after)", samples, est)
	}
	waitLeasesReturned(t, c)
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

// TestCachedSenderDeadFailsOver covers the cached path's failover: with
// two remembered holders, the death of one must not cost a directory
// round trip — the pull moves to the next cached sender.
func TestCachedSenderDeadFailsOver(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 3, Options{})
	data := payload(256<<10, 11)
	oid := ObjectIDFromString("cached-failover")
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Spread complete copies onto nodes 0 and 1, then warm node 2's cache.
	if _, err := c.Node(1).Get(ctx, oid); err != nil {
		t.Fatalf("replicate Get: %v", err)
	}
	if _, err := c.Node(2).Get(ctx, oid); err != nil {
		t.Fatalf("cold Get: %v", err)
	}
	settleDirCalls(t, c, 2)
	c.Node(2).Store().Delete(oid)

	// Kill one cached holder. Whichever sender the cached pull tries
	// first, it must end with the data and without consulting the
	// directory: a dead cached sender fails over inside the cache.
	c.Node(0).Close()
	before := settleDirCalls(t, c, 2)
	got, err := c.Node(2).Get(ctx, oid)
	if err != nil {
		t.Fatalf("warm Get after sender death: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("payload mismatch: %d bytes", len(got))
	}
	if after := c.Node(2).Directory().Stats().Calls; after != before {
		t.Fatalf("cached failover issued %d directory RPCs, want 0", after-before)
	}
	waitLeasesReturned(t, c, 0)
}

// TestCachedHolderDeletesMidGet races a warm cached Get against the
// holder deleting the object cluster-wide. The Get must either return the
// full payload or a deletion error — never hang, never corrupt — and the
// cache entry must not survive the deletion. Run under -race.
func TestCachedHolderDeletesMidGet(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 3, Options{})
	for i := 0; i < 8; i++ {
		data := payload(128<<10, byte(i))
		oid := ObjectIDFromString(fmt.Sprintf("del-race-%d", i))
		if err := c.Node(0).Put(ctx, oid, data); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if _, err := c.Node(2).Get(ctx, oid); err != nil {
			t.Fatalf("cold Get: %v", err)
		}
		settleDirCalls(t, c, 2)
		c.Node(2).Store().Delete(oid)

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
