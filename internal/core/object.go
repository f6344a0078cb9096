package core

import (
	"context"
	"errors"
	"slices"
	"time"

	"hoplite/internal/buffer"
	"hoplite/internal/types"
	"hoplite/internal/wire"
)

// Put stores an immutable object (Table 1). Objects below the small-object
// threshold go inline into the directory (§3.2). A larger one is copied
// into the store and sealed, then registered complete in one directory
// write, where the Put linearizes: a Delete applied before it is
// overtaken. A producer whose readers must pipeline off a partial copy
// (§3.3) streams through Create. The object is pinned locally until Delete.
func (n *Node) Put(ctx context.Context, oid types.ObjectID, data []byte) error {
	size := int64(len(data))
	if size < n.cfg.InlineThreshold {
		return n.dir.PutInline(ctx, oid, data)
	}
	buf, err := n.store.CreateAdmit(ctx, oid, size, true)
	if err != nil {
		if existing, ok := n.store.Get(oid); errors.Is(err, types.ErrExists) && ok && existing.Complete() {
			return n.dir.PutSealed(ctx, oid, existing.Size()) // an idempotent re-put, e.g. a restarted task's
		}
		return err
	}
	n.signalStoreChange()
	if err = buf.Append(data); err == nil {
		buf.Seal()
		err = n.dir.PutSealed(ctx, oid, size)
	}
	if err != nil {
		n.unput(oid)
	}
	return err
}

// retryTransient runs op until it fails with anything but ErrAborted, the
// one error a Get-shaped call retries: a local race with the store, where
// the buffer an attempt used was retired, replaced by a new generation or
// evicted before it could be pinned. Each attempt starts from the store's
// current entry, which the retired one has left, so ctx alone bounds the
// loop. A Delete is final: ErrDeleted surfaces at once.
func retryTransient[T any](ctx context.Context, op func() (T, error)) (T, error) {
	for {
		v, err := op()
		if !errors.Is(err, types.ErrAborted) {
			return v, err
		}
		if ctx.Err() != nil {
			var zero T
			return zero, ctx.Err()
		}
	}
}

// getBuffer returns a complete local buffer for oid.
func (n *Node) getBuffer(ctx context.Context, oid types.ObjectID) (*buffer.Buffer, error) {
	return retryTransient(ctx, func() (*buffer.Buffer, error) {
		buf, err := n.ensureLocal(ctx, oid)
		if err != nil {
			return nil, err
		}
		if err := buf.WaitComplete(ctx); err != nil {
			return nil, err
		}
		return buf, nil
	})
}

// GetRef returns a pinned, zero-copy, read-only view of the object,
// blocking until the object is fully present locally. The underlying
// store copy cannot be evicted while the ref is held; the caller must
// Release it. This is the handle form of the paper's immutable-get
// optimization (§3.3): no final store→worker copy is made.
func (n *Node) GetRef(ctx context.Context, oid types.ObjectID) (*ObjectRef, error) {
	// Fast path — the object is local and complete: pin it under the
	// store lock and hand out a pooled handle. Zero allocations, zero
	// copies (BenchmarkGetRef asserts this stays true).
	if buf, ok := n.pinComplete(oid); ok {
		return newRef(oid, buf), nil
	}
	return n.getRefSlow(ctx, oid)
}

// pinComplete pins oid's store entry when it is complete.
func (n *Node) pinComplete(oid types.ObjectID) (*buffer.Buffer, bool) {
	buf, ok := n.store.Acquire(oid)
	if ok && !buf.Complete() {
		buf.Unref()
		return nil, false
	}
	return buf, ok
}

func (n *Node) getRefSlow(ctx context.Context, oid types.ObjectID) (*ObjectRef, error) {
	return retryTransient(ctx, func() (*ObjectRef, error) {
		local, err := n.ensureLocal(ctx, oid)
		if err != nil {
			return nil, err
		}
		// Re-acquire through the store so the pin is atomic with the
		// lookup: ensureLocal's buffer may already have been replaced by
		// a re-creation, and a complete copy could be evicted between the
		// pull finishing and the pin landing — Acquire pins whatever entry
		// is current, and a miss is transient unless the buffer failed.
		buf, ok := n.store.Acquire(oid)
		if !ok {
			return nil, failedOr(local, types.ErrAborted)
		}
		if err := buf.WaitComplete(ctx); err != nil {
			buf.Unref()
			return nil, err
		}
		return newRef(oid, buf), nil
	})
}

// Get returns a private copy of the object, blocking until it is
// available. The copy out of the store is pipelined with the inbound
// transfer (§3.3). Small objects come straight from the directory cache.
// It is a compat shim over the ref machinery: the store entry is pinned
// for the duration of the copy-out.
func (n *Node) Get(ctx context.Context, oid types.ObjectID) ([]byte, error) {
	return retryTransient(ctx, func() ([]byte, error) { return n.getOnce(ctx, oid) })
}

func (n *Node) getOnce(ctx context.Context, oid types.ObjectID) ([]byte, error) {
	buf, err := n.ensureLocal(ctx, oid)
	if err != nil {
		return nil, err
	}
	// Pin the buffer we are streaming from, so neither eviction nor a
	// Delete's recycling takes its array mid-copy. One already retired
	// fails with its own error, and a sealed one (a copy deleted or
	// replaced after it completed) is a transient miss.
	if !buf.TryRef() {
		return nil, failedOr(buf, types.ErrAborted)
	}
	defer buf.Unref()
	out := make([]byte, buf.Size())
	var off int64
	for off < buf.Size() {
		wm, _, err := buf.WaitAt(ctx, off)
		if err != nil {
			return nil, err
		}
		copy(out[off:wm], buf.Bytes()[off:wm])
		off = wm
	}
	return out, nil
}

// GetImmutable returns a read-only view of the object without the final
// store→worker copy ("optimization for immutable get", §3.3). The caller
// must not modify the returned slice.
//
// Compat shim over GetRef: the returned slice is NOT pinned — after this
// call returns, store pressure may evict the copy (the bytes stay valid
// to the Go runtime but the store forgets them). To keep the slice valid
// its array is marked escaped and never recycled. New code should hold an
// ObjectRef from GetRef instead and Release it when done.
func (n *Node) GetImmutable(ctx context.Context, oid types.ObjectID) ([]byte, error) {
	ref, err := n.GetRef(ctx, oid)
	if err != nil {
		return nil, err
	}
	buf := ref.checked()
	buf.Escape()
	data := buf.Bytes()
	ref.Release()
	return data, nil
}

// WaitLocal blocks until the object is fully present in the local store
// (fetching it if necessary) without copying it out.
func (n *Node) WaitLocal(ctx context.Context, oid types.ObjectID) error {
	_, err := n.getBuffer(ctx, oid)
	return err
}

// failedOr returns buf's failure, or err when it has none.
func failedOr(buf *buffer.Buffer, err error) error {
	if ferr := buf.Failed(); ferr != nil {
		return ferr
	}
	return err
}

// tombstoneTTL is how long a tombstone is kept once more than 1024 are
// held. It must outlast an inline acquire in flight when the deletion
// landed: one directory round trip, plus a few failover backoffs when a
// shard primary dies. Longer costs CPU: past 1024 tombstones every
// noteTombstone scans them all.
const tombstoneTTL = 1500 * time.Millisecond

// noteTombstone records that oid was deleted cluster-wide as observed by
// this node (EvictLocal fan-out, a deletion seen by a pull, or its own
// Delete call). The inline fast path consults it: an inline payload whose
// acquire overlapped the deletion is served to the caller but never
// materialized in the store, so the eviction fan-out cannot be outrun
// (resurrection).
func (n *Node) noteTombstone(oid types.ObjectID) {
	now := time.Now()
	n.tombMu.Lock()
	if n.tombs == nil {
		n.tombs = make(map[types.ObjectID]time.Time)
	}
	if len(n.tombs) > 1024 {
		for k, t := range n.tombs {
			if now.Sub(t) > tombstoneTTL {
				delete(n.tombs, k)
			}
		}
	}
	n.tombs[oid] = now
	n.tombMu.Unlock()
}

// tombstonedSince reports whether oid was tombstoned after the given
// instant (typically a pull's start time).
func (n *Node) tombstonedSince(oid types.ObjectID, since time.Time) bool {
	n.tombMu.Lock()
	t, ok := n.tombs[oid]
	n.tombMu.Unlock()
	return ok && t.After(since)
}

// Delete removes every copy of the object cluster-wide (Table 1). The
// directory entry is tombstoned and every copy it listed is evicted, this
// node's included. A Delete is final: a Get overlapping it returns the
// object or ErrDeleted, and only a Put whose write lands later re-creates
// it, so a local copy the directory did not list (a Put's, not yet
// registered) is left to that Put. (A restarted reduce root does not
// delete its partial target; it re-creates it in place under a new
// generation.)
func (n *Node) Delete(ctx context.Context, oid types.ObjectID) error {
	locs, err := n.dir.Delete(ctx, oid)
	if err != nil {
		return err
	}
	m := wire.Message{Method: wire.MethodEvictLocal, OID: oid}
	if slices.ContainsFunc(locs, func(l types.Location) bool { return l.Node == n.id }) {
		n.dropLocal(m)
	}
	return n.evict(ctx, locs, m)
}

// dropLocal drops this node's copy of m.OID, in memory and spilled, as an
// EvictLocal m asks. A deleted copy is tombstoned first: an inline acquire
// racing the fan-out checks the tombstone after inserting, so one of the
// two orders always wins (no resurrected copy). A copy a re-creation
// superseded (Gen set, §3.5.2) is aborted, and the pull filling it
// unregistered, so local readers retry onto a fresh pull.
func (n *Node) dropLocal(m wire.Message) {
	if m.Gen != 0 {
		if n.store.Abort(m.OID, nil) {
			n.mu.Lock()
			if p, ok := n.pulls[m.OID]; ok {
				select {
				case <-p.ready: // launched: the aborted buffer was its own
					delete(n.pulls, m.OID)
				default:
				}
			}
			n.mu.Unlock()
		}
	} else {
		n.noteTombstone(m.OID)
		n.store.Delete(m.OID)
	}
	if n.spill != nil {
		n.spill.Remove(m.OID)
	}
}

// evict sends m, an EvictLocal, to every holder in locs but this node.
// Every holder gets its eviction before any answer is awaited, so a
// fan-out costs one round trip however many copies there are.
func (n *Node) evict(ctx context.Context, locs []types.Location, m wire.Message) error {
	type eviction struct {
		addr string
		c    *wire.Client
		call wire.Pending
	}
	var buf [4]eviction
	evs := buf[:0]
	m.Epoch = n.mapEpoch()
	var firstErr error
	for _, loc := range locs {
		if loc.Node == n.id {
			continue
		}
		c, err := n.peerCtrl(ctx, string(loc.Node))
		if err != nil {
			if firstErr == nil && !errors.Is(err, types.ErrNodeDown) {
				firstErr = err
			}
			continue
		}
		evs = append(evs, eviction{string(loc.Node), c, c.Go(m)})
	}
	for i := range evs {
		ev := &evs[i]
		resp, err := ev.call.Wait(ctx)
		if err == nil && errors.Is(resp.ErrorOf(), types.ErrStaleMap) {
			// The holder has a newer cluster map than we do: adopt it and
			// re-issue the eviction with a current stamp so the copy is not
			// silently left behind.
			if cm, derr := types.DecodeClusterMap(resp.Payload); derr == nil {
				n.applyMap(cm)
			}
			m.Epoch = n.mapEpoch()
			_, err = ev.c.Call(ctx, m)
		}
		// Our own cancellation says nothing about the peer; closing the
		// shared connection would report it down to every reduce.
		if err != nil && ctx.Err() == nil {
			n.dropPeer(ev.addr, ev.c)
		}
	}
	return firstErr
}
