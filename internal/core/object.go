package core

import (
	"context"
	"errors"
	"time"

	"hoplite/internal/buffer"
	"hoplite/internal/directory"
	"hoplite/internal/types"
	"hoplite/internal/wire"
)

// Put stores an immutable object (Table 1). Objects below the small-object
// threshold go inline into the directory (§3.2); larger objects stream
// through an ObjectWriter in pipeline blocks, with the partial location
// registered up front so remote receivers can start fetching while the
// copy is still running (§3.3). The object is pinned locally until Delete.
func (n *Node) Put(ctx context.Context, oid types.ObjectID, data []byte) error {
	if int64(len(data)) < n.cfg.InlineThreshold {
		return n.dir.PutInline(ctx, oid, data)
	}
	w, err := n.Create(ctx, oid, int64(len(data)))
	if err != nil {
		if errors.Is(err, types.ErrExists) {
			// Idempotent re-put (e.g. a restarted task re-producing its
			// output): re-register the existing complete copy.
			if existing, ok := n.store.Get(oid); ok && existing.Complete() {
				if err := n.dir.PutStarted(ctx, oid, existing.Size()); err != nil {
					return err
				}
				return n.dir.PutComplete(ctx, oid)
			}
		}
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Seal()
}

// deleteGrace is how long Get-style operations keep retrying after
// observing ErrDeleted. An object can be transiently deleted and
// re-created during reduce failure recovery (a failed root slot's target
// output is invalidated and re-produced by the replacement, §3.5.2);
// receivers ride through the window instead of surfacing a spurious error.
const deleteGrace = 1500 * time.Millisecond

// retryTransient runs op, retrying while it fails with a transient
// deletion error (ErrDeleted/ErrAborted) inside the deleteGrace window.
// Any other error, a ctx cancellation, or the window expiring surfaces
// the last error. Every Get-shaped operation shares this one loop.
// Between attempts it blocks on await — an event-driven wakeup tied to
// the object's directory record — instead of a fixed-period poll, so a
// re-created object is retried the moment its first location registers.
func retryTransient[T any](ctx context.Context, await func(context.Context), op func() (T, error)) (T, error) {
	deadline := time.Now().Add(deleteGrace)
	for {
		v, err := op()
		if err == nil {
			return v, nil
		}
		if !errors.Is(err, types.ErrDeleted) && !errors.Is(err, types.ErrAborted) {
			return v, err
		}
		if time.Now().After(deadline) {
			return v, err
		}
		wctx, cancel := context.WithDeadline(ctx, deadline)
		await(wctx)
		cancel()
		if ctx.Err() != nil {
			var zero T
			return zero, ctx.Err()
		}
	}
}

// awaitRecreation returns the wakeup used by retryTransient: a directory
// watch on oid that fires on the next record change (normally the
// re-creation's PutStarted). If the record already shows life again — or
// the directory is unreachable — it returns immediately (the retry loop's
// grace deadline still bounds the overall wait).
func (n *Node) awaitRecreation(oid types.ObjectID) func(context.Context) {
	return func(ctx context.Context) {
		ch := make(chan struct{}, 1)
		rec, cancelWatch, err := n.dir.Watch(ctx, oid, func(directory.Update) {
			select {
			case ch <- struct{}{}:
			default:
			}
		})
		if err != nil && !errors.Is(err, types.ErrDeleted) {
			return
		}
		defer cancelWatch()
		if err == nil && (len(rec.Locs) > 0 || rec.Inline != nil) {
			return // re-created between the failure and the watch
		}
		select {
		case <-ch:
		case <-ctx.Done():
		}
	}
}

// getBuffer returns a complete local buffer for oid, retrying across
// transient deletions.
func (n *Node) getBuffer(ctx context.Context, oid types.ObjectID) (*buffer.Buffer, error) {
	return retryTransient(ctx, n.awaitRecreation(oid), func() (*buffer.Buffer, error) {
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
	if buf, ok := n.store.Acquire(oid); ok {
		if buf.Complete() {
			return newRef(oid, buf), nil
		}
		buf.Unref()
	}
	return n.getRefSlow(ctx, oid)
}

func (n *Node) getRefSlow(ctx context.Context, oid types.ObjectID) (*ObjectRef, error) {
	return retryTransient(ctx, n.awaitRecreation(oid), func() (*ObjectRef, error) {
		if _, err := n.ensureLocal(ctx, oid); err != nil {
			return nil, err
		}
		// Re-acquire through the store so the pin is atomic with the
		// lookup: ensureLocal's buffer may already have been replaced by
		// a re-creation, and a complete copy could be evicted between the
		// pull finishing and the pin landing — Acquire pins whatever entry
		// is current, and a miss is treated as transient.
		buf, ok := n.store.Acquire(oid)
		if !ok {
			return nil, types.ErrAborted
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
	return retryTransient(ctx, n.awaitRecreation(oid), func() ([]byte, error) { return n.getOnce(ctx, oid) })
}

func (n *Node) getOnce(ctx context.Context, oid types.ObjectID) ([]byte, error) {
	buf, err := n.ensureLocal(ctx, oid)
	if err != nil {
		return nil, err
	}
	// Pin the buffer we are streaming from, so neither eviction nor a
	// Delete's recycling takes its array mid-copy. One already retired
	// (deleted, possibly re-created since) is a transient miss.
	if !buf.TryRef() {
		return nil, types.ErrAborted
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
			if now.Sub(t) > deleteGrace {
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
// directory entry is tombstoned and each holding node evicts its copy.
func (n *Node) Delete(ctx context.Context, oid types.ObjectID) error {
	locs, err := n.dir.Delete(ctx, oid)
	if err != nil {
		return err
	}
	n.noteTombstone(oid)
	// Every holder gets its eviction before any answer is awaited, so a
	// Delete costs one round trip however many copies there are.
	type eviction struct {
		addr string
		c    *wire.Client
		call wire.Pending
	}
	var buf [4]eviction
	evs := buf[:0]
	m := wire.Message{Method: wire.MethodEvictLocal, OID: oid, Epoch: n.mapEpoch()}
	var firstErr error
	for _, loc := range locs {
		if loc.Node == n.id {
			n.store.Delete(oid)
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
	n.store.Delete(oid) // cover copies created after the directory snapshot
	if n.spill != nil {
		n.spill.Remove(oid)
	}
	return firstErr
}
