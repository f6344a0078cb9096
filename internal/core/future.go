package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hoplite/internal/types"
)

// Future is the async result of a Hoplite operation. It resolves exactly
// once, either with a value or an error; Done never closes before the
// result is set. Futures are resolved event-driven — completion rides the
// buffer's OnDone watcher list instead of a goroutine parked per waiter,
// which is what lets a node serve thousands of outstanding Gets without a
// goroutine each.
type Future[T any] struct {
	mu       sync.Mutex
	done     chan struct{}
	resolved bool
	val      T
	err      error
	subs     []func(T, error)
}

func newFuture[T any]() *Future[T] { return &Future[T]{done: make(chan struct{})} }

// Done returns a channel closed when the future has resolved. After it is
// closed, Await returns immediately.
func (f *Future[T]) Done() <-chan struct{} { return f.done }

// Await blocks until the future resolves or ctx is done. A ctx
// cancellation abandons the wait, not the underlying operation: transfers
// keep running in the node (a pull outlives the requesting call, like a
// real store) and the future may still resolve for other waiters. A
// resolved future always returns its result, even from a dead ctx —
// callers holding resources in the result (a pinned ObjectRef) must see
// it to release it.
func (f *Future[T]) Await(ctx context.Context) (T, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		// The select picks randomly when both channels are ready; never
		// report cancellation for a future that has already resolved.
		select {
		case <-f.done:
			return f.val, f.err
		default:
		}
		var zero T
		return zero, ctx.Err()
	}
}

// complete resolves the future, reporting whether this call won the race.
// Subscribers run synchronously in the winner's goroutine.
func (f *Future[T]) complete(v T, err error) bool {
	f.mu.Lock()
	if f.resolved {
		f.mu.Unlock()
		return false
	}
	f.resolved = true
	f.val, f.err = v, err
	subs := f.subs
	f.subs = nil
	close(f.done)
	f.mu.Unlock()
	for _, fn := range subs {
		fn(v, err)
	}
	return true
}

// subscribe registers fn to run once the future resolves; it runs
// synchronously if the future already has.
func (f *Future[T]) subscribe(fn func(T, error)) {
	f.mu.Lock()
	if f.resolved {
		v, err := f.val, f.err
		f.mu.Unlock()
		fn(v, err)
		return
	}
	f.subs = append(f.subs, fn)
	f.mu.Unlock()
}

func (f *Future[T]) isResolved() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// GetRefAsync starts fetching the object and returns a future resolving
// to a pinned zero-copy view (see GetRef). If the object is already local
// and complete the future resolves before GetRefAsync returns, with no
// goroutine spawned; otherwise one short-lived goroutine drives the
// sender acquisition and exits as soon as the local buffer exists —
// completion is then watcher-driven. Canceling ctx resolves the future
// with the ctx error (any later-arriving pin is released); the underlying
// pull keeps running, like a real store.
//
// The caller must Release the resolved ref. Await the future even when
// abandoning the operation: a canceled ctx makes the future resolve with
// the ctx error if the object had not arrived, but a future that already
// resolved holds a pinned ref that only the caller can release (Await
// returns a resolved future's ref even from a dead ctx).
func (n *Node) GetRefAsync(ctx context.Context, oid types.ObjectID) *Future[*ObjectRef] {
	f := newFuture[*ObjectRef]()
	stop := context.AfterFunc(ctx, func() {
		f.complete(nil, ctx.Err())
	})
	f.subscribe(func(*ObjectRef, error) { stop() })
	n.driveGetRef(ctx, oid, f)
	return f
}

// resolveRef hands a pinned ref to the future, dropping the pin if the
// future was already resolved (canceled or raced).
func resolveRef(f *Future[*ObjectRef], ref *ObjectRef) {
	if !f.complete(ref, nil) {
		ref.Release()
	}
}

// driveGetRef is one attempt of the async state machine behind
// GetRefAsync. It mirrors GetRef: fast path on a local complete copy,
// otherwise acquire + watcher, with the local races re-driven.
func (n *Node) driveGetRef(ctx context.Context, oid types.ObjectID, f *Future[*ObjectRef]) {
	if buf, ok := n.pinComplete(oid); ok {
		resolveRef(f, newRef(oid, buf))
		return
	}
	go func() {
		buf, err := n.ensureLocal(ctx, oid)
		if err != nil {
			n.asyncRetry(ctx, oid, f, err)
			return
		}
		buf.OnDone(func(err error) {
			if err != nil {
				n.asyncRetry(ctx, oid, f, err)
				return
			}
			if pinned, ok := n.pinComplete(oid); ok {
				resolveRef(f, newRef(oid, pinned))
				return
			}
			// Evicted between sealing and pinning, or replaced by a newer
			// generation still filling: transient, re-drive.
			n.asyncRetry(ctx, oid, f, types.ErrAborted)
		})
	}()
}

// asyncRetry is retryTransient for the watcher-driven path: a local race
// (ErrAborted) re-drives the get; anything else resolves the future with
// the error.
func (n *Node) asyncRetry(ctx context.Context, oid types.ObjectID, f *Future[*ObjectRef], err error) {
	if f.isResolved() {
		return
	}
	if !errors.Is(err, types.ErrAborted) || ctx.Err() != nil {
		f.complete(nil, err)
		return
	}
	n.driveGetRef(ctx, oid, f)
}

// GetAsync is the future form of Get: it resolves to a private copy of
// the object. The copy-out runs on its own goroutine once the object
// completes — never in the resolver's: the resolver is typically the
// data-plane pull goroutine firing OnDone watchers, which must stay
// cheap so the sender lease is released and the complete location
// registered without waiting behind large memcpys.
func (n *Node) GetAsync(ctx context.Context, oid types.ObjectID) *Future[[]byte] {
	f := newFuture[[]byte]()
	n.GetRefAsync(ctx, oid).subscribe(func(ref *ObjectRef, err error) {
		if err != nil {
			f.complete(nil, err)
			return
		}
		go func() {
			if ctx.Err() != nil {
				// Nobody is waiting for the bytes; skip the full-object
				// allocation and copy.
				ref.Release()
				f.complete(nil, ctx.Err())
				return
			}
			data := append([]byte(nil), ref.Bytes()...)
			ref.Release()
			f.complete(data, nil)
		}()
	})
	return f
}

// GetAll fetches a batch of objects concurrently — every fetch is in
// flight at once through the normal pull machinery — and blocks until all
// have resolved, returning payloads in input order. The first failure
// aborts the wait (in-flight pulls continue server-side).
func (n *Node) GetAll(ctx context.Context, oids []types.ObjectID) ([][]byte, error) {
	futs := make([]*Future[[]byte], len(oids))
	for i, oid := range oids {
		futs[i] = n.GetAsync(ctx, oid)
	}
	out := make([][]byte, len(oids))
	for i, f := range futs {
		v, err := f.Await(ctx)
		if err != nil {
			return nil, fmt.Errorf("core: get %v: %w", oids[i], err)
		}
		out[i] = v
	}
	return out, nil
}

// ReduceAsync is the future form of Reduce. The coordinator event loop is
// inherently active, so it runs in one goroutine for the lifetime of the
// reduce (not per blocked waiter); the future resolves with the sources
// used, exactly as Reduce returns them.
func (n *Node) ReduceAsync(ctx context.Context, target types.ObjectID, sources []types.ObjectID, num int, op types.ReduceOp) *Future[[]types.ObjectID] {
	f := newFuture[[]types.ObjectID]()
	go func() {
		used, err := n.Reduce(ctx, target, sources, num, op)
		f.complete(used, err)
	}()
	return f
}
