package core

import (
	"context"
	"fmt"

	"hoplite/internal/buffer"
	"hoplite/internal/types"
)

// ObjectWriter is the streaming producer handle returned by Node.Create:
// an io.Writer over a store buffer whose partial location is already
// registered in the directory, so downstream receivers, broadcast relays
// and streaming reduces pipeline off the chunk ledger while the producer
// is still writing (§3.3) — no full []byte is ever materialized on the
// producer side.
//
// The writer is single-goroutine; exactly one of Seal or Abort must end
// it. After any Write error the object has been torn down and only Abort
// (a no-op then) may follow.
type ObjectWriter struct {
	n       *Node
	ctx     context.Context
	oid     types.ObjectID
	buf     *buffer.Buffer
	size    int64
	written int64
	err     error // sticky failure
	done    bool  // sealed or aborted
}

// Create allocates a new immutable object of exactly size bytes and
// registers its (partial) location, returning a streaming writer for its
// payload. The object is pinned locally until Delete, like Put. Unlike
// Put there is no inline small-object fast path: every Created object
// lives in the store, whatever its size.
//
// ctx governs the admission wait, the directory registration here, and
// Seal. Under Config.MemoryLimit the allocation is admission-controlled:
// when the new object cannot fit — even after demoting or evicting every
// eligible cold object — Create blocks until room appears or ctx is done,
// turning an out-of-memory condition into backpressure instead of
// unbounded growth or failure.
func (n *Node) Create(ctx context.Context, oid types.ObjectID, size int64) (*ObjectWriter, error) {
	if size < 0 {
		return nil, fmt.Errorf("core: create %v with negative size %d", oid, size)
	}
	buf, err := n.store.CreateAdmit(ctx, oid, size, true)
	if err != nil {
		return nil, err
	}
	n.signalStoreChange()
	if err := n.dir.PutStarted(ctx, oid, size); err != nil {
		n.unput(oid)
		return nil, err
	}
	return &ObjectWriter{n: n, ctx: ctx, oid: oid, buf: buf, size: size}, nil
}

// OID returns the object being written.
func (w *ObjectWriter) OID() types.ObjectID { return w.oid }

// Size returns the declared object size.
func (w *ObjectWriter) Size() int64 { return w.size }

// Written returns how many bytes have been accepted so far.
func (w *ObjectWriter) Written() int64 { return w.written }

// Write appends p to the object, advancing the watermark in pipeline
// blocks so concurrent readers stream the new bytes immediately. Writing
// past the declared size, or into an object deleted concurrently, tears
// the object down (store entry and directory location) and returns a
// sticky error.
func (w *ObjectWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.done || (len(p) > 0 && w.written == w.size) {
		// Fully written (possibly awaiting a Seal retry) or spent: the
		// buffer may already be sealed, which Append would panic on.
		return 0, types.ErrClosed
	}
	if w.written+int64(len(p)) > w.size {
		w.teardown(fmt.Errorf("core: write past declared size %d of %v", w.size, w.oid))
		return 0, w.err
	}
	// Append at most one ledger chunk at a time: each append wakes the
	// readers streaming the object, so a large Write still feeds them block
	// by block (§5.1.1 reports a 4 MB pipelining block).
	for off := 0; off < len(p); off += buffer.DefaultLedgerChunk {
		end := off + buffer.DefaultLedgerChunk
		if end > len(p) {
			end = len(p)
		}
		if err := w.buf.Append(p[off:end]); err != nil {
			// Mid-write failure (concurrent Delete or node close): the
			// location was registered up front, so remove it — otherwise
			// remote receivers keep getting routed to a dead partial copy.
			w.teardown(err)
			return off, w.err
		}
		w.written += int64(end - off)
	}
	return len(p), nil
}

// Seal marks the object complete and publishes the complete location.
// All declared bytes must have been written. If publishing fails (a
// transient directory error or an expired ctx), the writer is NOT spent:
// the local buffer is already sealed and serving readers, and Seal may
// be retried to publish the complete location — or Abort called to tear
// the object down.
func (w *ObjectWriter) Seal() error {
	if w.err != nil {
		return w.err
	}
	if w.done {
		return types.ErrClosed
	}
	if w.written != w.size {
		w.teardown(fmt.Errorf("core: seal of %v after %d of %d bytes", w.oid, w.written, w.size))
		return w.err
	}
	w.buf.Seal() // idempotent across Seal retries
	if err := w.n.dir.PutComplete(w.ctx, w.oid); err != nil {
		return err
	}
	w.done = true
	return nil
}

// Abort abandons the object: readers blocked on it fail, the store entry
// and directory location are removed. Abort after a successful Seal, a
// Write error, or a previous Abort is a no-op; after a FAILED Seal it
// tears the unpublished object down, which is the cleanup path when the
// caller gives up on retrying Seal.
func (w *ObjectWriter) Abort() error {
	if w.done || w.err != nil {
		return nil
	}
	w.teardown(types.ErrAborted)
	return nil
}

// teardown records the sticky error and removes every trace of the
// half-written object.
func (w *ObjectWriter) teardown(err error) {
	w.err = err
	w.done = true
	w.n.unput(w.oid)
}

// unput drops oid's store entry, then its location, best-effort: a
// directory write whose ctx expired may still have been applied.
func (n *Node) unput(oid types.ObjectID) {
	n.store.Delete(oid)
	rctx, cancel := n.rpcCtx()
	_ = n.dir.RemoveLocation(rctx, oid)
	cancel()
}
