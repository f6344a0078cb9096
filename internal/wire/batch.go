// Write-side frame coalescing for control-plane connections.
//
// A caller appends its encoded frame to the connection's queue under a
// short lock. If no write is in flight, that caller becomes the writer: it
// writes the whole queue with one conn.Write and keeps writing until the
// queue is empty. Callers that arrive while a write is in flight append
// their frame and return at once, so the next Write carries it. An idle
// connection therefore sends each frame on its caller's goroutine with no
// hand-off, and a busy one packs many frames into one syscall. Frames are
// written in enqueue order, so a request precedes its MethodCancel.
package wire

import (
	"io"
	"sync"
	"sync/atomic"

	"hoplite/internal/types"
)

// maxQueuedBytes is the backpressure cap on the write queue: enqueuers
// block once this many encoded bytes are waiting for the writer.
const maxQueuedBytes = 1 << 20

// BatchStats counts write-side coalescing on one connection.
// Frames/Flushes is the average batch size; it grows with concurrency.
type BatchStats struct {
	Frames  int64 // logical frames enqueued
	Flushes int64 // write rounds (≈ syscalls) issued on the connection
}

// Add accumulates other into s (for aggregating across connections).
func (s *BatchStats) Add(other BatchStats) {
	s.Frames += other.Frames
	s.Flushes += other.Flushes
}

// batcher owns all writes to one connection.
type batcher struct {
	w     io.Writer
	onErr func(error) // run once, by the writer that saw the write fail, with mu released

	mu      sync.Mutex
	drain   sync.Cond // signaled when a write round ends or the batcher dies
	queue   []byte    // encoded frames awaiting the writer
	spare   []byte    // the batch last written, recycled as the next queue
	writing bool      // some caller is writing the queue
	closed  bool
	failed  error

	frames  atomic.Int64
	flushes atomic.Int64
}

func newBatcher(w io.Writer, onErr func(error)) *batcher {
	b := &batcher{w: w, onErr: onErr}
	b.drain.L = &b.mu
	return b
}

// enqueue encodes m onto the queue and, if no write is in flight, writes
// the queue on the calling goroutine until it is empty. It blocks while
// the queue is over the backpressure cap, so a slow conn stalls its
// callers instead of growing the queue without bound. A write failure is
// not returned: it marks the batcher dead and reaches the owner via onErr.
func (b *batcher) enqueue(m *Message) error {
	b.mu.Lock()
	for len(b.queue) >= maxQueuedBytes && b.deadLocked() == nil {
		b.drain.Wait()
	}
	err := b.deadLocked()
	if err == nil {
		b.queue, err = AppendMessage(b.queue, m)
	}
	if err == nil {
		b.frames.Add(1)
	}
	if err != nil || b.writing {
		b.mu.Unlock()
		return err
	}
	b.writing = true
	var werr error
	for len(b.queue) > 0 && b.deadLocked() == nil {
		batch := b.queue
		b.queue, b.spare = b.spare[:0], batch
		b.mu.Unlock()
		_, werr = b.w.Write(batch)
		b.flushes.Add(1)
		b.mu.Lock()
		if werr != nil {
			b.failed = werr
		}
		b.drain.Broadcast()
	}
	b.writing = false
	b.mu.Unlock()
	if werr != nil && b.onErr != nil {
		b.onErr(werr)
	}
	return nil
}

func (b *batcher) deadLocked() error {
	if b.failed != nil {
		return b.failed
	}
	if b.closed {
		return types.ErrClosed
	}
	return nil
}

// close rejects later frames with ErrClosed and stops the writer after
// its current Write. It never waits for that Write: onErr can reach close
// on the writer's own goroutine.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	b.drain.Broadcast()
	b.mu.Unlock()
}

// stats snapshots the batching counters.
func (b *batcher) stats() BatchStats {
	return BatchStats{Frames: b.frames.Load(), Flushes: b.flushes.Load()}
}
