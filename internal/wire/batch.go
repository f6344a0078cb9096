// Write-side frame batching for control-plane connections.
//
// The original write path took a connection-wide mutex, encoded one frame,
// and flushed it — one syscall per logical call, with every concurrent
// caller serialized behind the lock for the duration of the kernel write.
// Under the high-QPS small-object workload (paper Fig11/Fig14) that
// per-call flush is the dominant control-plane cost.
//
// The batcher inverts the structure: callers only append their encoded
// frame to a shared queue under a short lock, and a single flusher
// goroutine drains whatever has accumulated with ONE conn.Write per
// wakeup. While that write is in flight, new frames pile into the queue
// and ride the next write, so batch size adapts to load: an idle
// connection still sends every frame immediately (batching never adds
// latency), a busy one coalesces dozens of frames per syscall.
// Frames drain in enqueue order, preserving the transport invariant that
// a request precedes its MethodCancel on the wire.
package wire

import (
	"io"
	"sync"
	"sync/atomic"

	"hoplite/internal/types"
)

// maxQueuedBytes is the backpressure cap on the write queue: enqueuers
// block once this many encoded bytes are waiting for the flusher.
const maxQueuedBytes = 1 << 20

// BatchStats counts write-side batching activity on one connection.
// Frames/Flushes is the average batch size; it grows with concurrency.
type BatchStats struct {
	Frames  int64 // logical frames enqueued
	Flushes int64 // write rounds (≈ syscalls) issued on the connection
	Bytes   int64 // encoded bytes written
}

// Add accumulates other into s (for aggregating across connections).
func (s *BatchStats) Add(other BatchStats) {
	s.Frames += other.Frames
	s.Flushes += other.Flushes
	s.Bytes += other.Bytes
}

// batcher owns all writes to one connection.
type batcher struct {
	w     io.Writer
	onErr func(error) // invoked (once, on the flusher goroutine) on write failure

	mu     sync.Mutex
	drain  sync.Cond // signaled when the queue empties or the batcher dies
	queue  []byte    // encoded frames awaiting the flusher
	spare  []byte    // previous batch buffer, recycled to avoid realloc
	closed bool
	failed error

	kick chan struct{} // wakes the flusher; cap 1
	stop chan struct{} // closed by close()

	frames  atomic.Int64
	flushes atomic.Int64
	bytes   atomic.Int64
}

func newBatcher(w io.Writer, onErr func(error)) *batcher {
	b := &batcher{
		w:     w,
		onErr: onErr,
		queue: make([]byte, 0, 1024),
		spare: make([]byte, 0, 1024),
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
	}
	b.drain.L = &b.mu
	go b.run()
	return b
}

// enqueue encodes m onto the queue and wakes the flusher. It blocks only
// when the queue is over the backpressure cap — i.e. the connection cannot
// keep up — so a slow conn stalls its callers instead of growing the queue
// without bound.
func (b *batcher) enqueue(m *Message) error {
	b.mu.Lock()
	for len(b.queue) >= maxQueuedBytes && b.failed == nil && !b.closed {
		b.drain.Wait()
	}
	if err := b.deadLocked(); err != nil {
		b.mu.Unlock()
		return err
	}
	q, err := AppendMessage(b.queue, m)
	if err != nil {
		b.mu.Unlock()
		return err
	}
	b.queue = q
	b.mu.Unlock()
	b.frames.Add(1)
	select {
	case b.kick <- struct{}{}:
	default: // flusher already signaled
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

// run is the flusher: one goroutine per connection draining the queue.
func (b *batcher) run() {
	for {
		select {
		case <-b.kick:
		case <-b.stop:
			b.flush() // final drain, best effort
			return
		}
		if !b.flush() {
			return
		}
	}
}

// flush swaps the queue out under the lock, writes it with the lock
// released (concurrent enqueuers keep filling the fresh queue), and
// recycles the drained buffer. Returns false when the batcher is done.
func (b *batcher) flush() bool {
	b.mu.Lock()
	batch := b.queue
	b.queue = b.spare[:0]
	b.spare = nil
	b.mu.Unlock()

	var err error
	if len(batch) > 0 {
		_, err = b.w.Write(batch)
		b.flushes.Add(1)
		b.bytes.Add(int64(len(batch)))
	}

	b.mu.Lock()
	b.spare = batch[:0]
	if err != nil && b.failed == nil {
		b.failLocked(err)
	}
	dead := b.failed != nil || b.closed
	b.drain.Broadcast()
	b.mu.Unlock()

	if err != nil && b.onErr != nil {
		b.onErr(err)
	}
	return !dead
}

// failLocked marks the batcher dead. Callers hold b.mu.
func (b *batcher) failLocked(err error) {
	b.failed = err
	b.drain.Broadcast()
}

// close stops the flusher after a final best-effort drain. Frames
// enqueued after close are rejected with ErrClosed.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.drain.Broadcast()
	b.mu.Unlock()
	close(b.stop)
}

// stats snapshots the batching counters.
func (b *batcher) stats() BatchStats {
	return BatchStats{
		Frames:  b.frames.Load(),
		Flushes: b.flushes.Load(),
		Bytes:   b.bytes.Load(),
	}
}
