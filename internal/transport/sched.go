// Egress scheduling: a weighted-fair, two-class byte scheduler over the
// concurrent pulls sharing one node's uplink. Without it, a saturating
// striped Get fills the egress path (and, under emulation, the token
// bucket's debt) so deep that a latency-sensitive small Get queued behind
// it waits for every in-flight bulk chunk. With it, chunk sends of the
// latency class and the bulk class alternate under a byte-deficit
// round-robin: each class may lead the other by at most one quantum of
// granted bytes, so a small pull transmits after at most roughly one bulk
// chunk already on the wire.
//
// The scheduler engages under cross-class contention, and bulk sends also
// serialize among themselves whenever several bulk streams are active:
// concurrent bulk writers would otherwise each keep a chunk queued in the
// shared egress path, so the standing backlog a small pull lands behind
// grows with the stream count instead of staying at ~one chunk. A
// single-stream workload — the common case, and every throughput benchmark
// — takes a fast path that grants bytes without serializing writers, so
// enabling the scheduler costs nothing until there is actual contention.
package transport

import (
	"sync"
)

// Scheduling classes. Latency-sensitive pulls (small full-object fetches)
// must not queue behind bulk traffic (striped ranged pulls, large
// transfers).
const (
	classLatency = 0
	classBulk    = 1
)

const (
	// bulkCutoff: a full pull of at least this many bytes is scheduled as
	// bulk; ranged (striped) pulls are always bulk.
	bulkCutoff = 1 << 20
	// frameOverhead is the per-chunk frame header size counted against a
	// class's granted bytes.
	frameOverhead = 5
)

// egress is the two-class deficit scheduler. All bookkeeping is under one
// mutex; the guarded sections only mutate counters (no I/O).
type egress struct {
	quantum int64
	mu      sync.Mutex
	cond    *sync.Cond
	// busy marks a contended-mode chunk send in flight: contended sends
	// serialize so a small chunk waits behind at most one bulk chunk of
	// wire (and shaper-debt) backlog, not an unbounded pipeline of them.
	busy bool
	// granted counts bytes granted per class; the deficit gate keeps the
	// two within one quantum of each other while both classes wait.
	granted [2]int64
	// users counts pulls currently registered per class (enter/exit);
	// pending counts sends blocked in the gate right now.
	users   [2]int
	pending [2]int
}

func newEgress(quantum int64) *egress {
	e := &egress{quantum: quantum}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// enter registers a pull of the given class for its lifetime. A class
// activating from idle is rebased to at most one quantum behind the other
// class, so credit banked while it was idle (a bulk stream that ran alone
// for gigabytes) cannot stall the other class — or itself — afterwards.
func (e *egress) enter(class int) {
	e.mu.Lock()
	if e.users[class] == 0 {
		if g := e.granted[1-class] - e.quantum; g > e.granted[class] {
			e.granted[class] = g
		}
	}
	e.users[class]++
	e.mu.Unlock()
}

// exit deregisters a pull registered with enter.
func (e *egress) exit(class int) {
	e.mu.Lock()
	e.users[class]--
	e.mu.Unlock()
	e.cond.Broadcast()
}

// send grants n bytes to class and runs fn to perform the write. When the
// other class is inactive the grant is free and fn runs concurrently with
// other senders (fast path). When both classes are active, sends serialize
// and the deficit gate bounds how far one class's granted bytes may run
// ahead of the other's; fn then receives contended=true so the caller
// flushes within its turn (bounding shaper debt to ~one chunk).
//
// Deadlock-freedom: the gate compares granted[class]+n against
// granted[other]+quantum, and the constructor guarantees quantum >= any n,
// so at least one class always passes.
func (e *egress) send(class int, n int64, fn func(contended bool) error) error {
	e.mu.Lock()
	other := 1 - class
	// Fast path: no cross-class contention, and (for bulk) no sibling bulk
	// streams whose queued chunks would deepen the shared egress backlog.
	// Latency-class sends never serialize among themselves: their chunks
	// are small and parallel small pulls should not queue on each other.
	solo := class == classLatency || e.users[class] <= 1
	if !e.busy && e.users[other] == 0 && e.pending[other] == 0 && solo {
		e.granted[class] += n
		e.mu.Unlock()
		return fn(false)
	}
	e.pending[class]++
	for e.busy || (e.pending[other] > 0 && e.granted[class]+n > e.granted[other]+e.quantum) {
		e.cond.Wait()
	}
	e.pending[class]--
	e.granted[class] += n
	e.busy = true
	e.mu.Unlock()
	err := fn(true)
	e.mu.Lock()
	e.busy = false
	e.mu.Unlock()
	e.cond.Broadcast()
	return err
}
