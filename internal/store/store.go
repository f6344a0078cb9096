// Package store implements the per-node object store (§2.1, §6): an
// in-memory table of immutable object buffers. Objects created by a local
// Put are pinned until Delete — guaranteeing at least one live copy exists
// to serve future Gets — while copies replicated from remote nodes are
// unpinned and evicted LRU when the store exceeds its capacity.
//
// The store can run as the top of a two-tier hierarchy: with a Demote
// callback configured (backed by internal/spill), memory pressure demotes
// cold complete copies to disk instead of dropping them — first unpinned
// replicas, then pinned locals, because a spilled copy still honors the
// pin's "this node can serve the object" guarantee. Demotion uses
// high/low watermark hysteresis, and admission control (CreateAdmit)
// turns "store full of undemotable objects" into ctx-governed
// backpressure instead of unbounded memory growth.
package store

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"hoplite/internal/buffer"
	"hoplite/internal/types"
)

// EvictFunc is called (outside the store lock) when an unpinned copy is
// evicted, so the node can remove its directory location.
type EvictFunc func(oid types.ObjectID)

// DemoteFunc persists an eviction victim to the spill tier, called
// outside the store lock. Returning false (spill disabled or a disk
// error) falls the victim back to plain eviction via EvictFunc. The
// buffer is complete, has no live refs, and is already out of the store
// table, so the implementation owns it exclusively.
type DemoteFunc func(oid types.ObjectID, buf *buffer.Buffer) bool

// Default watermark fractions of the capacity: demotion starts when an
// allocation would cross HighWater and drains down to LowWater, so one
// burst of demotions buys headroom instead of demoting one object per
// allocation at the boundary.
const (
	DefaultHighWater = 0.90
	DefaultLowWater  = 0.70
)

// Tier configures a Store.
type Tier struct {
	// Capacity bounds the in-memory bytes; <= 0 means unlimited.
	Capacity int64
	// HighWater/LowWater are fractions of Capacity bounding the demotion
	// hysteresis (defaults DefaultHighWater/DefaultLowWater). They only
	// apply when Demote is set; plain eviction triggers at Capacity.
	HighWater, LowWater float64
	// Admission makes CreateAdmit block (ctx-governed) while the new
	// object cannot fit under Capacity, instead of overshooting. Plain
	// Create/CreateChunked never block regardless.
	Admission bool
	// OnEvict is called for every dropped copy.
	OnEvict EvictFunc
	// Demote, if set, receives eviction victims for the spill tier.
	Demote DemoteFunc
	// PrepareDemote, if set, runs UNDER THE STORE LOCK in the same
	// critical section that unlinks each demotion victim from the table
	// (typically spill.Reserve). This keeps "in the store or findable in
	// the spill tier" atomic for concurrent readers — without it, a local
	// Get racing a batch demotion could miss both tiers and block on a
	// remote acquire that no sender can ever satisfy. It must be cheap,
	// non-blocking, and must not call back into the store.
	PrepareDemote func(oid types.ObjectID, size int64)
}

// Store is a node-local object store.
type Store struct {
	capacity  int64
	high, low int64 // demotion watermarks in bytes (== capacity when untired)
	admission bool
	onEvict   EvictFunc
	demote    DemoteFunc
	prepare   func(oid types.ObjectID, size int64)

	demoted atomic.Int64 // victims successfully handed to the spill tier

	mu      sync.Mutex
	used    int64
	objects map[types.ObjectID]*object
	lru     *list.List    // front = most recently used; unpinned, evictable oids
	pinned  *list.List    // same, for pinned objects (demotable, never droppable)
	space   chan struct{} // closed and replaced whenever used shrinks
	waiters int           // CreateAdmit callers parked on space right now
	closed  bool
}

type object struct {
	buf    *buffer.Buffer
	pinned bool
	elem   *list.Element // list entry on lru (unpinned) or pinned
}

// victim is an object removed from the table under the lock whose
// eviction callback still has to run outside it.
type victim struct {
	oid    types.ObjectID
	buf    *buffer.Buffer
	demote bool
	pinned bool
}

// New creates an untiered store: unpinned LRU eviction at capacity, no
// spill, no admission control. capacity <= 0 means unlimited.
func New(capacity int64, onEvict EvictFunc) *Store {
	return NewTiered(Tier{Capacity: capacity, OnEvict: onEvict})
}

// NewTiered creates a store with the full tier configuration.
func NewTiered(t Tier) *Store {
	if t.OnEvict == nil {
		t.OnEvict = func(types.ObjectID) {}
	}
	s := &Store{
		capacity:  t.Capacity,
		admission: t.Admission,
		onEvict:   t.OnEvict,
		demote:    t.Demote,
		prepare:   t.PrepareDemote,
		objects:   make(map[types.ObjectID]*object),
		lru:       list.New(),
		pinned:    list.New(),
		space:     make(chan struct{}),
	}
	high, low := t.HighWater, t.LowWater
	if high <= 0 || high > 1 {
		high = DefaultHighWater
	}
	if low <= 0 || low > high {
		low = DefaultLowWater
	}
	if low > high {
		low = high
	}
	s.high = int64(float64(t.Capacity) * high)
	s.low = int64(float64(t.Capacity) * low)
	return s
}

// Create allocates a buffer for a new object. pinned marks Put-created
// objects that must survive until Delete; unpinned objects are remote
// copies eligible for LRU eviction. It returns ErrExists if the object is
// already present. Create never blocks: allocations beyond capacity
// overshoot (internal paths — inbound pulls, a reduce target — must not
// deadlock the collectives they serve).
func (s *Store) Create(oid types.ObjectID, size int64, pinned bool) (*buffer.Buffer, error) {
	return s.CreateChunked(oid, size, 0, pinned)
}

// CreateChunked is Create with an explicit ledger chunk granularity
// (chunk <= 0 selects the default). Striped pulls size the claim grid to
// the object and sender count so every leased sender has a range to
// claim.
func (s *Store) CreateChunked(oid types.ObjectID, size, chunk int64, pinned bool) (*buffer.Buffer, error) {
	buf, _, err := s.create(oid, size, chunk, pinned, false, nil)
	return buf, err
}

// Replace is Create for a re-created object, a new generation of oid
// (§3.5.2): an existing entry is swapped for the fresh buffer in one step
// and aborted (see Abort). With a non-nil prev the swap happens only while
// prev is the entry; otherwise Replace returns types.ErrAborted, as the
// entry belongs to someone else.
func (s *Store) Replace(oid types.ObjectID, prev *buffer.Buffer, size int64, pinned bool) (*buffer.Buffer, error) {
	buf, old, err := s.create(oid, size, 0, pinned, true, prev)
	abort(old)
	return buf, err
}

// Abort drops oid's entry when it is buf, or any entry when buf is nil: a
// copy of a generation that a re-creation superseded. It fails with
// types.ErrAborted and is retired, so its readers retry and find the
// store's next entry. It reports whether an entry was dropped.
func (s *Store) Abort(oid types.ObjectID, buf *buffer.Buffer) bool {
	s.mu.Lock()
	old := s.unlinkLocked(oid, buf)
	s.signalSpaceLocked()
	s.mu.Unlock()
	abort(old)
	return old != nil
}

func abort(buf *buffer.Buffer) {
	if buf != nil {
		buf.Fail(types.ErrAborted)
		buf.Retire()
	}
}

// create inserts a fresh buffer for oid. An existing entry is ErrExists,
// or, with replace, unlinked (only while it is prev, when prev is set)
// and returned as old.
func (s *Store) create(oid types.ObjectID, size, chunk int64, pinned, replace bool, prev *buffer.Buffer) (buf, old *buffer.Buffer, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, types.ErrClosed
	}
	if replace {
		if old = s.unlinkLocked(oid, prev); old == nil && prev != nil {
			s.mu.Unlock()
			return nil, nil, fmt.Errorf("store: %v replaced: %w", oid, types.ErrAborted)
		}
	}
	if _, ok := s.objects[oid]; ok {
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("store: %v: %w", oid, types.ErrExists)
	}
	victims := s.makeRoomLocked(size)
	buf = s.insertLocked(oid, buffer.NewChunked(size, chunk), pinned)
	s.mu.Unlock()
	s.finishEviction(victims)
	return buf, old, nil
}

// unlinkLocked removes oid's entry, when it is want or want is nil, and
// returns its buffer.
func (s *Store) unlinkLocked(oid types.ObjectID, want *buffer.Buffer) *buffer.Buffer {
	o, ok := s.objects[oid]
	if !ok || (want != nil && o.buf != want) {
		return nil
	}
	s.removeLocked(o)
	delete(s.objects, oid)
	s.used -= o.buf.Size()
	return o.buf
}

// CreateAdmit is Create with admission backpressure: when the store was
// built with Tier.Admission and the new object cannot fit under the
// capacity even after demoting/evicting every eligible victim, it blocks
// until room appears or ctx is done — the "degrade to waiting, not to
// failure" discipline for out-of-core workloads. Without Admission it is
// identical to Create.
func (s *Store) CreateAdmit(ctx context.Context, oid types.ObjectID, size int64, pinned bool) (*buffer.Buffer, error) {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, types.ErrClosed
		}
		if _, ok := s.objects[oid]; ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("store: %v: %w", oid, types.ErrExists)
		}
		victims := s.makeRoomLocked(size)
		if !s.admission || s.capacity <= 0 || s.used+size <= s.capacity {
			buf := s.insertLocked(oid, buffer.NewChunked(size, 0), pinned)
			s.mu.Unlock()
			s.finishEviction(victims)
			return buf, nil
		}
		ch := s.space
		s.waiters++
		s.mu.Unlock()
		s.finishEviction(victims)
		// Purely event-driven: every transition that can open room — used
		// shrinking, the last reader ref dropping, a buffer sealing, an
		// object unpinning — fires the space signal.
		select {
		case <-ch:
		case <-ctx.Done():
		}
		s.mu.Lock()
		s.waiters--
		s.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// insertLocked registers buf for oid and accounts its size. The buffer's
// evictability transitions that do not change the store's byte
// accounting — the last reader pin dropping, and the seal that turns an
// in-progress write into a complete (victim-eligible) copy — are hooked
// to wake admission waiters, so CreateAdmit never has to poll.
func (s *Store) insertLocked(oid types.ObjectID, buf *buffer.Buffer, pinned bool) *buffer.Buffer {
	o := &object{buf: buf, pinned: pinned}
	if pinned {
		o.elem = s.pinned.PushFront(oid)
	} else {
		o.elem = s.lru.PushFront(oid)
	}
	s.objects[oid] = o
	s.used += buf.Size()
	buf.OnRelease(s.signalSpace)
	if !buf.Complete() {
		// Already-complete buffers (InsertSealed) would fire the OnDone
		// callback synchronously under s.mu; they also free nothing, so
		// no wakeup is owed for them.
		buf.OnDone(func(error) { s.signalSpace() })
	}
	return buf
}

// InsertSealed stores an already-complete payload (e.g. a small object
// fetched inline) without copying. Exactly one of the returned buffer and
// error is non-nil: when a complete copy already exists the insert is
// idempotent (objects are immutable) and the existing buffer is returned
// with a nil error; when the existing entry is still being written it
// returns ErrExists.
func (s *Store) InsertSealed(oid types.ObjectID, data []byte, pinned bool) (*buffer.Buffer, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, types.ErrClosed
	}
	if o, ok := s.objects[oid]; ok {
		if o.buf.Complete() {
			s.touchLocked(o)
			s.mu.Unlock()
			return o.buf, nil
		}
		s.mu.Unlock()
		return nil, fmt.Errorf("store: %v: %w", oid, types.ErrExists)
	}
	victims := s.makeRoomLocked(int64(len(data)))
	buf := s.insertLocked(oid, buffer.FromBytes(data), pinned)
	s.mu.Unlock()
	s.finishEviction(victims)
	return buf, nil
}

// makeRoomLocked selects eviction victims for an allocation of size,
// removing them from the table and accounting immediately; the returned
// victims' callbacks (demote or evict) run outside the lock via
// finishEviction. Objects still being written are never victims, and
// neither are buffers with live reader refs (pinned zero-copy views
// handed out via Acquire) — evicting under a live reader is the
// use-after-evict hazard the handle API exists to prevent.
//
// Untiered (no Demote): unpinned complete LRU objects are dropped until
// size fits under capacity — a single backward pass, so a long run of
// unevictable buffers is skipped once instead of rescanned per victim.
//
// Tiered: when the allocation would cross the high watermark, victims are
// demoted down to the low watermark — cold unpinned replicas first, then
// cold pinned locals, because a spilled copy still serves Gets and so
// honors the pin.
func (s *Store) makeRoomLocked(size int64) []victim {
	if s.capacity <= 0 {
		return nil
	}
	var victims []victim
	if s.demote == nil {
		victims = s.reapLocked(s.lru, s.capacity-size, false, victims)
	} else if s.used+size > s.high {
		target := s.low - size
		victims = s.reapLocked(s.lru, target, true, victims)
		victims = s.reapLocked(s.pinned, target, true, victims)
	}
	if victims != nil {
		s.signalSpaceLocked()
	}
	return victims
}

// reapLocked walks l from its cold end collecting complete, unreffed
// victims until used <= target.
func (s *Store) reapLocked(l *list.List, target int64, demote bool, victims []victim) []victim {
	for e := l.Back(); e != nil && s.used > target; {
		prev := e.Prev()
		oid := e.Value.(types.ObjectID)
		if o := s.objects[oid]; o != nil && o.buf.Complete() && o.buf.Refs() == 0 {
			l.Remove(e)
			delete(s.objects, oid)
			s.used -= o.buf.Size()
			if demote && s.prepare != nil {
				// Reserve the spill-tier slot in the same critical
				// section that unlinks the victim: a concurrent reader
				// always finds the object in one tier or the other.
				s.prepare(oid, o.buf.Size())
			}
			victims = append(victims, victim{oid: oid, buf: o.buf, demote: demote, pinned: o.pinned})
		}
		e = prev
	}
	return victims
}

// finishEviction runs the victims' callbacks outside the store lock. A
// demotion that the spill tier refuses (disk error) degrades by victim
// kind: unpinned replicas are plainly evicted — another node still holds
// the object — but a pinned local is re-inserted into the store
// (overshooting the budget, the pre-tier behavior), because dropping it
// would break Put's serve-forever guarantee exactly when the disk
// misbehaves.
func (s *Store) finishEviction(victims []victim) {
	for _, v := range victims {
		if v.demote && s.demote(v.oid, v.buf) {
			s.demoted.Add(1)
			continue
		}
		if v.demote && v.pinned && s.reinsert(v.oid, v.buf) {
			continue
		}
		s.onEvict(v.oid)
	}
}

// reinsert puts a failed pinned demotion victim back into the table. It
// reports false when the store closed or a racing writer re-created the
// entry (the newer entry supersedes ours).
func (s *Store) reinsert(oid types.ObjectID, buf *buffer.Buffer) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if _, ok := s.objects[oid]; ok {
		return false
	}
	s.insertLocked(oid, buf, true)
	return true
}

// signalSpaceLocked wakes CreateAdmit waiters after used shrank. With no
// waiter parked the channel is kept as is: rotating it would put one
// channel allocation on every handle release and unpin, which is exactly
// the hot path the zero-copy GetRef bar (0 allocs/op) measures. A future
// waiter cannot miss the skipped signal — it re-checks the admission
// condition under this same lock before capturing the channel.
func (s *Store) signalSpaceLocked() {
	if s.waiters == 0 {
		return
	}
	close(s.space)
	s.space = make(chan struct{})
}

// signalSpace is the hook form of signalSpaceLocked, fired by buffer
// release/seal transitions that make an object newly evictable.
func (s *Store) signalSpace() {
	s.mu.Lock()
	if !s.closed {
		s.signalSpaceLocked()
	}
	s.mu.Unlock()
}

// touchLocked marks o recently used on whichever list holds it.
func (s *Store) touchLocked(o *object) {
	if o.elem == nil {
		return
	}
	if o.pinned {
		s.pinned.MoveToFront(o.elem)
	} else {
		s.lru.MoveToFront(o.elem)
	}
}

// removeLocked drops o's list entry.
func (s *Store) removeLocked(o *object) {
	if o.elem == nil {
		return
	}
	if o.pinned {
		s.pinned.Remove(o.elem)
	} else {
		s.lru.Remove(o.elem)
	}
	o.elem = nil
}

// Get returns the buffer for oid, marking it recently used.
func (s *Store) Get(oid types.ObjectID) (*buffer.Buffer, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[oid]
	if !ok {
		return nil, false
	}
	s.touchLocked(o)
	return o.buf, true
}

// Acquire returns the buffer for oid with one reader ref taken while the
// store lock is held, so the buffer cannot be evicted (or demoted)
// between lookup and pin. The caller owns the ref and must balance it
// with buffer.Unref (normally via ObjectRef.Release). Eviction and
// demotion skip buffers with live refs, so the returned view stays valid
// until released even under store pressure.
func (s *Store) Acquire(oid types.ObjectID) (*buffer.Buffer, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[oid]
	if !ok {
		return nil, false
	}
	s.touchLocked(o)
	o.buf.Ref()
	return o.buf, true
}

// Pin marks an existing object non-evictable (though still demotable to
// the spill tier, which preserves the serve-forever guarantee).
func (s *Store) Pin(oid types.ObjectID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[oid]
	if !ok {
		return false
	}
	if !o.pinned {
		s.removeLocked(o)
		o.pinned = true
		o.elem = s.pinned.PushFront(oid)
	}
	return true
}

// Unpin makes an object evictable again.
func (s *Store) Unpin(oid types.ObjectID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[oid]
	if !ok {
		return false
	}
	if o.pinned {
		s.removeLocked(o)
		o.pinned = false
		o.elem = s.lru.PushFront(oid)
		// Newly LRU-evictable: admission waiters may now fit.
		s.signalSpaceLocked()
	}
	return true
}

// Delete removes an object regardless of pinning, retiring its buffer: an
// incomplete buffer fails so in-flight readers abort, and the payload
// array is recycled once the last reader pin drops. It reports whether the
// object was present.
func (s *Store) Delete(oid types.ObjectID) bool {
	s.mu.Lock()
	old := s.unlinkLocked(oid, nil)
	s.signalSpaceLocked()
	s.mu.Unlock()
	if old != nil {
		old.Retire()
	}
	return old != nil
}

// Contains reports whether the object is present (partial or complete).
func (s *Store) Contains(oid types.ObjectID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objects[oid]
	return ok
}

// Used returns the bytes currently allocated.
func (s *Store) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
}

// Demotions returns how many victims were handed to the spill tier.
func (s *Store) Demotions() int64 { return s.demoted.Load() }

// Close fails every buffer and empties the store.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	objs := make([]*object, 0, len(s.objects))
	for _, o := range s.objects {
		objs = append(objs, o)
	}
	s.objects = make(map[types.ObjectID]*object)
	s.lru.Init()
	s.pinned.Init()
	s.used = 0
	s.signalSpaceLocked()
	s.mu.Unlock()
	for _, o := range objs {
		o.buf.Fail(types.ErrClosed)
	}
}
