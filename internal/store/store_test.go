package store

import (
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hoplite/internal/buffer"
	"hoplite/internal/types"
)

func oid(i int) types.ObjectID { return types.ObjectID{byte(i), byte(i >> 8)} }

func TestCreateGetDelete(t *testing.T) {
	s := New(0, nil)
	buf, err := s.Create(oid(1), 10, false)
	if err != nil {
		t.Fatal(err)
	}
	buf.Append(make([]byte, 10))
	buf.Seal()
	got, ok := s.Get(oid(1))
	if !ok || got != buf {
		t.Fatal("Get did not return buffer")
	}
	if !s.Delete(oid(1)) {
		t.Fatal("Delete reported absent")
	}
	if _, ok := s.Get(oid(1)); ok {
		t.Fatal("object survives Delete")
	}
	// A sealed buffer is never failed (readers hold valid data); an
	// in-progress buffer must be failed so blocked readers abort.
	if got.Failed() != nil {
		t.Fatal("sealed buffer failed by Delete")
	}
	part, err := s.Create(oid(2), 8, false)
	if err != nil {
		t.Fatal(err)
	}
	s.Delete(oid(2))
	if !errors.Is(part.Failed(), types.ErrDeleted) {
		t.Fatal("incomplete buffer not failed by Delete")
	}
}

func TestCreateDuplicate(t *testing.T) {
	s := New(0, nil)
	if _, err := s.Create(oid(1), 4, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(oid(1), 4, true); !errors.Is(err, types.ErrExists) {
		t.Fatalf("got %v", err)
	}
}

// Replace swaps an entry for a fresh buffer in one step: the old buffer
// fails with ErrAborted (its readers retry onto the new one), and the byte
// accounting holds the new size only. A conditional Replace or Abort
// leaves an entry that is not the named buffer alone.
func TestReplace(t *testing.T) {
	s := New(0, nil)
	first, err := s.Replace(oid(1), nil, 4, true) // no entry yet: a plain create
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Replace(oid(1), first, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Replace(oid(1), first, 8, true); !errors.Is(err, types.ErrAborted) {
		t.Fatalf("Replace of a stale entry: %v, want ErrAborted", err)
	}
	if s.Abort(oid(1), first) {
		t.Fatal("Abort dropped an entry that is not the named buffer")
	}
	if !errors.Is(first.Failed(), types.ErrAborted) {
		t.Fatalf("replaced buffer failed with %v, want ErrAborted", first.Failed())
	}
	if got, ok := s.Get(oid(1)); !ok || got != second || second.Failed() != nil {
		t.Fatal("the fresh buffer is not the live entry")
	}
	if s.Used() != 6 || s.Len() != 1 {
		t.Fatalf("used %d bytes in %d entries, want 6 in 1", s.Used(), s.Len())
	}
	if !s.Abort(oid(1), nil) || !errors.Is(second.Failed(), types.ErrAborted) || s.Len() != 0 || s.Used() != 0 {
		t.Fatal("Abort did not drop and fail the entry")
	}
}

func TestInsertSealed(t *testing.T) {
	s := New(0, nil)
	buf, err := s.InsertSealed(oid(2), []byte("abc"), false)
	if err != nil {
		t.Fatal(err)
	}
	if !buf.Complete() || string(buf.Bytes()) != "abc" {
		t.Fatal("sealed insert wrong")
	}
	if s.Used() != 3 {
		t.Fatalf("used %d", s.Used())
	}
}

func TestInsertSealedExistingComplete(t *testing.T) {
	s := New(0, nil)
	first, err := s.InsertSealed(oid(1), []byte("abc"), false)
	if err != nil {
		t.Fatal(err)
	}
	// Idempotent re-insert of an immutable object: the existing buffer
	// comes back with a nil error (one-or-the-other contract).
	again, err := s.InsertSealed(oid(1), []byte("abc"), false)
	if err != nil {
		t.Fatalf("re-insert of complete object errored: %v", err)
	}
	if again != first {
		t.Fatal("re-insert returned a different buffer")
	}
	if s.Used() != 3 {
		t.Fatalf("used %d, want 3 (no double accounting)", s.Used())
	}
}

func TestInsertSealedExistingIncomplete(t *testing.T) {
	s := New(0, nil)
	if _, err := s.Create(oid(1), 10, false); err != nil {
		t.Fatal(err)
	}
	buf, err := s.InsertSealed(oid(1), make([]byte, 10), false)
	if !errors.Is(err, types.ErrExists) {
		t.Fatalf("got %v, want ErrExists", err)
	}
	if buf != nil {
		t.Fatal("got both a buffer and an error")
	}
}

// Satellite regression: concurrent eviction-triggering inserts racing
// against in-progress writes to partial buffers. A buffer must never be
// evicted while incomplete, and the single-pass eviction scan must keep
// making room past a run of unevictable partials.
func TestConcurrentEvictionVsInProgressWrites(t *testing.T) {
	const writers = 8
	bufs := make(map[types.ObjectID]*buffer.Buffer)
	var mu sync.Mutex
	s := New(4096, func(o types.ObjectID) {
		// Completeness is monotonic, so an incomplete buffer seen here was
		// incomplete when the eviction scan chose it — a bug.
		mu.Lock()
		b := bufs[o]
		mu.Unlock()
		if b != nil && !b.Complete() {
			t.Errorf("incomplete buffer %v evicted", o)
		}
	})

	// A pool of partial buffers being written (and eventually sealed)
	// while eviction churn runs.
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		id := oid(1000 + w)
		buf, err := s.Create(id, 256, false)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		bufs[id] = buf
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 256; i += 16 {
				if err := buf.Append(make([]byte, 16)); err != nil {
					return
				}
			}
			buf.Seal()
		}()
	}
	// Sealed inserts churn the store over capacity, forcing evictions
	// that must walk past the in-progress buffers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := oid(10000 + w*1000 + i)
				mu.Lock()
				bufs[id] = nil
				mu.Unlock()
				b, err := s.InsertSealed(id, make([]byte, 512), false)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				bufs[id] = b
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	// Eviction must have kept the store near capacity despite the run of
	// partials at the front of the LRU.
	if s.Used() > 4096+8*256+512 {
		t.Fatalf("used %d: eviction failed to make room", s.Used())
	}
}

func TestLRUEviction(t *testing.T) {
	var evicted []types.ObjectID
	var mu sync.Mutex
	s := New(30, func(o types.ObjectID) {
		mu.Lock()
		evicted = append(evicted, o)
		mu.Unlock()
	})
	for i := 0; i < 3; i++ {
		buf, err := s.InsertSealed(oid(i), make([]byte, 10), false)
		if err != nil {
			t.Fatal(err)
		}
		_ = buf
	}
	// Touch object 0 so object 1 is LRU.
	s.Get(oid(0))
	if _, err := s.InsertSealed(oid(9), make([]byte, 10), false); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(evicted) != 1 || evicted[0] != oid(1) {
		t.Fatalf("evicted %v, want [oid(1)]", evicted)
	}
	if s.Used() != 30 {
		t.Fatalf("used %d", s.Used())
	}
}

func TestPinnedNeverEvicted(t *testing.T) {
	s := New(20, nil)
	if _, err := s.InsertSealed(oid(1), make([]byte, 10), true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertSealed(oid(2), make([]byte, 10), true); err != nil {
		t.Fatal(err)
	}
	// Over capacity with only pinned objects: allowed to overflow.
	if _, err := s.InsertSealed(oid(3), make([]byte, 10), true); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if !s.Contains(oid(i)) {
			t.Fatalf("pinned object %d evicted", i)
		}
	}
}

func TestIncompleteNeverEvicted(t *testing.T) {
	s := New(10, nil)
	if _, err := s.Create(oid(1), 10, false); err != nil {
		t.Fatal(err)
	}
	// partial, unpinned, but incomplete: not evictable
	if _, err := s.InsertSealed(oid(2), make([]byte, 10), false); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(oid(1)) {
		t.Fatal("incomplete object evicted")
	}
}

func TestPinUnpin(t *testing.T) {
	s := New(10, nil)
	if _, err := s.InsertSealed(oid(1), make([]byte, 10), false); err != nil {
		t.Fatal(err)
	}
	if !s.Pin(oid(1)) {
		t.Fatal("Pin failed")
	}
	if _, err := s.InsertSealed(oid(2), make([]byte, 10), false); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(oid(1)) {
		t.Fatal("pinned object evicted")
	}
	if !s.Unpin(oid(1)) {
		t.Fatal("Unpin failed")
	}
	if s.Pin(oid(99)) {
		t.Fatal("Pin of absent object succeeded")
	}
}

func TestCloseFailsBuffers(t *testing.T) {
	s := New(0, nil)
	buf, _ := s.Create(oid(1), 5, true)
	s.Close()
	if !errors.Is(buf.Failed(), types.ErrClosed) {
		t.Fatal("buffer not failed on close")
	}
	if _, err := s.Create(oid(2), 5, false); !errors.Is(err, types.ErrClosed) {
		t.Fatal("create after close succeeded")
	}
	if s.Len() != 0 {
		t.Fatal("store not empty after close")
	}
}

// Property: used-bytes accounting matches the sum of live object sizes
// under arbitrary insert/delete sequences, and pinned objects survive.
func TestAccountingProperty(t *testing.T) {
	fn := func(ops []uint16) bool {
		s := New(500, nil)
		live := map[types.ObjectID]int64{}
		pinned := map[types.ObjectID]bool{}
		for _, op := range ops {
			id := oid(int(op % 16))
			switch (op / 16) % 3 {
			case 0:
				size := int64(op%97) + 1
				pin := op%2 == 0
				if _, ok := live[id]; ok {
					// Idempotent re-insert of an existing complete object:
					// the store keeps the original entry (size and pin).
					if _, err := s.InsertSealed(id, make([]byte, size), pin); err != nil {
						return false
					}
				} else if _, err := s.InsertSealed(id, make([]byte, size), pin); err == nil {
					live[id] = size
					pinned[id] = pin
				}
			case 1:
				if s.Delete(id) {
					delete(live, id)
					delete(pinned, id)
				}
			case 2:
				s.Get(id)
			}
			// Reconcile: evictions may have removed unpinned entries.
			for id := range live {
				if !s.Contains(id) {
					if pinned[id] {
						return false // pinned object vanished
					}
					delete(live, id)
					delete(pinned, id)
				}
			}
			var want int64
			for _, sz := range live {
				want += sz
			}
			if s.Used() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAcquireRefBlocksEviction is the regression test for the
// GetImmutable recycle hazard: a copy with a live reader ref must survive
// store-pressure eviction, and become evictable again once released.
func TestAcquireRefBlocksEviction(t *testing.T) {
	s := New(30, nil)
	if _, err := s.InsertSealed(oid(1), make([]byte, 10), false); err != nil {
		t.Fatal(err)
	}
	buf, ok := s.Acquire(oid(1))
	if !ok {
		t.Fatal("Acquire missed present object")
	}
	if buf.Refs() != 1 {
		t.Fatalf("refs = %d, want 1", buf.Refs())
	}
	// Two more inserts leave no room: the unpinned-but-ref'd object would
	// be the LRU victim, but must be skipped.
	for i := 2; i <= 4; i++ {
		if _, err := s.InsertSealed(oid(i), make([]byte, 10), false); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Contains(oid(1)) {
		t.Fatal("object with live ref was evicted")
	}
	buf.Unref()
	if _, err := s.InsertSealed(oid(5), make([]byte, 10), false); err != nil {
		t.Fatal(err)
	}
	if s.Contains(oid(1)) {
		t.Fatal("released LRU object not evicted under pressure")
	}
}

// TestConcurrentReleaseVsEviction hammers Acquire/Unref against inserts
// that force eviction; run under -race it checks the ref count and the
// eviction scan never race. Acquired views must always read valid data.
func TestConcurrentReleaseVsEviction(t *testing.T) {
	s := New(64, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if buf, ok := s.Acquire(oid(1)); ok {
					if buf.Complete() && buf.Bytes()[0] != 7 {
						t.Error("acquired view reads corrupt data")
					}
					buf.Unref()
				} else {
					payload := make([]byte, 16)
					payload[0] = 7
					_, _ = s.InsertSealed(oid(1), payload, false)
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		_, _ = s.InsertSealed(oid(2+i%8), make([]byte, 16), false)
	}
	close(stop)
	wg.Wait()
}

// sealedObj creates a sealed object of size bytes.
func sealedObj(t *testing.T, s *Store, id types.ObjectID, size int, pinned bool) {
	t.Helper()
	b, err := s.Create(id, int64(size), pinned)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Append(make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	b.Seal()
}

// TestTieredDemotionWatermarks checks the hysteresis: an allocation
// crossing the high watermark demotes cold objects (never plain-evicts
// them) down to the low watermark, oldest first.
func TestTieredDemotionWatermarks(t *testing.T) {
	var mu sync.Mutex
	var demoted []types.ObjectID
	s := NewTiered(Tier{
		Capacity:  1000,
		HighWater: 0.9,
		LowWater:  0.5,
		OnEvict: func(id types.ObjectID) {
			t.Errorf("object %v evicted; tiered store must demote", id)
		},
		Demote: func(id types.ObjectID, b *buffer.Buffer) bool {
			mu.Lock()
			demoted = append(demoted, id)
			mu.Unlock()
			return true
		},
	})
	for i := 0; i < 8; i++ {
		sealedObj(t, s, oid(i), 100, false)
	}
	if s.Demotions() != 0 {
		t.Fatalf("%d demotions below the high watermark", s.Demotions())
	}
	// used+size = 800+200 > 900: demote until used+200 <= 500.
	sealedObj(t, s, oid(100), 200, false)
	mu.Lock()
	got := append([]types.ObjectID(nil), demoted...)
	mu.Unlock()
	if len(got) != 5 {
		t.Fatalf("demoted %d objects, want 5 (%v)", len(got), got)
	}
	for i, id := range got {
		if id != oid(i) {
			t.Fatalf("demotion order %v; want coldest-first", got)
		}
	}
	if s.Used() != 500 {
		t.Fatalf("used %d after demotion, want 500", s.Used())
	}
	if s.Demotions() != 5 {
		t.Fatalf("Demotions() = %d", s.Demotions())
	}
}

// TestTieredDemotesPinnedAfterUnpinned: pinned objects are demotable (a
// spilled copy still serves), but only after every cold unpinned replica.
func TestTieredDemotesPinnedAfterUnpinned(t *testing.T) {
	var mu sync.Mutex
	var demoted []types.ObjectID
	s := NewTiered(Tier{
		Capacity:  1000,
		HighWater: 0.9,
		LowWater:  0.3,
		Demote: func(id types.ObjectID, b *buffer.Buffer) bool {
			mu.Lock()
			demoted = append(demoted, id)
			mu.Unlock()
			return true
		},
	})
	sealedObj(t, s, oid(0), 300, true) // pinned, cold
	sealedObj(t, s, oid(1), 300, false)
	sealedObj(t, s, oid(2), 300, false)
	// 900+300 > 900: target 300-300=0 → both unpinned go, then the pinned.
	sealedObj(t, s, oid(3), 300, true)
	mu.Lock()
	got := append([]types.ObjectID(nil), demoted...)
	mu.Unlock()
	want := []types.ObjectID{oid(1), oid(2), oid(0)}
	if len(got) != len(want) {
		t.Fatalf("demoted %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("demoted %v, want unpinned-then-pinned %v", got, want)
		}
	}
}

// TestDemoteFailureFallsBackToEviction: a spill tier refusing a victim
// (disk trouble) degrades to plain eviction rather than wedging.
func TestDemoteFailureFallsBackToEviction(t *testing.T) {
	var evicted []types.ObjectID
	s := NewTiered(Tier{
		Capacity: 1000,
		OnEvict:  func(id types.ObjectID) { evicted = append(evicted, id) },
		Demote:   func(types.ObjectID, *buffer.Buffer) bool { return false },
	})
	sealedObj(t, s, oid(0), 900, false)
	sealedObj(t, s, oid(1), 500, false)
	if len(evicted) != 1 || evicted[0] != oid(0) {
		t.Fatalf("evicted %v", evicted)
	}
	if s.Demotions() != 0 {
		t.Fatal("failed demotion counted")
	}
}

// TestCreateAdmitBackpressure: with admission on, an allocation that
// cannot fit blocks until room appears (here: a Delete) or its ctx dies,
// instead of overshooting the budget.
func TestCreateAdmitBackpressure(t *testing.T) {
	s := NewTiered(Tier{Capacity: 1000, Admission: true})
	sealedObj(t, s, oid(0), 1000, true) // pinned: not evictable, no spill
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := s.CreateAdmit(ctx, oid(1), 500, true); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CreateAdmit = %v, want deadline", err)
	}
	// Free room concurrently; the blocked admit must ride through.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := s.CreateAdmit(ctx, oid(2), 500, true)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	s.Delete(oid(0))
	if err := <-done; err != nil {
		t.Fatalf("admit after delete: %v", err)
	}
	if s.Used() != 500 {
		t.Fatalf("used %d", s.Used())
	}
}

// TestCreateAdmitWakesOnRefRelease: dropping the last reader ref makes an
// object evictable without the store's byte accounting changing, so the
// admission path needs an explicit event — there is no poll fallback any
// more. A blocked CreateAdmit must ride through on exactly that event.
func TestCreateAdmitWakesOnRefRelease(t *testing.T) {
	s := NewTiered(Tier{Capacity: 1000, Admission: true})
	sealedObj(t, s, oid(0), 1000, false) // unpinned: evictable once unreffed
	ref, ok := s.Acquire(oid(0))
	if !ok {
		t.Fatal("acquire")
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := s.CreateAdmit(ctx, oid(1), 500, true)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("admit proceeded past a live reader ref: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	ref.Unref() // the release hook must wake the admission waiter
	if err := <-done; err != nil {
		t.Fatalf("admit after ref release: %v", err)
	}
	if s.Contains(oid(0)) {
		t.Fatal("victim not evicted")
	}
}

// TestCreateAdmitWakesOnSeal: sealing turns an in-progress write into a
// complete, victim-eligible copy without touching used — the other
// accounting-free evictability transition the admission path must observe.
func TestCreateAdmitWakesOnSeal(t *testing.T) {
	s := NewTiered(Tier{Capacity: 1000, Admission: true})
	buf, err := s.Create(oid(0), 1000, false)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := s.CreateAdmit(ctx, oid(1), 500, true)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("admit proceeded past an in-progress write: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := buf.Append(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	buf.Seal() // the completion hook must wake the admission waiter
	if err := <-done; err != nil {
		t.Fatalf("admit after seal: %v", err)
	}
}

// TestAcquireRefBlocksDemotion: a live reader ref pins the buffer in
// memory — demotion must skip it even when it is the coldest object, and
// take it once released.
func TestAcquireRefBlocksDemotion(t *testing.T) {
	var mu sync.Mutex
	demoted := map[types.ObjectID]bool{}
	s := NewTiered(Tier{
		Capacity:  1000,
		HighWater: 0.9,
		LowWater:  0.1,
		Demote: func(id types.ObjectID, b *buffer.Buffer) bool {
			mu.Lock()
			demoted[id] = true
			mu.Unlock()
			return true
		},
	})
	sealedObj(t, s, oid(0), 400, false)
	ref, ok := s.Acquire(oid(0))
	if !ok {
		t.Fatal("acquire")
	}
	sealedObj(t, s, oid(1), 400, false)
	sealedObj(t, s, oid(2), 400, false) // crosses high: demotes o1, skips reffed o0
	mu.Lock()
	if demoted[oid(0)] {
		t.Fatal("demoted a buffer with a live ref")
	}
	if !demoted[oid(1)] {
		t.Fatal("unreffed cold object not demoted")
	}
	mu.Unlock()
	if !s.Contains(oid(0)) {
		t.Fatal("reffed object left the store")
	}
	ref.Unref()
	sealedObj(t, s, oid(3), 400, false)
	mu.Lock()
	defer mu.Unlock()
	if !demoted[oid(0)] {
		t.Fatal("released object not demoted under pressure")
	}
}

// TestConcurrentAcquireVsDemotionRace hammers Acquire pins against
// demotion-inducing creates (run with -race): the invariant is that no
// buffer reaches the demote callback with a live ref, because a demoted
// buffer's memory is about to be dropped from the table.
func TestConcurrentAcquireVsDemotionRace(t *testing.T) {
	s := NewTiered(Tier{
		Capacity:  64 << 10,
		HighWater: 0.9,
		LowWater:  0.5,
		Demote: func(id types.ObjectID, b *buffer.Buffer) bool {
			if b.Refs() != 0 {
				t.Errorf("demotion victim %v has %d live refs", id, b.Refs())
			}
			return true
		},
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := seed; ; i += 7 {
				select {
				case <-stop:
					return
				default:
				}
				if b, ok := s.Acquire(oid(i % 64)); ok {
					_ = b.Bytes()
					b.Unref()
				}
			}
		}(r)
	}
	for i := 0; i < 2000; i++ {
		id := oid(i % 64)
		b, err := s.Create(id, 4<<10, false)
		if errors.Is(err, types.ErrExists) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Append(make([]byte, 4<<10)); err == nil {
			b.Seal()
		}
	}
	close(stop)
	wg.Wait()
	if s.Demotions() == 0 {
		t.Fatal("no demotions happened; pressure loop broken")
	}
}

// TestPinnedDemoteFailureReinserts: when the spill tier refuses a pinned
// victim (disk trouble), the object is re-inserted (overshooting the
// budget) rather than dropped — a failed disk must not break Put's
// serve-forever guarantee. Unpinned victims still degrade to eviction.
func TestPinnedDemoteFailureReinserts(t *testing.T) {
	var evicted []types.ObjectID
	s := NewTiered(Tier{
		Capacity:  1000,
		HighWater: 0.9,
		LowWater:  0.1,
		OnEvict:   func(id types.ObjectID) { evicted = append(evicted, id) },
		Demote:    func(types.ObjectID, *buffer.Buffer) bool { return false },
	})
	sealedObj(t, s, oid(0), 400, true)  // pinned local
	sealedObj(t, s, oid(1), 400, false) // unpinned replica
	sealedObj(t, s, oid(2), 400, false) // crosses high → both victims fail to demote
	if !s.Contains(oid(0)) {
		t.Fatal("pinned object dropped after a failed demotion")
	}
	if s.Contains(oid(1)) {
		t.Fatal("unpinned replica survived a failed demotion")
	}
	if len(evicted) != 1 || evicted[0] != oid(1) {
		t.Fatalf("evicted %v, want just the unpinned replica", evicted)
	}
	if got, ok := s.Get(oid(0)); !ok || !got.Complete() {
		t.Fatal("reinserted pinned object unreadable")
	}
	if s.Used() != 800 { // 400 pinned (reinserted) + 400 new; replica evicted
		t.Fatalf("used %d, want 800", s.Used())
	}
}
