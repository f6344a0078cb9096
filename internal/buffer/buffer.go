// Package buffer implements the progress-tracked object buffer that
// underpins Hoplite's fine-grained pipelining (§3.3 of the paper).
//
// A Buffer holds the payload of one immutable object as a chunk ledger: a
// fixed grid of chunks, each tracking how many contiguous bytes it holds.
// Several writers may fill disjoint ranges concurrently — the claim ledger
// (ClaimNext/ReleaseClaim) hands out exclusive runs of missing chunks, which
// is how a striped Get pulls one object from several complete copies at
// once. A contiguous watermark is derived from the grid, so readers keep the
// single-writer streaming semantics: any number of readers stream
// concurrently, blocking until the prefix they need is available. This lets
// an object that is still being produced — by a local Put copy, a network
// transfer, or a streaming reduce — simultaneously feed downstream
// transfers, which is how a partial copy acts as a broadcast intermediary
// or a reduce input.
//
// Payload arrays of PoolMin bytes and more come from internal/pool and go
// back to it once the buffer's owner has retired it (Retire) and its last
// reader pin has dropped (Unref). Every reader of Bytes therefore holds a
// pin, or has marked the buffer escaped, for as long as it reads.
package buffer

import (
	"context"
	"fmt"
	"io"
	"sync"

	"hoplite/internal/pool"
	"hoplite/internal/types"
)

// DefaultLedgerChunk is the default chunk-grid granularity. It matches the
// paper's 4 MB pipelining block (§5.1.1): claims, and therefore striped
// sub-range pulls, are handed out in units of this size.
const DefaultLedgerChunk = 4 << 20

// PoolMin is the smallest payload whose array is taken from, and
// recycled to, internal/pool. Smaller payloads are allocated exactly.
const PoolMin = 64 << 10

// recycle returns a retired, unpinned payload array; tests replace it to
// count returns.
var recycle = pool.Put

// Buffer is a fixed-size object payload tracked chunk by chunk. The zero
// value is not usable; call New or NewChunked.
type Buffer struct {
	mu      sync.Mutex
	updated chan struct{} // closed and replaced on every state change
	// data is the payload array: nil once it went back to the pool. Bytes
	// past the watermark are unspecified (a recycled array is not zeroed).
	data  []byte
	size  int64
	chunk int64
	// fill[i] is the number of contiguous bytes written from chunk i's
	// start. A chunk is present when fill[i] == chunkLen(i). Every writer
	// streams sequentially from a position it owns, so per-chunk contiguous
	// fill describes both the classic single Append writer (whose range is
	// the whole object) and striped range writers (whose ranges start at
	// missing-byte boundaries).
	fill []int64
	// claimed[i] marks chunk i as handed to an exclusive writer via
	// ClaimNext. Full chunks stay claimed (harmless); failed writers return
	// their unwritten chunks with ReleaseClaim so the missing ranges — and
	// only those — can be re-fetched from another source.
	claimed []bool
	// wmChunk/watermark are derived: wmChunk is the first non-full chunk
	// and watermark the contiguous byte prefix present from offset 0.
	wmChunk   int
	watermark int64
	present   int64 // total bytes written, contiguous or not
	sealed    bool
	err       error
	// refs counts live reader pins (ObjectRef handles, pulls being served,
	// reduce inputs). The store skips buffers with live refs during LRU
	// eviction, and a retired buffer keeps its array until refs is 0, so a
	// pinned read-only view is never invalidated under its reader.
	refs int
	// lent counts open writer lends (Fill, Append, WriteAt): ranges of
	// the array a writer is filling without the lock. Unlike refs a lend
	// does not pin the buffer against eviction, but the array is not
	// recycled while one is open.
	lent int
	// pooled marks an array taken from internal/pool; escaped marks one
	// handed out without a pin (it stays with the garbage collector); and
	// retired marks a buffer its owner has dropped.
	pooled, escaped, retired bool
	// watchers are completion callbacks registered with OnDone, fired
	// exactly once when the buffer seals (nil) or fails (the error). They
	// let futures resolve without parking a goroutine per waiter.
	watchers []func(error)
	// releaseHook, set by the owning store, runs (outside the buffer
	// lock) every time the last reader pin drops: that is the moment a
	// buffer becomes evictable without the store's byte accounting
	// changing, so admission waiters need an explicit wakeup.
	releaseHook func()
}

// New returns an empty buffer for an object of the given size, using the
// default ledger chunk.
func New(size int64) *Buffer { return NewChunked(size, DefaultLedgerChunk) }

// NewChunked returns an empty buffer with an explicit chunk-grid
// granularity (tests and tuning; chunk <= 0 selects the default).
func NewChunked(size, chunk int64) *Buffer {
	if size < 0 {
		panic("buffer: negative size")
	}
	if chunk <= 0 {
		chunk = DefaultLedgerChunk
	}
	n := int((size + chunk - 1) / chunk)
	b := &Buffer{
		updated: make(chan struct{}),
		size:    size,
		chunk:   chunk,
		fill:    make([]int64, n),
		claimed: make([]bool, n),
		pooled:  size >= PoolMin,
	}
	if b.pooled {
		// The Buffer owns the array from here: the last of Retire and
		// Unref hands it back.
		b.data = pool.Get(int(size))
	} else {
		b.data = make([]byte, size)
	}
	return b
}

// FromBytes returns a sealed buffer wrapping b without copying. The
// caller's array is never recycled.
func FromBytes(b []byte) *Buffer {
	size := int64(len(b))
	chunk := int64(DefaultLedgerChunk)
	n := int((size + chunk - 1) / chunk)
	buf := &Buffer{
		updated:   make(chan struct{}),
		data:      b,
		size:      size,
		chunk:     chunk,
		fill:      make([]int64, n),
		claimed:   make([]bool, n),
		wmChunk:   n,
		watermark: size,
		present:   size,
		sealed:    true,
	}
	for i := range buf.fill {
		buf.fill[i] = buf.chunkLen(i)
	}
	return buf
}

// chunkLen returns the byte length of chunk i (the last chunk may be
// short).
func (b *Buffer) chunkLen(i int) int64 {
	cl := b.size - int64(i)*b.chunk
	if cl > b.chunk {
		cl = b.chunk
	}
	return cl
}

// Size returns the total object size.
func (b *Buffer) Size() int64 { return b.size }

// ChunkSize returns the ledger chunk granularity.
func (b *Buffer) ChunkSize() int64 { return b.chunk }

// Watermark returns the number of contiguous bytes present from offset 0.
func (b *Buffer) Watermark() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.watermark
}

// Present returns the total number of bytes written so far, contiguous or
// not. Present == Size means every chunk is full even if the buffer has
// not been sealed yet.
func (b *Buffer) Present() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.present
}

// Complete reports whether the buffer has been sealed with all bytes
// present.
func (b *Buffer) Complete() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sealed && b.err == nil
}

// Failed returns the abort error, or nil.
func (b *Buffer) Failed() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

func (b *Buffer) signalLocked() {
	close(b.updated)
	b.updated = make(chan struct{})
}

// advanceLocked re-derives the contiguous watermark from the chunk grid.
// The cursor only moves forward, so the amortized cost over a buffer's
// lifetime is O(chunks).
func (b *Buffer) advanceLocked() {
	n := len(b.fill)
	for b.wmChunk < n && b.fill[b.wmChunk] == b.chunkLen(b.wmChunk) {
		b.wmChunk++
	}
	wm := int64(b.wmChunk) * b.chunk
	if b.wmChunk < n {
		wm += b.fill[b.wmChunk]
	} else if wm > b.size {
		wm = b.size
	}
	b.watermark = wm
}

// extendLocked is the writer discipline, checked in one place for every
// writer: [off, off+n) must lie inside the object, start exactly at its
// chunk's fill position and leave every later chunk it touches empty.
// Violations panic (writer bugs, not runtime conditions). With commit it
// then advances the ledger over the range, whose bytes are in the array.
func (b *Buffer) extendLocked(off, n int64, commit bool) {
	if b.sealed {
		panic("buffer: write to sealed buffer")
	}
	if off < 0 || n < 0 || off+n > b.size {
		panic("buffer: write past end of object")
	}
	for pos, end := off, off+n; pos < end; {
		ci := int(pos / b.chunk)
		cs := int64(ci) * b.chunk
		if pos-cs != b.fill[ci] {
			panic("buffer: write does not extend chunk fill")
		}
		step := min(cs+b.chunkLen(ci), end) - pos
		if commit {
			b.fill[ci] += step
		}
		pos += step
	}
	if commit {
		b.present += n
		b.advanceLocked()
		b.signalLocked()
	}
}

// lend opens a writer lend of [off, off+n): the buffer must not have
// failed, and the range must pass the writer discipline. While any lend is
// open the array is not recycled, so a Retire racing the writer defers
// recycling to the lend's end.
func (b *Buffer) lend(off, n int64) (p []byte, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return nil, b.err
	}
	b.extendLocked(off, n, false)
	b.lent++
	return b.data[off : off+n : off+n], nil
}

// endLend closes a lend and publishes its range if the writer succeeded
// (werr nil) and the buffer has not failed since; otherwise nothing is
// published. The last lend of a retired buffer recycles its array.
func (b *Buffer) endLend(off, n int64, werr error) error {
	var arr []byte
	defer func() {
		if arr != nil {
			recycle(arr)
		}
	}()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lent--
	arr = b.takeArrayLocked()
	switch {
	case werr != nil:
		return werr
	case b.err != nil:
		return b.err
	}
	b.extendLocked(off, n, true)
	return nil
}

// Fill lends a writer the backing range [off, off+n) of the payload array:
// fn writes the range's bytes into p without the buffer lock held, and
// Fill then publishes the range (advancing the ledger and waking readers)
// only if fn returned nil and the buffer has not failed meanwhile.
// Otherwise nothing is published, so the range can be filled again, and
// Fill returns fn's error or the buffer's. A failed buffer returns its
// error without calling fn. Writers stream sequentially within their
// range, so off must sit exactly at the fill position of its chunk and
// any further chunks the range covers must be empty; violations panic
// (writer bugs). Concurrent Fills on disjoint claimed ranges are safe.
func (b *Buffer) Fill(off, n int64, fn func(p []byte) error) error {
	if n == 0 {
		return nil
	}
	p, err := b.lend(off, n)
	if err != nil {
		return err
	}
	return b.endLend(off, n, fn(p))
}

// WriteAt writes p at off, for writers filling a claimed range: a Fill
// that copies p.
func (b *Buffer) WriteAt(p []byte, off int64) error {
	return b.Fill(off, int64(len(p)), func(dst []byte) error {
		copy(dst, p)
		return nil
	})
}

// Append writes p at the current watermark: a WriteAt for the single
// writer of a whole object.
func (b *Buffer) Append(p []byte) error {
	return b.WriteAt(p, b.Watermark())
}

// ClaimNext claims the next run of missing, unclaimed bytes for an
// exclusive writer, spanning whole chunks up to roughly max bytes. The
// returned offset starts at the first missing byte (resuming mid-chunk
// when a previous writer left a partial fill). ok is false when there is
// nothing left to claim: every byte is present or claimed by another
// writer, or the buffer is sealed or failed.
func (b *Buffer) ClaimNext(max int64) (off, length int64, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil || b.sealed {
		return 0, 0, false
	}
	if max <= 0 {
		max = b.chunk
	}
	n := len(b.fill)
	start := -1
	for i := b.wmChunk; i < n; i++ {
		if !b.claimed[i] && b.fill[i] < b.chunkLen(i) {
			start = i
			break
		}
	}
	if start < 0 {
		return 0, 0, false
	}
	off = int64(start)*b.chunk + b.fill[start]
	var span int64
	end := start
	for end < n && !b.claimed[end] && span < max {
		if end > start && b.fill[end] != 0 {
			// A later partially-filled or full chunk starts its own run:
			// a sequential writer could not extend its fill from here.
			break
		}
		b.claimed[end] = true
		span += b.chunkLen(end)
		end++
	}
	length = int64(end) * b.chunk
	if length > b.size {
		length = b.size
	}
	length -= off
	return off, length, true
}

// ReleaseClaim returns the unwritten chunks of a claimed range
// [off, off+length) to the ledger after a failed transfer, so other
// writers can re-claim exactly the missing bytes. Chunks of the range that
// were fully written stay present.
func (b *Buffer) ReleaseClaim(off, length int64) {
	if length <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	first := int(off / b.chunk)
	last := int((off + length - 1) / b.chunk)
	if last >= len(b.fill) {
		last = len(b.fill) - 1
	}
	for i := first; i <= last; i++ {
		if b.fill[i] < b.chunkLen(i) {
			b.claimed[i] = false
		}
	}
	b.signalLocked()
}

// Seal marks the buffer complete. All bytes must have been written.
func (b *Buffer) Seal() {
	b.mu.Lock()
	if b.err != nil {
		b.mu.Unlock()
		return
	}
	if b.watermark != b.size {
		// Unlock before panicking: a caller that recovers (tests of
		// writer misuse do) must not be left holding a dead buffer whose
		// every later method call deadlocks.
		b.mu.Unlock()
		panic("buffer: seal before all bytes written")
	}
	b.sealed = true
	b.signalLocked()
	ws := b.watchers
	b.watchers = nil
	b.mu.Unlock()
	for _, fn := range ws {
		fn(nil)
	}
}

// Fail aborts the buffer, waking all waiters with err. It is a no-op on a
// sealed or already-failed buffer. Fail with a nil error uses
// types.ErrAborted.
func (b *Buffer) Fail(err error) {
	if err == nil {
		err = types.ErrAborted
	}
	b.mu.Lock()
	if b.sealed || b.err != nil {
		b.mu.Unlock()
		return
	}
	b.err = err
	b.signalLocked()
	ws := b.watchers
	b.watchers = nil
	b.mu.Unlock()
	for _, fn := range ws {
		fn(err)
	}
}

// Ref takes one reader pin on the buffer. While Refs is non-zero the
// store will not evict the buffer and a retired buffer keeps its array, so
// a zero-copy view handed to a reader stays backed by live, unrecycled
// memory. Every Ref must be balanced by exactly one Unref.
func (b *Buffer) Ref() {
	b.mu.Lock()
	b.refs++
	b.mu.Unlock()
}

// TryRef takes one reader pin unless the buffer has been retired, whose
// array may already be back in the pool. It reports whether it pinned;
// a true result must be balanced by exactly one Unref.
func (b *Buffer) TryRef() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.retired {
		return false
	}
	b.refs++
	return true
}

// Unref drops one reader pin. Dropping the last pin fires the store's
// release hook (outside the buffer lock), waking admission waiters for
// whom this buffer just became evictable, and recycles the array of a
// retired buffer.
func (b *Buffer) Unref() {
	b.mu.Lock()
	if b.refs <= 0 {
		b.mu.Unlock()
		panic("buffer: unref without ref")
	}
	b.refs--
	var hook func()
	var arr []byte
	if b.refs == 0 {
		hook = b.releaseHook
		arr = b.takeArrayLocked()
	}
	b.mu.Unlock()
	if hook != nil {
		hook()
	}
	if arr != nil {
		recycle(arr)
	}
}

// Retire is the owner dropping the buffer for good (a store Delete): it
// fails the buffer with types.ErrDeleted if still being written, and its
// pooled array goes back to the pool now or, when readers still hold
// pins, at the last Unref. A retired buffer is never reset or re-pinned
// with TryRef. Eviction and demotion do not retire: they hand the buffer
// to the garbage collector or the spill tier intact.
func (b *Buffer) Retire() {
	b.Fail(types.ErrDeleted)
	b.mu.Lock()
	b.retired = true
	arr := b.takeArrayLocked()
	b.mu.Unlock()
	if arr != nil {
		recycle(arr)
	}
}

// Escape marks the array as handed out without a pin (an unpinned
// immutable view): it is never recycled and stays valid for as long as
// anyone references it.
func (b *Buffer) Escape() {
	b.mu.Lock()
	b.escaped = true
	b.mu.Unlock()
}

// takeArrayLocked detaches the array of a retired, unpinned, pooled buffer
// with no open writer lend for recycling; it returns nil in every other
// case, so an array is handed back at most once.
func (b *Buffer) takeArrayLocked() []byte {
	if !b.retired || b.refs > 0 || b.lent > 0 || !b.pooled || b.escaped {
		return nil
	}
	arr := b.data
	b.data = nil
	return arr
}

// OnRelease installs the hook run each time the last reader pin drops.
// Unlike OnDone watchers it is persistent; the store sets it once at
// insert.
func (b *Buffer) OnRelease(fn func()) {
	b.mu.Lock()
	b.releaseHook = fn
	b.mu.Unlock()
}

// Refs returns the number of live reader pins.
func (b *Buffer) Refs() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.refs
}

// OnDone registers fn to run exactly once when the buffer seals (nil) or
// fails (the error). If the buffer is already done, fn runs synchronously
// before OnDone returns; otherwise it runs in whichever goroutine seals or
// fails the buffer, so fn must be cheap and must not block. This is the
// event-driven alternative to parking a goroutine in WaitComplete.
func (b *Buffer) OnDone(fn func(error)) {
	b.mu.Lock()
	switch {
	case b.err != nil:
		err := b.err
		b.mu.Unlock()
		fn(err)
	case b.sealed:
		b.mu.Unlock()
		fn(nil)
	default:
		b.watchers = append(b.watchers, fn)
		b.mu.Unlock()
	}
}

// WaitAt blocks until at least off+1 contiguous bytes are available, the
// buffer is sealed, the buffer fails, or ctx is done. It returns the
// current watermark and whether the buffer is complete.
func (b *Buffer) WaitAt(ctx context.Context, off int64) (watermark int64, complete bool, err error) {
	for {
		b.mu.Lock()
		if b.err != nil {
			err := b.err
			b.mu.Unlock()
			return 0, false, err
		}
		if b.watermark > off || b.sealed {
			w, s := b.watermark, b.sealed
			b.mu.Unlock()
			return w, s, nil
		}
		ch := b.updated
		b.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return 0, false, ctx.Err()
		}
	}
}

// WaitComplete blocks until the buffer is sealed, fails, or ctx is done.
func (b *Buffer) WaitComplete(ctx context.Context) error {
	for {
		b.mu.Lock()
		if b.err != nil {
			err := b.err
			b.mu.Unlock()
			return err
		}
		if b.sealed {
			b.mu.Unlock()
			return nil
		}
		ch := b.updated
		b.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// ReadAt copies available bytes at off into p, blocking until at least one
// byte is available there. It returns io.EOF when off is at or past the end
// of a sealed buffer.
func (b *Buffer) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	if off >= b.Size() {
		if err := b.WaitComplete(ctx); err != nil {
			return 0, err
		}
		return 0, io.EOF
	}
	w, complete, err := b.WaitAt(ctx, off)
	if err != nil {
		return 0, err
	}
	if w <= off {
		if complete {
			return 0, io.EOF
		}
		return 0, nil
	}
	n := copy(p, b.data[off:w])
	return n, nil
}

// DumpTo writes the buffer's entire payload to w in one call. It is the
// demotion path to the spill tier: the buffer must be complete (sealed
// with every byte present) — dumping an incomplete or failed buffer
// returns an error instead of persisting a short object. Buffers are
// immutable once sealed, so no lock is held across the write.
func (b *Buffer) DumpTo(w io.Writer) error {
	if !b.Complete() {
		if err := b.Failed(); err != nil {
			return err
		}
		return fmt.Errorf("buffer: dump of incomplete buffer (%d of %d bytes)", b.Watermark(), b.Size())
	}
	_, err := w.Write(b.data)
	return err
}

// Bytes returns the underlying payload. Callers must treat the result as
// read-only; bytes beyond the watermark are not yet meaningful. This is the
// zero-copy path behind "immutable Get" (§3.3). The caller must hold a pin
// (Ref, TryRef, store.Acquire) for as long as it reads, or have marked the
// buffer escaped: a retired, unpinned array goes back to the pool.
func (b *Buffer) Bytes() []byte { return b.data }

// CopyTo streams the buffer's contents into w in chunks of at most
// chunkSize as they become available, returning when the full object has
// been written, the buffer fails, or ctx is done.
func (b *Buffer) CopyTo(ctx context.Context, w io.Writer, chunkSize int) error {
	if chunkSize <= 0 {
		chunkSize = 256 << 10
	}
	var off int64
	for off < b.Size() {
		wm, _, err := b.WaitAt(ctx, off)
		if err != nil {
			return err
		}
		for off < wm {
			end := off + int64(chunkSize)
			if end > wm {
				end = wm
			}
			if _, err := w.Write(b.data[off:end]); err != nil {
				return err
			}
			off = end
		}
	}
	return nil
}

// Reader returns an io.Reader that streams the buffer from the given
// offset, blocking for bytes that have not been produced yet.
func (b *Buffer) Reader(ctx context.Context, off int64) io.Reader {
	return &reader{ctx: ctx, b: b, off: off}
}

type reader struct {
	ctx context.Context
	b   *Buffer
	off int64
}

func (r *reader) Read(p []byte) (int, error) {
	for {
		n, err := r.b.ReadAt(r.ctx, p, r.off)
		if err != nil {
			return n, err
		}
		if n > 0 {
			r.off += int64(n)
			return n, nil
		}
	}
}
