package buffer

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hoplite/internal/types"
)

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestAppendSealBytes(t *testing.T) {
	b := New(10)
	if err := b.Append([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if b.Watermark() != 5 {
		t.Fatalf("watermark %d", b.Watermark())
	}
	if b.Complete() {
		t.Fatal("complete before seal")
	}
	if err := b.Append([]byte("world")); err != nil {
		t.Fatal(err)
	}
	b.Seal()
	if !b.Complete() {
		t.Fatal("not complete after seal")
	}
	if string(b.Bytes()) != "helloworld" {
		t.Fatalf("bytes %q", b.Bytes())
	}
}

func TestFromBytes(t *testing.T) {
	b := FromBytes([]byte("abc"))
	if !b.Complete() || b.Size() != 3 || b.Watermark() != 3 {
		t.Fatal("FromBytes not sealed")
	}
}

func TestAppendPastEndPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b := New(2)
	b.Append([]byte("abc"))
}

func TestSealShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b := New(4)
	b.Append([]byte("ab"))
	b.Seal()
}

func TestFailWakesWaiters(t *testing.T) {
	b := New(100)
	done := make(chan error, 1)
	go func() {
		_, _, err := b.WaitAt(ctxT(t), 50)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Fail(types.ErrAborted)
	if err := <-done; !errors.Is(err, types.ErrAborted) {
		t.Fatalf("got %v", err)
	}
	if b.Failed() == nil {
		t.Fatal("Failed() nil")
	}
}

func TestFailNilUsesErrAborted(t *testing.T) {
	b := New(1)
	b.Fail(nil)
	if !errors.Is(b.Failed(), types.ErrAborted) {
		t.Fatal("nil fail not mapped")
	}
}

func TestFailAfterSealIgnored(t *testing.T) {
	b := New(2)
	b.Append([]byte("ab"))
	b.Seal()
	b.Fail(types.ErrAborted)
	if b.Failed() != nil {
		t.Fatal("sealed buffer failed")
	}
}

func TestWaitAtReturnsImmediatelyWhenAvailable(t *testing.T) {
	b := New(4)
	b.Append([]byte("ab"))
	wm, complete, err := b.WaitAt(ctxT(t), 0)
	if err != nil || wm != 2 || complete {
		t.Fatalf("wm=%d complete=%v err=%v", wm, complete, err)
	}
}

func TestWaitAtContextCancel(t *testing.T) {
	b := New(4)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	_, _, err := b.WaitAt(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
}

func TestWaitComplete(t *testing.T) {
	b := New(3)
	done := make(chan error, 1)
	go func() { done <- b.WaitComplete(ctxT(t)) }()
	b.Append([]byte("ab"))
	select {
	case <-done:
		t.Fatal("complete before seal")
	case <-time.After(20 * time.Millisecond):
	}
	b.Append([]byte("c"))
	b.Seal()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestReadAtStreaming(t *testing.T) {
	b := New(8)
	ctx := ctxT(t)
	go func() {
		for _, c := range []string{"ab", "cd", "ef", "gh"} {
			time.Sleep(2 * time.Millisecond)
			b.Append([]byte(c))
		}
		b.Seal()
	}()
	var got []byte
	var off int64
	buf := make([]byte, 3)
	for {
		n, err := b.ReadAt(ctx, buf, off)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
		off += int64(n)
	}
	if string(got) != "abcdefgh" {
		t.Fatalf("got %q", got)
	}
}

func TestReader(t *testing.T) {
	b := New(5)
	go func() {
		b.Append([]byte("hel"))
		time.Sleep(5 * time.Millisecond)
		b.Append([]byte("lo"))
		b.Seal()
	}()
	out, err := io.ReadAll(b.Reader(ctxT(t), 0))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "hello" {
		t.Fatalf("got %q", out)
	}
}

func TestReaderFromOffset(t *testing.T) {
	b := FromBytes([]byte("abcdef"))
	out, err := io.ReadAll(b.Reader(ctxT(t), 4))
	if err != nil || string(out) != "ef" {
		t.Fatalf("got %q err %v", out, err)
	}
}

func TestCopyTo(t *testing.T) {
	data := make([]byte, 100000)
	for i := range data {
		data[i] = byte(i)
	}
	b := New(int64(len(data)))
	go func() {
		for off := 0; off < len(data); off += 7777 {
			end := off + 7777
			if end > len(data) {
				end = len(data)
			}
			b.Append(data[off:end])
		}
		b.Seal()
	}()
	var out bytes.Buffer
	if err := b.CopyTo(ctxT(t), &out, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("CopyTo mismatch")
	}
}

func TestZeroSizeBuffer(t *testing.T) {
	b := New(0)
	b.Seal()
	if !b.Complete() {
		t.Fatal("empty buffer not complete")
	}
	n, err := b.ReadAt(ctxT(t), make([]byte, 1), 0)
	if n != 0 || err != io.EOF {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

// Property: any partition of a payload into appends delivers exactly the
// payload to a concurrent streaming reader.
func TestConcurrentReaderProperty(t *testing.T) {
	fn := func(data []byte, cuts []uint8) bool {
		b := New(int64(len(data)))
		ctx := context.Background()
		done := make(chan []byte, 1)
		go func() {
			out, err := io.ReadAll(b.Reader(ctx, 0))
			if err != nil {
				out = nil
			}
			done <- out
		}()
		off := 0
		for _, c := range cuts {
			if off >= len(data) {
				break
			}
			end := off + int(c)%17 + 1
			if end > len(data) {
				end = len(data)
			}
			b.Append(data[off:end])
			off = end
		}
		if off < len(data) {
			b.Append(data[off:])
		}
		b.Seal()
		return bytes.Equal(<-done, data)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestManyConcurrentReaders(t *testing.T) {
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i * 13)
	}
	b := New(int64(len(data)))
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for r := 0; r < 16; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := io.ReadAll(b.Reader(context.Background(), 0))
			if err == nil && !bytes.Equal(out, data) {
				err = errors.New("mismatch")
			}
			errs <- err
		}()
	}
	for off := 0; off < len(data); off += 1000 {
		end := off + 1000
		if end > len(data) {
			end = len(data)
		}
		b.Append(data[off:end])
	}
	b.Seal()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// --- chunk-ledger tests ---

func TestWriteAtDerivedWatermark(t *testing.T) {
	b := NewChunked(10, 4) // chunks: [0,4) [4,8) [8,10)
	if err := b.WriteAt([]byte("wxyz"), 4); err != nil {
		t.Fatal(err)
	}
	if b.Watermark() != 0 {
		t.Fatalf("watermark %d, want 0 (hole at chunk 0)", b.Watermark())
	}
	if b.Present() != 4 {
		t.Fatalf("present %d, want 4", b.Present())
	}
	if err := b.WriteAt([]byte("abcd"), 0); err != nil {
		t.Fatal(err)
	}
	if b.Watermark() != 8 {
		t.Fatalf("watermark %d, want 8", b.Watermark())
	}
	if err := b.WriteAt([]byte("01"), 8); err != nil {
		t.Fatal(err)
	}
	b.Seal()
	if !b.Complete() || string(b.Bytes()) != "abcdwxyz01" {
		t.Fatalf("bytes %q complete=%v", b.Bytes(), b.Complete())
	}
}

func TestWriteAtSpansChunks(t *testing.T) {
	b := NewChunked(12, 4)
	if err := b.WriteAt([]byte("abcdefghijkl"), 0); err != nil {
		t.Fatal(err)
	}
	if b.Watermark() != 12 || b.Present() != 12 {
		t.Fatalf("watermark %d present %d", b.Watermark(), b.Present())
	}
}

func TestWriteAtNonContiguousPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b := NewChunked(8, 4)
	b.WriteAt([]byte("x"), 2) // chunk 0 fill is 0, write at 2 skips bytes
}

func TestClaimNextWalksMissingRuns(t *testing.T) {
	b := NewChunked(10, 4)
	off, n, ok := b.ClaimNext(100)
	if !ok || off != 0 || n != 10 {
		t.Fatalf("claim (%d,%d,%v), want (0,10,true)", off, n, ok)
	}
	if _, _, ok := b.ClaimNext(100); ok {
		t.Fatal("second claim succeeded while everything is claimed")
	}
	// Fail mid-way: the writer wrote 5 bytes then releases the rest.
	if err := b.WriteAt([]byte("abcde"), 0); err != nil {
		t.Fatal(err)
	}
	b.ReleaseClaim(0, 10)
	// Chunk 0 is full (stays present); chunk 1 is partially filled: the
	// next claim resumes at the first missing byte, mid-chunk.
	off, n, ok = b.ClaimNext(4)
	if !ok || off != 5 || n != 3 {
		t.Fatalf("resumed claim (%d,%d,%v), want (5,3,true)", off, n, ok)
	}
	off, n, ok = b.ClaimNext(4)
	if !ok || off != 8 || n != 2 {
		t.Fatalf("tail claim (%d,%d,%v), want (8,2,true)", off, n, ok)
	}
}

func TestClaimNextRespectsMax(t *testing.T) {
	b := NewChunked(16, 4)
	off, n, ok := b.ClaimNext(4)
	if !ok || off != 0 || n != 4 {
		t.Fatalf("claim (%d,%d,%v), want (0,4,true)", off, n, ok)
	}
	off, n, ok = b.ClaimNext(5) // rounds up to whole chunks
	if !ok || off != 4 || n != 8 {
		t.Fatalf("claim (%d,%d,%v), want (4,8,true)", off, n, ok)
	}
}

func TestClaimNextStopsAtPartialChunk(t *testing.T) {
	b := NewChunked(12, 4)
	// Simulate a failed writer that left chunk 1 half-full.
	o, n, _ := b.ClaimNext(100)
	if err := b.WriteAt([]byte("abcdef"), 0); err != nil {
		t.Fatal(err)
	}
	b.ReleaseClaim(o, n)
	// A fresh claim resumes mid-chunk and may run through following empty
	// chunks (a sequential writer stays contiguous across the boundary).
	off, n, ok := b.ClaimNext(100)
	if !ok || off != 6 || n != 6 {
		t.Fatalf("claim (%d,%d,%v), want (6,6,true)", off, n, ok)
	}
	// But a run can never START inside a chunk someone else half-filled:
	// release chunk 2 only and half-fill it, then re-claim.
	if err := b.WriteAt([]byte("66"), 6); err != nil {
		t.Fatal(err)
	}
	b.ReleaseClaim(8, 4)
	if err := b.WriteAt([]byte("89"), 8); err != nil {
		t.Fatal(err)
	}
	off, n, ok = b.ClaimNext(100)
	if !ok || off != 10 || n != 2 {
		t.Fatalf("claim (%d,%d,%v), want (10,2,true)", off, n, ok)
	}
}

func TestConcurrentStripedWriters(t *testing.T) {
	const size = 1 << 20
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 31)
	}
	b := NewChunked(size, 64<<10)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				off, n, ok := b.ClaimNext(128 << 10)
				if !ok {
					return
				}
				// Stream the claimed range in small writes, like a
				// ranged network pull.
				for pos := off; pos < off+n; {
					end := pos + 7777
					if end > off+n {
						end = off + n
					}
					if err := b.WriteAt(data[pos:end], pos); err != nil {
						t.Error(err)
						return
					}
					pos = end
				}
			}
		}()
	}
	// A reader streams the contiguous prefix concurrently.
	readerDone := make(chan []byte, 1)
	go func() {
		out, err := io.ReadAll(b.Reader(context.Background(), 0))
		if err != nil {
			t.Error(err)
		}
		readerDone <- out
	}()
	wg.Wait()
	if b.Present() != size {
		t.Fatalf("present %d, want %d", b.Present(), size)
	}
	b.Seal()
	if got := <-readerDone; !bytes.Equal(got, data) {
		t.Fatal("concurrent reader mismatch")
	}
	if !bytes.Equal(b.Bytes(), data) {
		t.Fatal("striped write mismatch")
	}
}

func TestReleaseClaimKeepsPresentChunks(t *testing.T) {
	b := NewChunked(12, 4)
	o, n, _ := b.ClaimNext(100)
	if err := b.WriteAt([]byte("abcdefgh"), 0); err != nil { // chunks 0,1 full
		t.Fatal(err)
	}
	b.ReleaseClaim(o, n)
	off, n, ok := b.ClaimNext(100)
	if !ok || off != 8 || n != 4 {
		t.Fatalf("claim (%d,%d,%v), want (8,4,true)", off, n, ok)
	}
}

func TestClaimNextOnFailedOrSealed(t *testing.T) {
	b := NewChunked(4, 4)
	b.Fail(types.ErrAborted)
	if _, _, ok := b.ClaimNext(4); ok {
		t.Fatal("claim on failed buffer")
	}
	s := FromBytes([]byte("ab"))
	if _, _, ok := s.ClaimNext(4); ok {
		t.Fatal("claim on sealed buffer")
	}
}

func BenchmarkAppend64KB(b *testing.B) {
	chunk := make([]byte, 64<<10)
	b.SetBytes(int64(len(chunk)))
	for i := 0; i < b.N; i++ {
		buf := New(int64(len(chunk)))
		buf.Append(chunk)
		buf.Seal()
	}
}

func TestRefCounting(t *testing.T) {
	b := FromBytes([]byte("abc"))
	if b.Refs() != 0 {
		t.Fatalf("fresh buffer refs = %d", b.Refs())
	}
	b.Ref()
	b.Ref()
	if b.Refs() != 2 {
		t.Fatalf("refs = %d, want 2", b.Refs())
	}
	b.Unref()
	b.Unref()
	if b.Refs() != 0 {
		t.Fatalf("refs = %d, want 0", b.Refs())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Unref did not panic")
		}
	}()
	b.Unref()
}

func TestOnDoneSeal(t *testing.T) {
	b := New(2)
	var got []error
	b.OnDone(func(err error) { got = append(got, err) })
	if len(got) != 0 {
		t.Fatal("watcher fired before completion")
	}
	b.Append([]byte("hi"))
	b.Seal()
	if len(got) != 1 || got[0] != nil {
		t.Fatalf("watcher calls after seal: %v", got)
	}
	// Registration after completion fires synchronously.
	b.OnDone(func(err error) { got = append(got, err) })
	if len(got) != 2 || got[1] != nil {
		t.Fatalf("late watcher calls: %v", got)
	}
}

func TestOnDoneFail(t *testing.T) {
	b := New(2)
	var got []error
	b.OnDone(func(err error) { got = append(got, err) })
	b.Fail(types.ErrDeleted)
	if len(got) != 1 || !errors.Is(got[0], types.ErrDeleted) {
		t.Fatalf("watcher calls after fail: %v", got)
	}
	b.OnDone(func(err error) { got = append(got, err) })
	if len(got) != 2 || !errors.Is(got[1], types.ErrDeleted) {
		t.Fatalf("late watcher calls: %v", got)
	}
	// Fail fires each watcher exactly once.
	b.Fail(types.ErrAborted)
	if len(got) != 2 {
		t.Fatalf("watcher re-fired: %v", got)
	}
}

// TestSealShortPanicReleasesLock: the short-seal panic must not leave
// the buffer mutex held — a recovering caller's next method call would
// otherwise deadlock.
func TestSealShortPanicReleasesLock(t *testing.T) {
	b := New(4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short seal did not panic")
			}
		}()
		b.Seal()
	}()
	if b.Watermark() != 0 { // deadlocks here if Seal leaked the lock
		t.Fatalf("watermark %d", b.Watermark())
	}
}
