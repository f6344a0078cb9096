package buffer

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"hoplite/internal/types"
)

// startFill runs a Fill of [off, off+n) whose writer writes val into its
// range and then holds the lend open until release is closed. It returns
// once the writer is inside the lend, and the channel Fill's error arrives
// on.
func startFill(b *Buffer, off, n int64, val byte, release <-chan struct{}) <-chan error {
	inside := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- b.Fill(off, n, func(p []byte) error {
			for i := range p {
				p[i] = val
			}
			close(inside)
			<-release
			return nil
		})
	}()
	<-inside
	return done
}

// Retire and Fail that race an in-flight Fill: the array goes back
// to the pool exactly once and only after the lend ended, and the fill
// publishes nothing past the watermark.
func TestFillRacesRetireFailReset(t *testing.T) {
	for _, tc := range []struct {
		name string
		race func(b *Buffer)
		want error
	}{
		{"retire", (*Buffer).Retire, types.ErrDeleted},
		{"fail", func(b *Buffer) { b.Fail(errors.New("sender died")) }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := countRecycles(t)
			b := NewChunked(2*PoolMin, PoolMin)
			release := make(chan struct{})
			done := startFill(b, 0, PoolMin, 7, release)
			tc.race(b)
			if len(*got) != 0 {
				t.Fatal("array recycled under an open lend")
			}
			close(release)
			err := <-done
			if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
				t.Fatalf("overtaken fill returned %v, want %v", err, tc.want)
			}
			if b.Watermark() != 0 || b.Present() != 0 {
				t.Fatalf("overtaken fill published: watermark %d, present %d", b.Watermark(), b.Present())
			}
			b.Retire()
			if len(*got) != 1 {
				t.Fatalf("array recycled %d times, want once", len(*got))
			}
		})
	}
}

// A retired buffer whose lend is still open keeps its array even after
// its last reader pin drops; the lend's end hands it back.
func TestFillLendOutlivesLastUnref(t *testing.T) {
	got := countRecycles(t)
	b := New(PoolMin)
	b.Ref()
	release := make(chan struct{})
	done := startFill(b, 0, PoolMin, 1, release)
	b.Retire()
	b.Unref()
	if len(*got) != 0 {
		t.Fatal("last unref recycled the array under an open lend")
	}
	close(release)
	if err := <-done; !errors.Is(err, types.ErrDeleted) {
		t.Fatalf("fill of a retired buffer returned %v, want ErrDeleted", err)
	}
	if len(*got) != 1 {
		t.Fatalf("array recycled %d times, want once", len(*got))
	}
}

// A writer error publishes nothing, and the same range can be filled
// again.
func TestFillErrorPublishesNothing(t *testing.T) {
	b := NewChunked(64, 16)
	boom := errors.New("short read")
	err := b.Fill(0, 24, func(p []byte) error {
		copy(p, bytes.Repeat([]byte{9}, 10))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Fill returned %v, want the writer's error", err)
	}
	if b.Watermark() != 0 || b.Present() != 0 {
		t.Fatalf("failed fill published: watermark %d, present %d", b.Watermark(), b.Present())
	}
	want := bytes.Repeat([]byte{3}, 64)
	if err := b.Fill(0, 64, func(p []byte) error { copy(p, want); return nil }); err != nil {
		t.Fatal(err)
	}
	b.Seal()
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatal("refilled range holds the wrong bytes")
	}
}

// A Fill on a failed buffer returns its error without calling the writer.
func TestFillFailedBufferSkipsWriter(t *testing.T) {
	b := New(32)
	b.Fail(types.ErrClosed)
	err := b.Fill(0, 32, func([]byte) error {
		t.Fatal("writer called on a failed buffer")
		return nil
	})
	if !errors.Is(err, types.ErrClosed) {
		t.Fatalf("Fill returned %v, want the buffer's error", err)
	}
}

// Writers holding disjoint claimed ranges fill them concurrently, each in
// several sequential lends, and together complete the object.
func TestFillDisjointRangesConcurrently(t *testing.T) {
	const chunk, chunks = 1 << 10, 8
	b := NewChunked(chunk*chunks, chunk)
	var wg sync.WaitGroup
	for {
		off, length, ok := b.ClaimNext(2 * chunk)
		if !ok {
			break
		}
		wg.Add(1)
		go func(off, length int64) {
			defer wg.Done()
			for pos := off; pos < off+length; pos += 100 {
				n := min(100, off+length-pos)
				err := b.Fill(pos, n, func(p []byte) error {
					for i := range p {
						p[i] = byte((pos + int64(i)) / chunk)
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(off, length)
	}
	wg.Wait()
	if b.Watermark() != chunk*chunks {
		t.Fatalf("watermark %d after all ranges filled, want %d", b.Watermark(), chunk*chunks)
	}
	b.Seal()
	for i, v := range b.Bytes() {
		if v != byte(i/chunk) {
			t.Fatalf("byte %d = %d, want %d", i, v, i/chunk)
		}
	}
}
