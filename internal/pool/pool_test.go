package pool

import (
	"sync/atomic"
	"testing"
)

func TestGetLenAndClassCap(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 1 << 10, (1 << 10) + 1, 1 << 20, 1 << 26} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d): len %d", n, len(b))
		}
		if c := cap(b); c&(c-1) != 0 || c < len(b) {
			t.Fatalf("Get(%d): cap %d not a class size", n, c)
		}
		Put(b)
	}
}

// Above 32 KiB the classes split every power of two eight ways: a request
// never gets an array more than 1/8 larger than it asked for, and the
// class capacity round-trips through Put.
func TestFineClassesWasteAtMostAnEighth(t *testing.T) {
	for _, n := range []int{32<<10 + 1, 64 << 10, 64<<10 + 1, 100 << 10, 1<<20 + 1, 3 << 20, 5<<20 + 7, 1 << 26} {
		_, size, ok := class(n)
		if !ok {
			t.Fatalf("class(%d): not pooled", n)
		}
		if size < n || size-n > n/8 {
			t.Fatalf("class(%d) = %d: wastes more than 1/8", n, size)
		}
		b := Get(n)
		if len(b) != n || cap(b) != size {
			t.Fatalf("Get(%d): len %d cap %d, want cap %d", n, len(b), cap(b), size)
		}
		Put(b)
	}
	// The classes tile the sizes: the byte after one class's capacity opens
	// the next class, and every capacity maps back to its own pool.
	prev := 0
	for i := range classes {
		idx, size, _ := class(prev + 1)
		if idx != i || size <= prev {
			t.Fatalf("class(%d) = (%d, %d), want class %d above %d", prev+1, idx, size, i, prev)
		}
		if idx, s, _ := class(size); idx != i || s != size {
			t.Fatalf("class(%d) = (%d, %d), want (%d, %d)", size, idx, s, i, size)
		}
		prev = size
	}
	if prev != 1<<maxBits {
		t.Fatalf("largest class %d, want %d", prev, 1<<maxBits)
	}
}

func TestGetOversizedNotPooled(t *testing.T) {
	n := (1 << 26) + 1
	b := Get(n)
	if len(b) != n {
		t.Fatalf("len %d", len(b))
	}
	Put(b) // must be a no-op, not a panic
}

func TestPutForeignBufferDropped(t *testing.T) {
	Put(make([]byte, 100, 100)) // non-class capacity: dropped
	Put(make([]byte, 100<<10))  // between two fine classes: dropped
	Put(nil)
	Put(make([]byte, 10))
}

func TestReuse(t *testing.T) {
	b := Get(128)
	b[0] = 42
	Put(b)
	// sync.Pool gives no reuse guarantee, but the round trip must at
	// least produce a valid buffer of the requested length.
	c := Get(128)
	if len(c) != 128 {
		t.Fatalf("len %d", len(c))
	}
	Put(c)
}

// A large-class array put back on one goroutine is the array the next Get
// on another goroutine returns, whichever P each runs on: the class's
// free list is shared, where a sync.Pool's per-P private slot is not.
func TestLargeClassReusedAcrossGoroutines(t *testing.T) {
	const n = 5 << 20
	b := Get(n)
	for hop := 0; hop < 50; hop++ {
		var put atomic.Bool
		go func() {
			Put(b)
			put.Store(true)
		}()
		// Spin rather than block, so this goroutine keeps its P and the
		// Put runs on another one wherever there are two.
		for !put.Load() {
		}
		c := Get(n)
		if &c[0] != &b[0] {
			t.Fatalf("hop %d: Get returned a fresh array, not the one just Put", hop)
		}
		b = c
	}
	Put(b)
}

func BenchmarkGetPut64K(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Put(Get(64 << 10))
	}
}
