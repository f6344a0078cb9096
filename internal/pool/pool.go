// Package pool provides size-classed, sync.Pool-backed byte buffers shared
// by the hot paths of the control plane (internal/wire frame scratch), the
// data plane (internal/transport chunk buffers) and the object store
// (internal/buffer payload arrays). Pooling these buffers removes the
// dominant per-message, per-chunk and per-object allocation from all three.
package pool

import (
	"math/bits"
	"sync"
)

const (
	// minBits is the smallest size class: 1<<minBits bytes.
	minBits = 6 // 64 B
	// fineBits ends the power-of-two classes. Above 1<<fineBits bytes every
	// power of two is split into fineSteps classes, so a class wastes at
	// most 1/fineSteps of the request: an object payload's array is not
	// rounded up to double its size.
	fineBits  = 15 // 32 KiB
	fineSteps = 8
	// maxBits is the largest size class: 1<<maxBits bytes. Requests above
	// this are allocated directly and never pooled.
	maxBits = 26 // 64 MiB
)

var classes [fineBits - minBits + 1 + (maxBits-fineBits)*fineSteps]sync.Pool

// class returns the index and capacity of the smallest class holding n
// bytes; ok is false when n is above the largest class.
func class(n int) (idx, size int, ok bool) {
	if n <= 1<<minBits {
		return 0, 1 << minBits, true
	}
	if n > 1<<maxBits {
		return 0, 0, false
	}
	e := bits.Len(uint(n - 1)) // 1<<(e-1) < n <= 1<<e
	if e <= fineBits {
		return e - minBits, 1 << e, true
	}
	step := (1 << (e - 1)) / fineSteps
	k := (n + step - 1) / step // fineSteps < k <= 2*fineSteps
	return fineBits - minBits + 1 + (e-1-fineBits)*fineSteps + k - fineSteps - 1, k * step, true
}

// Get returns a buffer with len(b) == n from the smallest fitting size
// class. The contents are arbitrary: callers must overwrite before reading.
func Get(n int) []byte {
	c, size, ok := class(n)
	if !ok {
		return make([]byte, n)
	}
	if v := classes[c].Get(); v != nil {
		return (*v.(*[]byte))[:n]
	}
	return make([]byte, n, size)
}

// Put returns a buffer obtained from Get to its size class. The caller
// must not use b after Put. Buffers whose capacity is not exactly a class
// size (e.g. not allocated by Get) are dropped rather than pooled, so a
// class never shrinks over time.
func Put(b []byte) {
	c, size, ok := class(cap(b))
	if !ok || size != cap(b) {
		return
	}
	b = b[:size]
	classes[c].Put(&b)
}
