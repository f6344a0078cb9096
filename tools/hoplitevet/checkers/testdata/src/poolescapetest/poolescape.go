// Package poolescapetest exercises the poolescape analyzer.
package poolescapetest

import "hoplite/internal/pool"

var errOops error

func use(b []byte) {}

func forward(b []byte) {}

// leakEarlyReturn forgets the Put on the failure path.
func leakEarlyReturn(n int, fail bool) error {
	buf := pool.Get(n) // want `pooled buffer acquired here is not released on every path`
	if fail {
		return errOops
	}
	pool.Put(buf)
	return nil
}

// okAllPaths returns the buffer on both paths.
func okAllPaths(n int, fail bool) error {
	buf := pool.Get(n)
	if fail {
		pool.Put(buf)
		return errOops
	}
	pool.Put(buf)
	return nil
}

// okDeferClosure re-reads buf at return, so it covers the re-acquisition
// (the transport chunk-regrow idiom).
func okDeferClosure(n int, grow bool) {
	buf := pool.Get(n)
	defer func() { pool.Put(buf) }()
	if grow {
		pool.Put(buf)
		buf = pool.Get(2 * n)
	}
	use(buf)
}

// leakReacquire pins the defer argument at defer time, so the re-acquired
// buffer is never returned to the pool.
func leakReacquire(n int, grow bool) {
	buf := pool.Get(n)
	defer pool.Put(buf)
	if grow {
		buf = pool.Get(2 * n) // want `pooled buffer acquired here is not released on every path`
	}
	use(buf)
}

// leakUseAfterPut touches a buffer that may already be owned by another
// goroutine.
func leakUseAfterPut(n int) int {
	buf := pool.Get(n)
	pool.Put(buf)
	return len(buf) // want `use of buf after pool.Put`
}

// okSlicePut returns the buffer through a reslice.
func okSlicePut(n int) {
	buf := pool.Get(n)
	use(buf[:0])
	pool.Put(buf[:n])
}

// okAnnotatedAlias covers an annotated transfer: the buffer escapes
// through an append alias the walker cannot track.
func okAnnotatedAlias(n int) {
	//hoplite:pool-transfer fixture: out aliases buf and the callee returns it
	buf := pool.Get(n)
	out := append(buf[:0], 1, 2, 3)
	forward(out)
}
