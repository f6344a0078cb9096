package netem

import (
	"context"
	"net"
	"runtime"
	"testing"
)

// TestIdlePumpsHoldNoArrays opens idle connections and checks that their
// pumps, parked until a socket turns readable, hold no segment arrays: a
// cluster keeps hundreds of connections open, most of them idle.
func TestIdlePumpsHoldNoArrays(t *testing.T) {
	em := NewEmulated(LinkConfig{})
	defer em.Close()
	ln, err := em.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const n = 64
	accepted := make(chan net.Conn, n)
	go func() {
		for i := 0; i < n; i++ {
			c, err := ln.Accept()
			if err != nil {
				close(accepted)
				return
			}
			accepted <- c
		}
	}()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the second collection empties the pools' victim caches
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		c, err := em.Dial(context.Background(), "cli", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		s, ok := <-accepted
		if !ok {
			t.Fatal("accept failed")
		}
		defer s.Close()
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / (2 * n)
	t.Logf("%d B of heap per idle pump", per)
	if per >= 16<<10 {
		t.Fatalf("%d B of heap per idle pump, want no 64 KiB segment array", per)
	}
}
