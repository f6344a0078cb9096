package netem

import (
	"context"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// oneWayMedian sends n 1 KiB writes from node a to a reader on node b, one
// at a time, and returns the median time from the start of each Write to
// the reader holding all of its bytes.
func oneWayMedian(t *testing.T, em *Emulated, n int) time.Duration {
	t.Helper()
	ln, err := em.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	arrived := make(chan time.Time)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(arrived)
			return
		}
		defer c.Close()
		buf := make([]byte, 1<<10)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				close(arrived)
				return
			}
			arrived <- time.Now()
		}
	}()
	conn, err := em.Dial(context.Background(), "a", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := make([]byte, 1<<10)
	samples := make([]time.Duration, 0, n)
	for i := 0; i < n+5; i++ {
		t0 := time.Now()
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		at, ok := <-arrived
		if !ok {
			t.Fatal("reader failed")
		}
		if i >= 5 { // the first few warm the connection up
			samples = append(samples, at.Sub(t0))
		}
	}
	slices.Sort(samples)
	return samples[len(samples)/2]
}

// TestDeliveryAccuracy checks that a hop costs the latency it is configured
// with: the median one-way delivery of a 1 KiB write is within 25 % of
// 200 µs, on an idle host and with two goroutines spinning on the CPUs.
//
// The spinners yield the processor between iterations, as busy goroutines
// that block now and then do. A goroutine that never yields holds its P
// until the scheduler preempts it every 10 ms; with one such goroutine per
// P, the runtime's netpoller, and so every socket read in the process,
// waits out that quantum, whatever the fabric does. The race detector
// slows every goroutine hand-off on the path, so under it the test only
// logs the medians.
func TestDeliveryAccuracy(t *testing.T) {
	const lat = 200 * time.Microsecond
	check := func(name string) {
		em := NewEmulated(LinkConfig{Latency: lat})
		defer em.Close()
		med := oneWayMedian(t, em, 200)
		t.Logf("%s: median one-way %v (configured %v)", name, med, lat)
		if !raceEnabled && (med < lat*3/4 || med > lat*5/4) {
			t.Errorf("%s: median one-way delivery %v, want %v ± 25%%", name, med, lat)
		}
	}
	check("idle")

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				runtime.Gosched()
			}
		}()
	}
	check("loaded")
	stop.Store(true)
	wg.Wait()
}

// TestSegmentsAllocateNothing echoes 64 KiB writes through shaped
// connections and requires the fabric to allocate less than 1 KiB per
// 64 KiB delivered. Each delivered segment holds at most 64 KiB, so this
// bounds the allocation per segment from above.
func TestSegmentsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled arrays at random")
	}
	em := NewEmulated(LinkConfig{Latency: 50 * time.Microsecond, BytesPerSec: 1 << 30})
	defer em.Close()
	ln := echoServer(t, em, "echo")
	conn, err := em.Dial(context.Background(), "client", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	out := make([]byte, 64<<10)
	in := make([]byte, len(out))
	roundTrip := func() {
		if _, err := conn.Write(out); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, in); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ { // fill the pool and the echo's copy buffer
		roundTrip()
	}
	const iters = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	// Every round trip delivers 64 KiB twice: to the echo and back.
	per := float64(after.TotalAlloc-before.TotalAlloc) / (2 * iters)
	t.Logf("%.0f B allocated per 64 KiB delivered", per)
	if per >= 1<<10 {
		t.Fatalf("%.0f B allocated per 64 KiB delivered, want < 1 KiB", per)
	}
}

// pumps counts the live pump goroutines of shaped connections.
func pumps() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*shapedConn).pump")
}

// TestCloseStopsFullPump closes a connection whose delivery queue is full
// because nothing reads it: Close must end its pump, which would otherwise
// stay blocked on the queue holding up to 4 MiB of segments.
func TestCloseStopsFullPump(t *testing.T) {
	em := NewEmulated(LinkConfig{})
	defer em.Close()
	ln, err := em.Listen("writer")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
		chunk := make([]byte, 64<<10)
		for i := 0; i < 200; i++ {
			if _, err := c.Write(chunk); err != nil {
				return
			}
		}
	}()
	conn, err := em.Dial(context.Background(), "idle-reader", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer := <-accepted
	if peer == nil {
		t.Fatal("accept failed")
	}
	sc := conn.(*shapedConn)
	for deadline := time.Now().Add(10 * time.Second); len(sc.segCh) < cap(sc.segCh); {
		if time.Now().After(deadline) {
			t.Fatalf("delivery queue holds %d of %d segments", len(sc.segCh), cap(sc.segCh))
		}
		time.Sleep(time.Millisecond)
	}
	conn.Close()
	peer.Close()
	deadline := time.Now().Add(300 * time.Millisecond)
	for pumps() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := pumps(); n > 0 {
		t.Fatalf("%d pump goroutine(s) alive 300 ms after both ends closed", n)
	}
}
