// Package lockholdtest exercises the lockhold analyzer.
package lockholdtest

import (
	"os"
	"sync"
	"time"

	"hoplite/internal/wire"
)

type guarded struct {
	mu sync.Mutex
	rw sync.RWMutex
	m  map[string]int
}

// badFileIO writes a file while holding the mutex.
func (g *guarded) badFileIO() {
	g.mu.Lock()
	os.WriteFile("x", nil, 0o644) // want `file I/O \(os.WriteFile\) while g.mu is held`
	g.mu.Unlock()
}

// okUnlockFirst releases before the write.
func (g *guarded) okUnlockFirst() {
	g.mu.Lock()
	g.m["k"] = 1
	g.mu.Unlock()
	os.WriteFile("x", nil, 0o644)
}

// badSend parks on a channel send under the read lock.
func (g *guarded) badSend(ch chan int) {
	g.rw.RLock()
	ch <- 1 // want `channel send while g.rw is held`
	g.rw.RUnlock()
}

// okNonBlockingSend cannot park: the select has a default clause.
func (g *guarded) okNonBlockingSend(ch chan int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case ch <- 1:
	default:
	}
}

// badWireUnderDefer holds the lock across the wire write via defer.
func (g *guarded) badWireUnderDefer(m wire.Message) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return wire.WriteMessage(m) // want `wire I/O \(wire.WriteMessage\) while g.mu is held`
}

// badSleep sleeps under the lock.
func (g *guarded) badSleep() {
	g.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while g.mu is held`
	g.mu.Unlock()
}

// okBranchUnlock releases in every branch before the write.
func (g *guarded) okBranchUnlock(fast bool) {
	g.mu.Lock()
	if fast {
		g.mu.Unlock()
	} else {
		g.mu.Unlock()
	}
	os.WriteFile("x", nil, 0o644)
}

// okGoroutine: the spawned goroutine does not hold the caller's lock.
func (g *guarded) okGoroutine() {
	g.mu.Lock()
	defer g.mu.Unlock()
	go func() {
		os.WriteFile("x", nil, 0o644)
	}()
}

// okAnnotated is the write-serialization mutex pattern.
//
//hoplite:locked-io fixture: the mutex exists to serialize writes
func (g *guarded) okAnnotated(m wire.Message) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return wire.WriteMessage(m)
}

// badClientSends may write the frame on this goroutine under the lock.
func (g *guarded) badClientSends(c *wire.Client, m wire.Message) {
	g.mu.Lock()
	c.Go(m)   // want `wire I/O \(wire.Go\) while g.mu is held`
	c.Call(m) // want `wire I/O \(wire.Call\) while g.mu is held`
	g.mu.Unlock()
}

// badNotify pushes to a peer under the lock.
func (g *guarded) badNotify(p *wire.Peer, m wire.Message) {
	g.rw.RLock()
	defer g.rw.RUnlock()
	p.Notify(m) // want `wire I/O \(wire.Notify\) while g.rw is held`
}

// okClose: closing a client is not a send.
func (g *guarded) okClose(c *wire.Client) {
	g.mu.Lock()
	c.Close()
	g.mu.Unlock()
}

// okSendAfterUnlock snapshots under the lock and sends after it.
func (g *guarded) okSendAfterUnlock(c *wire.Client, m wire.Message) {
	g.mu.Lock()
	g.m["k"]++
	g.mu.Unlock()
	c.Go(m)
}
