//go:build !linux

package netem

import (
	"net"
	"time"

	"hoplite/internal/pool"
)

// deliveryTimer, off Linux, sleeps on the runtime's timers: time.Sleep's
// precision, which can be a millisecond late per wait.
type deliveryTimer struct{}

func newDeliveryTimer() *deliveryTimer { return &deliveryTimer{} }

func (*deliveryTimer) stop() {}

// wait sleeps until at; a Close meanwhile shows in the I/O that follows.
func (*deliveryTimer) wait(at time.Time, _ chan struct{}, _ <-chan struct{}) bool {
	time.Sleep(time.Until(at))
	return true
}

// segReader reads a connection's bytes into pooled arrays; the pump holds
// one while its read blocks.
type segReader struct{ net.Conn }

func (r *segReader) init(c net.Conn) { r.Conn = c }

// read returns the next bytes in a pooled array, or nil and why the stream
// ended.
func (r *segReader) read() ([]byte, error) {
	buf := pool.Get(segSize)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			return buf[:n], nil // an error recurs on the next read
		}
		if err != nil {
			pool.Put(buf)
			return nil, err
		}
	}
}
