package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hoplite/internal/buffer"
	"hoplite/internal/types"
)

type filePayload struct {
	ra      io.ReaderAt
	size    int64
	release func()
}

type fixture struct {
	srv   *Server
	addr  string
	mu    sync.Mutex
	objs  map[types.ObjectID]*buffer.Buffer
	files map[types.ObjectID]filePayload
	fail  []struct {
		oid  types.ObjectID
		recv types.NodeID
	}
}

func startFixture(t *testing.T) *fixture {
	t.Helper()
	return startFixtureAt(t, "127.0.0.1:0")
}

// startFixtureAt serves on addr, so a test can restart a sender in place.
func startFixtureAt(t *testing.T, addr string) *fixture {
	t.Helper()
	f := &fixture{
		objs:  make(map[types.ObjectID]*buffer.Buffer),
		files: make(map[types.ObjectID]filePayload),
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	get := func(ctx context.Context, oid types.ObjectID) (Payload, error) {
		f.mu.Lock()
		defer f.mu.Unlock()
		if b, ok := f.objs[oid]; ok {
			return Payload{Buf: b}, nil
		}
		if fp, ok := f.files[oid]; ok {
			return Payload{File: fp.ra, Size: fp.size, Release: fp.release}, nil
		}
		return Payload{}, types.ErrNotFound
	}
	onFail := func(oid types.ObjectID, recv types.NodeID) {
		f.mu.Lock()
		f.fail = append(f.fail, struct {
			oid  types.ObjectID
			recv types.NodeID
		}{oid, recv})
		f.mu.Unlock()
	}
	f.srv = NewServer(ln, get, 8<<10, onFail)
	f.addr = ln.Addr().String()
	go f.srv.Serve()
	t.Cleanup(func() { f.srv.Close() })
	return f
}

func dialTo(addr string) DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
}

func (f *fixture) add(oid types.ObjectID, b *buffer.Buffer) {
	f.mu.Lock()
	f.objs[oid] = b
	f.mu.Unlock()
}

func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

func TestPullComplete(t *testing.T) {
	f := startFixture(t)
	oid := types.ObjectIDFromString("x")
	data := payload(300000)
	f.add(oid, buffer.FromBytes(data))
	dst := buffer.New(int64(len(data)))
	if err := Pull(context.Background(), dialTo(f.addr), "recv", oid, 0, dst); err != nil {
		t.Fatal(err)
	}
	if !dst.Complete() || !bytes.Equal(dst.Bytes(), data) {
		t.Fatal("pull mismatch")
	}
}

func TestPullStreamsFromPartialSource(t *testing.T) {
	f := startFixture(t)
	oid := types.ObjectIDFromString("x")
	data := payload(200000)
	src := buffer.New(int64(len(data)))
	f.add(oid, src)
	dst := buffer.New(int64(len(data)))
	done := make(chan error, 1)
	go func() { done <- Pull(context.Background(), dialTo(f.addr), "recv", oid, 0, dst) }()
	// Feed the source gradually; the pull must track the watermark.
	for off := 0; off < len(data); off += 33333 {
		end := off + 33333
		if end > len(data) {
			end = len(data)
		}
		src.Append(data[off:end])
		time.Sleep(time.Millisecond)
	}
	src.Seal()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Bytes(), data) {
		t.Fatal("pipelined pull mismatch")
	}
}

func TestPullResumeFromOffset(t *testing.T) {
	f := startFixture(t)
	oid := types.ObjectIDFromString("x")
	data := payload(100000)
	f.add(oid, buffer.FromBytes(data))
	dst := buffer.New(int64(len(data)))
	dst.Append(data[:40000]) // already received from a failed sender
	if err := Pull(context.Background(), dialTo(f.addr), "recv", oid, 40000, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Bytes(), data) {
		t.Fatal("resumed pull mismatch")
	}
}

func TestPullOffsetMismatch(t *testing.T) {
	dst := buffer.New(100)
	err := Pull(context.Background(), dialTo("127.0.0.1:1"), "recv", types.ObjectID{}, 50, dst)
	if err == nil {
		t.Fatal("offset mismatch accepted")
	}
}

func TestPullUnknownObject(t *testing.T) {
	f := startFixture(t)
	dst := buffer.New(10)
	err := Pull(context.Background(), dialTo(f.addr), "recv", types.ObjectIDFromString("nope"), 0, dst)
	if err == nil {
		t.Fatal("unknown object pulled")
	}
	if dst.Failed() != nil {
		t.Fatal("dst failed; must stay resumable")
	}
}

func TestPullDeletedSource(t *testing.T) {
	f := startFixture(t)
	oid := types.ObjectIDFromString("x")
	src := buffer.New(1000)
	src.Fail(types.ErrDeleted)
	f.add(oid, src)
	dst := buffer.New(1000)
	err := Pull(context.Background(), dialTo(f.addr), "recv", oid, 0, dst)
	if !errors.Is(err, types.ErrDeleted) {
		t.Fatalf("got %v", err)
	}
}

func TestPullSourceFailsMidStream(t *testing.T) {
	f := startFixture(t)
	oid := types.ObjectIDFromString("x")
	src := buffer.New(100000)
	src.Append(payload(30000))
	f.add(oid, src)
	dst := buffer.New(100000)
	done := make(chan error, 1)
	go func() { done <- Pull(context.Background(), dialTo(f.addr), "recv", oid, 0, dst) }()
	time.Sleep(30 * time.Millisecond)
	src.Fail(types.ErrAborted)
	err := <-done
	if err == nil {
		t.Fatal("pull succeeded from failed source")
	}
	// The receiver keeps its partial bytes to resume elsewhere.
	if dst.Watermark() == 0 {
		t.Fatal("no partial bytes retained")
	}
	if dst.Failed() != nil {
		t.Fatal("dst failed; must stay resumable")
	}
}

func TestPullContextCancel(t *testing.T) {
	f := startFixture(t)
	oid := types.ObjectIDFromString("x")
	src := buffer.New(1 << 20) // never completes
	f.add(oid, src)
	dst := buffer.New(1 << 20)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := Pull(ctx, dialTo(f.addr), "recv", oid, 0, dst); err == nil {
		t.Fatal("pull survived cancellation")
	}
}

func TestSendFailureCallback(t *testing.T) {
	f := startFixture(t)
	oid := types.ObjectIDFromString("x")
	src := buffer.New(1 << 20)
	src.Append(payload(64 << 10))
	f.add(oid, src)
	dst := buffer.New(1 << 20)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Pull(ctx, dialTo(f.addr), "receiver-7", oid, 0, dst) }()
	time.Sleep(30 * time.Millisecond)
	cancel() // breaks the receiver's socket mid-transfer
	<-done
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.mu.Lock()
		n := len(f.fail)
		f.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sender did not report the broken receiver")
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail[0].oid != oid || f.fail[0].recv != "receiver-7" {
		t.Fatalf("reported %+v", f.fail[0])
	}
}

func TestMultiplePullsSameConnSequential(t *testing.T) {
	f := startFixture(t)
	a, b := types.ObjectIDFromString("a"), types.ObjectIDFromString("b")
	f.add(a, buffer.FromBytes(payload(5000)))
	f.add(b, buffer.FromBytes(payload(7000)))
	// Separate Pull calls each dial their own conn; both must work.
	d1 := buffer.New(5000)
	d2 := buffer.New(7000)
	if err := Pull(context.Background(), dialTo(f.addr), "r", a, 0, d1); err != nil {
		t.Fatal(err)
	}
	if err := Pull(context.Background(), dialTo(f.addr), "r", b, 0, d2); err != nil {
		t.Fatal(err)
	}
	if !d1.Complete() || !d2.Complete() {
		t.Fatal("pulls incomplete")
	}
}

func TestZeroSizeObject(t *testing.T) {
	f := startFixture(t)
	oid := types.ObjectIDFromString("empty")
	f.add(oid, buffer.FromBytes(nil))
	dst := buffer.New(0)
	if err := Pull(context.Background(), dialTo(f.addr), "r", oid, 0, dst); err != nil {
		t.Fatal(err)
	}
	if !dst.Complete() {
		t.Fatal("empty object not complete")
	}
}

func TestPullRangeStripes(t *testing.T) {
	f := startFixture(t)
	oid := types.ObjectIDFromString("x")
	data := payload(400000)
	f.add(oid, buffer.FromBytes(data))
	dst := buffer.NewChunked(int64(len(data)), 64<<10)
	// Three concurrent workers drain disjoint claimed ranges, like a
	// striped Get across three complete copies.
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				off, n, ok := dst.ClaimNext(128 << 10)
				if !ok {
					return
				}
				if err := PullRange(context.Background(), dialTo(f.addr), "recv", oid, off, n, dst); err != nil {
					t.Error(err)
					dst.ReleaseClaim(off, n)
					return
				}
			}
		}()
	}
	wg.Wait()
	if dst.Present() != int64(len(data)) {
		t.Fatalf("present %d, want %d", dst.Present(), len(data))
	}
	dst.Seal()
	if !bytes.Equal(dst.Bytes(), data) {
		t.Fatal("striped pull mismatch")
	}
	stats := f.srv.Stats()
	if stats.RangedPulls < 3 || stats.Pulls != stats.RangedPulls {
		t.Fatalf("stats %+v, want >=3 ranged pulls", stats)
	}
}

func TestPullRangeFromPartialSource(t *testing.T) {
	f := startFixture(t)
	oid := types.ObjectIDFromString("x")
	data := payload(200000)
	src := buffer.New(int64(len(data)))
	f.add(oid, src)
	dst := buffer.NewChunked(int64(len(data)), 64<<10)
	done := make(chan error, 1)
	// Request a tail range (chunk-aligned, as ClaimNext hands out) before
	// the source has produced it: the sender must block at its watermark
	// and stream once available.
	const tail = 2 * 64 << 10
	go func() {
		done <- PullRange(context.Background(), dialTo(f.addr), "recv", oid, tail, int64(len(data))-tail, dst)
	}()
	for off := 0; off < len(data); off += 50000 {
		src.Append(data[off : off+50000])
		time.Sleep(time.Millisecond)
	}
	src.Seal()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Bytes()[tail:], data[tail:]) {
		t.Fatal("ranged pull mismatch")
	}
	if dst.Watermark() != 0 {
		t.Fatalf("watermark %d, want 0 (hole at front)", dst.Watermark())
	}
}

func TestPullRangeValidation(t *testing.T) {
	f := startFixture(t)
	oid := types.ObjectIDFromString("x")
	f.add(oid, buffer.FromBytes(payload(1000)))
	dst := buffer.New(1000)
	if err := PullRange(context.Background(), dialTo(f.addr), "r", oid, 0, 0, dst); err == nil {
		t.Fatal("zero-length range accepted")
	}
	if err := PullRange(context.Background(), dialTo(f.addr), "r", oid, 900, 200, dst); err == nil {
		t.Fatal("past-end range accepted")
	}
}

// A hostile range (offset+length past the object end) must get an error
// frame from the server, not panic or overrun.
func TestWireFormatHostileRangeRejected(t *testing.T) {
	f := startFixture(t)
	oid := types.ObjectIDFromString("x")
	f.add(oid, buffer.FromBytes(payload(100)))
	conn, err := net.Dial("tcp", f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A plainly past-end range, and a length crafted so offset+length
	// overflows int64 (which would sneak past a naive end > size check).
	for _, length := range []int64{1 << 40, (1<<63 - 1) - 40} {
		if _, err := conn.Write(pullRequest(oid, 50, length, "r")); err != nil {
			t.Fatal(err)
		}
		var status [1]byte
		if _, err := io.ReadFull(conn, status[:]); err != nil {
			t.Fatal(err)
		}
		if status[0] != frameErr {
			t.Fatalf("length %d: status 0x%02x, want error frame", length, status[0])
		}
		conn.Close()
		if conn, err = net.Dial("tcp", f.addr); err != nil {
			t.Fatal(err)
		}
	}
}

// pullRequest encodes the receiver's request frame for raw-socket tests
// (length 0 = pull to end of object).
func pullRequest(oid types.ObjectID, offset, length int64, receiver string) []byte {
	req := []byte{reqPull}
	req = append(req, oid[:]...)
	req = binary.BigEndian.AppendUint64(req, uint64(offset))
	req = binary.BigEndian.AppendUint64(req, uint64(length))
	req = binary.BigEndian.AppendUint16(req, uint16(len(receiver)))
	return append(req, receiver...)
}

// The first frame of a successful pull must be a size frame with a
// dedicated status byte — not a bare length a reader has to guess about.
func TestWireFormatSizeFrame(t *testing.T) {
	f := startFixture(t)
	oid := types.ObjectIDFromString("x")
	data := payload(100)
	f.add(oid, buffer.FromBytes(data))
	conn, err := net.Dial("tcp", f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(pullRequest(oid, 0, 0, "r")); err != nil {
		t.Fatal(err)
	}
	var hdr [9]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	if hdr[0] != frameSize {
		t.Fatalf("first status byte 0x%02x, want size 0x%02x", hdr[0], frameSize)
	}
	if got := binary.BigEndian.Uint64(hdr[1:]); got != uint64(len(data)) {
		t.Fatalf("size %d, want %d", got, len(data))
	}
}

// A failed pull must open with an error frame, again tagged by its status
// byte, even when the error text's length bytes could look like a size.
func TestWireFormatErrorFrame(t *testing.T) {
	f := startFixture(t)
	conn, err := net.Dial("tcp", f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(pullRequest(types.ObjectIDFromString("missing"), 0, 0, "r")); err != nil {
		t.Fatal(err)
	}
	var hdr [5]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	if hdr[0] != frameErr {
		t.Fatalf("first status byte 0x%02x, want error 0x%02x", hdr[0], frameErr)
	}
	msg := make([]byte, binary.BigEndian.Uint32(hdr[1:]))
	if _, err := io.ReadFull(conn, msg); err != nil {
		t.Fatal(err)
	}
	if string(msg) != types.ErrNotFound.Error() {
		t.Fatalf("error text %q", msg)
	}
}

// A hostile pull offset (u64 with the top bit set decodes to a negative
// int64) must get an error frame, not panic the sender's stream loop.
func TestWireFormatHostileOffsetRejected(t *testing.T) {
	f := startFixture(t)
	oid := types.ObjectIDFromString("x")
	f.add(oid, buffer.FromBytes(payload(100)))
	conn, err := net.Dial("tcp", f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(pullRequest(oid, -1, 0, "r")); err != nil {
		t.Fatal(err)
	}
	var status [1]byte
	if _, err := io.ReadFull(conn, status[:]); err != nil {
		t.Fatal(err)
	}
	if status[0] != frameErr {
		t.Fatalf("status 0x%02x, want error frame", status[0])
	}
	// The server must still be alive and serving afterwards.
	dst := buffer.New(100)
	if err := Pull(context.Background(), dialTo(f.addr), "r", oid, 0, dst); err != nil {
		t.Fatalf("server died after hostile offset: %v", err)
	}
}

// A receiver facing a sender that speaks garbage must fail cleanly and
// keep dst resumable.
func TestPullRejectsUnknownFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(io.Discard, io.LimitReader(conn, int64(1+types.ObjectIDSize+8+8+2+1)))
		conn.Write([]byte{0x7F, 0, 0, 0, 0, 0, 0, 0, 0}) // bogus status byte
	}()
	dst := buffer.New(100)
	err = Pull(context.Background(), dialTo(ln.Addr().String()), "r", types.ObjectIDFromString("x"), 0, dst)
	if err == nil {
		t.Fatal("garbage frame accepted")
	}
	if dst.Failed() != nil {
		t.Fatal("dst failed; must stay resumable")
	}
}

func TestConcurrentPullsDifferentReceivers(t *testing.T) {
	f := startFixture(t)
	oid := types.ObjectIDFromString("x")
	data := payload(500000)
	f.add(oid, buffer.FromBytes(data))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := buffer.New(int64(len(data)))
			err := Pull(context.Background(), dialTo(f.addr), "r", oid, 0, dst)
			if err == nil && !bytes.Equal(dst.Bytes(), data) {
				err = errors.New("mismatch")
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func (f *fixture) addFile(t *testing.T, oid types.ObjectID, data []byte) *int32 {
	t.Helper()
	released := new(int32)
	f.mu.Lock()
	f.files[oid] = filePayload{
		ra:      bytes.NewReader(data),
		size:    int64(len(data)),
		release: func() { atomic.AddInt32(released, 1) },
	}
	f.mu.Unlock()
	return released
}

// TestPullFromFileSource exercises the disk-backed relay path: a Payload
// backed by an io.ReaderAt (a spill file) streams a full pull without any
// in-memory buffer on the sender, and the Release hook runs when the pull
// finishes.
func TestPullFromFileSource(t *testing.T) {
	f := startFixture(t)
	oid := types.ObjectIDFromString("spilled")
	data := payload(300000)
	released := f.addFile(t, oid, data)
	dst := buffer.New(int64(len(data)))
	if err := Pull(context.Background(), dialTo(f.addr), "recv", oid, 0, dst); err != nil {
		t.Fatal(err)
	}
	if !dst.Complete() || !bytes.Equal(dst.Bytes(), data) {
		t.Fatal("pull from file mismatch")
	}
	if atomic.LoadInt32(released) != 1 {
		t.Fatalf("release ran %d times, want 1", atomic.LoadInt32(released))
	}
}

// TestPullRangeFromFileSource stripes ranged sub-pulls off a disk-backed
// sender: each range lands at its absolute offset, exactly as with an
// in-memory source.
func TestPullRangeFromFileSource(t *testing.T) {
	f := startFixture(t)
	oid := types.ObjectIDFromString("spilled-ranged")
	data := payload(100000)
	f.addFile(t, oid, data)
	dst := buffer.NewChunked(int64(len(data)), 16<<10)
	var wg sync.WaitGroup
	for {
		off, length, ok := dst.ClaimNext(32 << 10)
		if !ok {
			break
		}
		wg.Add(1)
		go func(off, length int64) {
			defer wg.Done()
			if err := PullRange(context.Background(), dialTo(f.addr), "recv", oid, off, length, dst); err != nil {
				t.Error(err)
			}
		}(off, length)
	}
	wg.Wait()
	if dst.Present() != dst.Size() {
		t.Fatalf("present %d of %d", dst.Present(), dst.Size())
	}
	dst.Seal()
	if !bytes.Equal(dst.Bytes(), data) {
		t.Fatal("striped pull from file mismatch")
	}
}
