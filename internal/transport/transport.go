// Package transport implements Hoplite's data plane: a minimal framed TCP
// protocol through which a receiver node pulls an object's bytes from a
// sender node's store. The sender streams chunks as its local buffer
// watermark advances, so a node holding only a partial copy can already
// forward data (fine-grained pipelining, §3.3). Pulls carry a starting
// offset and a length: a full pull (length 0) resumes from the receiver's
// watermark after a sender failure (§3.5.1), while a ranged pull fetches
// one sub-range of the object, which is how a striped Get drains disjoint
// ranges from several complete copies at once. A connection carries
// successive pulls, one at a time: a receiver's Pool keeps it open after a
// stream that ended with its EOF frame and hands it to the next pull from
// the same sender. Failure detection is socket liveness (§5.5). A pull is
// served from whatever tier holds the object: an in-memory store buffer
// (streamed as its watermark advances) or a sealed spill file (streamed
// off disk via ReadAt, without rehydration).
package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hoplite/internal/buffer"
	"hoplite/internal/pool"
	"hoplite/internal/types"
)

// Wire constants. Every sender→receiver frame opens with a dedicated
// status byte, so a size header, a data chunk, end-of-stream and an error
// frame can never be confused — there is no sentinel value a genuine
// length could collide with.
const (
	reqPull byte = 0x70 // 'p'

	frameSize  byte = 0x01 // + u64 object size
	frameChunk byte = 0x02 // + u32 length + bytes
	frameEOF   byte = 0x03 // stream complete
	frameErr   byte = 0x04 // + u32 length + error text

	// maxChunkSize caps a single data chunk, and maxErrSize a single
	// error message, so a corrupt length can't force a huge allocation.
	maxChunkSize = 64 << 20
	maxErrSize   = 64 << 10

	// DefaultChunkSize is the wire chunk granularity. The paper's
	// pipelining block is 4 MB (§5.1.1); smaller wire chunks inside that
	// block keep latency low while bufio amortizes syscalls.
	DefaultChunkSize = 256 << 10
)

// Payload is what a Getter resolves a pull against: exactly one of Buf
// (an in-memory store buffer, possibly still filling — the sender blocks
// at its watermark) and File (a sealed, chunk-aligned spill file served
// via ReadAt, so spilled objects relay straight off disk without being
// rehydrated into memory) is set. Size must carry the object size when
// File is used; Release, if non-nil, runs once the pull is done (closing
// the file handle).
type Payload struct {
	Buf     *buffer.Buffer
	File    io.ReaderAt
	Size    int64
	Release func()
}

// ObjectSize returns the full object size whichever backing is set.
func (p *Payload) ObjectSize() int64 {
	if p.Buf != nil {
		return p.Buf.Size()
	}
	return p.Size
}

// Getter resolves an ObjectID to the local payload that should serve a
// pull: the store buffer when the object is in memory, or its spill file
// when it was demoted to disk. Implementations may block briefly for a
// buffer whose directory registration raced ahead of its local creation.
type Getter func(ctx context.Context, oid types.ObjectID) (Payload, error)

// SendFailFunc is called when a sender observes its receiver's socket die
// mid-transfer, so the node can clear the receiver's directory lease
// (failure detection via socket liveness, §5.5).
type SendFailFunc func(oid types.ObjectID, receiver types.NodeID)

// Stats counts the pulls a data-plane server has served. Tests use it to
// assert that a striped Get actually drew ranged pulls from this sender.
type Stats struct {
	// Pulls is the total number of pull requests accepted.
	Pulls int64
	// RangedPulls counts the subset that requested an explicit sub-range
	// (a striped Get stripe) rather than offset-to-end.
	RangedPulls int64
	// Conns is the number of data connections accepted. A receiver reuses
	// its connections, so this grows with new sender-receiver pairs and
	// with broken streams, not with pulls.
	Conns int64
}

// PeerStat counts what this sender has served to one receiver. The link
// estimator and tests use it to see how bytes actually spread across peers.
type PeerStat struct {
	// Pulls is the number of pulls this receiver issued here.
	Pulls int64
	// Bytes is the total chunk payload bytes sent to this receiver.
	Bytes int64
}

// TelemetryFunc observes one completed pull from the sender's side: the
// receiver it served, the chunk payload bytes sent, and the wall time spent
// inside chunk writes (watermark waits excluded, so a pipelined source does
// not masquerade as a slow link). The link-state tracker hangs off this.
type TelemetryFunc func(peer types.NodeID, bytes int64, d time.Duration)

// pullState carries one pull's egress flow and telemetry counters through
// the send path.
type pullState struct {
	flow    flow
	bytes   int64
	sendDur time.Duration
}

// Server serves pull requests from a node's store.
type Server struct {
	ln     net.Listener
	get    Getter
	onFail SendFailFunc
	chunk  int
	pulls  atomic.Int64
	ranged atomic.Int64
	nconns atomic.Int64
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	sched  *egress

	peerMu    sync.Mutex
	peers     map[types.NodeID]PeerStat
	telemetry TelemetryFunc
}

// NewServer creates a data-plane server on ln.
func NewServer(ln net.Listener, get Getter, chunkSize int, onFail SendFailFunc) *Server {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if chunkSize > maxChunkSize {
		// Receivers reject frames over maxChunkSize; never emit them.
		chunkSize = maxChunkSize
	}
	if onFail == nil {
		onFail = func(types.ObjectID, types.NodeID) {}
	}
	return &Server{
		ln: ln, get: get, onFail: onFail, chunk: chunkSize,
		conns: make(map[net.Conn]struct{}),
		sched: newEgress(),
		peers: make(map[types.NodeID]PeerStat),
	}
}

// SetTelemetry installs the per-pull observer called after each pull with
// the receiver, bytes sent, and time spent writing them. fn must be cheap;
// it runs on the serving goroutine.
func (s *Server) SetTelemetry(fn TelemetryFunc) {
	s.peerMu.Lock()
	s.telemetry = fn
	s.peerMu.Unlock()
}

// PeerStats returns a copy of the per-receiver serve counters.
func (s *Server) PeerStats() map[types.NodeID]PeerStat {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	out := make(map[types.NodeID]PeerStat, len(s.peers))
	for k, v := range s.peers {
		out[k] = v
	}
	return out
}

// recordPull folds one finished pull into the per-peer counters and feeds
// the telemetry hook.
func (s *Server) recordPull(receiver types.NodeID, st *pullState) {
	s.peerMu.Lock()
	ps := s.peers[receiver]
	ps.Pulls++
	ps.Bytes += st.bytes
	s.peers[receiver] = ps
	tel := s.telemetry
	s.peerMu.Unlock()
	if tel != nil && st.bytes > 0 && st.sendDur > 0 {
		tel(receiver, st.bytes, st.sendDur)
	}
}

// Addr returns the listen address; it doubles as the node's NodeID.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Serve accepts pull connections until Close.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return types.ErrClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return types.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.nconns.Add(1)
		go s.serveConn(conn)
	}
}

// request is one decoded pull request.
type request struct {
	oid            types.ObjectID
	offset, length int64
	receiver       types.NodeID
}

// serveConn serves successive pulls on one connection until the receiver
// closes it or a pull ends without its EOF frame, after which the stream
// is in no known state. A receiver sends nothing while its pull is in
// flight, so the request reader doubles as the liveness monitor: a read
// that fails mid-pull cancels the pull, even while the sender is blocked
// waiting for its own buffer to fill, and reports the receiver so the
// directory lease is freed promptly (§5.5). A read that fails while the
// connection is idle just closes it.
func (s *Server) serveConn(conn net.Conn) {
	ctx, cancel := context.WithCancel(context.Background())
	reqs := make(chan request)
	go readRequests(ctx, cancel, conn, reqs)
	defer func() {
		cancel()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	bw := bufio.NewWriterSize(conn, 64<<10)
	// The egress gate parks a pointer to a pull's flow, which puts its
	// pullState on the heap: allocate it once per connection, not per pull.
	st := new(pullState)
	for {
		var req request
		select {
		case req = <-reqs:
		case <-ctx.Done():
			return
		}
		s.pulls.Add(1)
		if req.length > 0 {
			s.ranged.Add(1)
		}
		*st = pullState{}
		sentEOF, err := s.servePull(ctx, bw, st, req.oid, req.offset, req.length)
		if err == nil {
			err = bw.Flush()
		}
		s.recordPull(req.receiver, st)
		if sentEOF && err == nil {
			continue // the receiver releases the lease itself
		}
		// A dead request reader means the receiver's socket died
		// mid-transfer; report it so the directory lease is freed (§5.5).
		// Graceful error frames (local buffer failed, receiver alive) do
		// not count.
		if ctx.Err() != nil || (err != nil && !errors.Is(err, context.Canceled)) {
			s.onFail(req.oid, req.receiver)
		}
		return
	}
}

// readRequests decodes pull requests off conn and hands them to the serving
// loop until a read fails or the loop is done; either way it cancels ctx.
func readRequests(ctx context.Context, cancel context.CancelFunc, conn net.Conn, reqs chan<- request) {
	defer cancel()
	br := bufio.NewReader(conn)
	var hdr [1 + types.ObjectIDSize + 8 + 8 + 2]byte
	var name []byte
	var receiver types.NodeID
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil || hdr[0] != reqPull {
			return
		}
		var req request
		copy(req.oid[:], hdr[1:1+types.ObjectIDSize])
		req.offset = int64(binary.BigEndian.Uint64(hdr[1+types.ObjectIDSize:]))
		req.length = int64(binary.BigEndian.Uint64(hdr[1+types.ObjectIDSize+8:]))
		rlen := int(binary.BigEndian.Uint16(hdr[1+types.ObjectIDSize+16:]))
		if cap(name) < rlen {
			name = make([]byte, rlen)
		}
		name = name[:rlen]
		if _, err := io.ReadFull(br, name); err != nil {
			return
		}
		// A connection serves one receiver, so its name is converted once.
		if string(name) != string(receiver) {
			receiver = types.NodeID(name)
		}
		req.receiver = receiver
		select {
		case reqs <- req:
		case <-ctx.Done():
			return
		}
	}
}

func writeFrameHeader(w io.Writer, status byte, n uint32) error {
	var b [5]byte
	b[0] = status
	binary.BigEndian.PutUint32(b[1:], n)
	_, err := w.Write(b[:])
	return err
}

func writeError(w *bufio.Writer, err error) error {
	msg := err.Error()
	if len(msg) > maxErrSize {
		msg = msg[:maxErrSize]
	}
	if e := writeFrameHeader(w, frameErr, uint32(len(msg))); e != nil {
		return e
	}
	if _, e := w.WriteString(msg); e != nil {
		return e
	}
	return w.Flush()
}

// servePull streams one object range: [offset, offset+length), or
// offset-to-end when length is 0. sentEOF reports whether the full stream
// (terminated by the EOF frame) was handed to the writer.
func (s *Server) servePull(ctx context.Context, bw *bufio.Writer, st *pullState, oid types.ObjectID, offset, length int64) (sentEOF bool, err error) {
	src, err := s.get(ctx, oid)
	if err != nil {
		return false, writeError(bw, err)
	}
	if src.Release != nil {
		defer src.Release()
	}
	size := src.ObjectSize()
	// Offset and length come off the wire: validate them before they can
	// index the payload (a negative or past-end value would panic the
	// send loop).
	if offset < 0 || offset > size {
		return false, writeError(bw, fmt.Errorf("pull offset %d out of range [0,%d]", offset, size))
	}
	// Compare length against the remaining bytes rather than computing
	// offset+length: a hostile huge length would overflow int64 and slip
	// past an end > size check as a negative end.
	if length < 0 || length > size-offset {
		return false, writeError(bw, fmt.Errorf("pull range [%d,+%d) out of range [0,%d]", offset, length, size))
	}
	end := size
	if length > 0 {
		end = offset + length
	}
	s.sched.enter(&st.flow)
	defer s.sched.exit()
	// Size frame first so the receiver can allocate (always the full
	// object size, not the range length).
	var szb [9]byte
	szb[0] = frameSize
	binary.BigEndian.PutUint64(szb[1:], uint64(size))
	if _, err := bw.Write(szb[:]); err != nil {
		return false, err
	}
	if src.Buf != nil {
		if err := s.serveFromBuffer(ctx, bw, st, src.Buf, offset, end); err != nil {
			return false, err
		}
	} else {
		if err := s.serveFromFile(ctx, bw, st, src.File, offset, end); err != nil {
			return false, err
		}
	}
	if _, err := bw.Write([]byte{frameEOF}); err != nil {
		return false, err
	}
	return true, nil
}

// sendChunk frames and writes one data chunk through the egress scheduler.
// Contended sends flush inside their turn so at most ~one chunk of this
// pull sits unflushed when the next flow gets its turn. The time spent here
// (scheduler wait plus the write itself) accrues to the pull's telemetry;
// watermark waits do not.
func (s *Server) sendChunk(st *pullState, bw *bufio.Writer, p []byte) error {
	write := func(flush bool) error {
		if err := writeFrameHeader(bw, frameChunk, uint32(len(p))); err != nil {
			return err
		}
		if _, err := bw.Write(p); err != nil {
			return err
		}
		if flush {
			return bw.Flush()
		}
		return nil
	}
	start := time.Now()
	err := s.sched.send(&st.flow, int64(len(p)), write)
	st.sendDur += time.Since(start)
	if err == nil {
		st.bytes += int64(len(p))
	}
	return err
}

// serveFromBuffer streams [offset, end) of an in-memory buffer, blocking
// at the watermark so a partial copy already feeds downstream transfers
// (fine-grained pipelining, §3.3).
func (s *Server) serveFromBuffer(ctx context.Context, bw *bufio.Writer, st *pullState, buf *buffer.Buffer, offset, end int64) error {
	data := buf.Bytes()
	off := offset
	for off < end {
		wm, _, err := buf.WaitAt(ctx, off)
		if err != nil {
			return writeError(bw, err)
		}
		if wm > end {
			wm = end
		}
		for off < wm {
			stop := off + int64(s.chunk)
			if stop > wm {
				stop = wm
			}
			if err := s.sendChunk(st, bw, data[off:stop]); err != nil {
				return err
			}
			off = stop
		}
		// Flush at watermark boundaries so partial data reaches the
		// receiver promptly.
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// serveFromFile streams [offset, end) of a sealed spill file through a
// pooled chunk buffer: the disk-backed relay path — the object is served
// without rehydrating it into the store. The file is complete, so there
// is no watermark to wait on; ctx is only consulted between chunks.
func (s *Server) serveFromFile(ctx context.Context, bw *bufio.Writer, st *pullState, f io.ReaderAt, offset, end int64) error {
	chunk := pool.Get(s.chunk)
	defer pool.Put(chunk)
	off := offset
	for off < end {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := int64(s.chunk)
		if n > end-off {
			n = end - off
		}
		if m, err := f.ReadAt(chunk[:n], off); err != nil && !(err == io.EOF && int64(m) == n) {
			return writeError(bw, fmt.Errorf("spill read at %d: %w", off, err))
		}
		if err := s.sendChunk(st, bw, chunk[:n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// Stats returns the server's pull counters.
func (s *Server) Stats() Stats {
	return Stats{Pulls: s.pulls.Load(), RangedPulls: s.ranged.Load(), Conns: s.nconns.Load()}
}

// Close stops the server and closes every data connection.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	return err
}

// DialFunc opens a data-plane connection to the chosen sender.
type DialFunc func(ctx context.Context) (net.Conn, error)

// Observer receives the receiver-side measurement of a pull's data phase:
// payload bytes that arrived and the wall time from the size frame to the
// last of them. It fires even when the pull fails partway (with whatever
// prefix arrived), so a dying-but-slow sender still yields a bandwidth
// sample. The link-state tracker hangs off this.
type Observer func(bytes int64, d time.Duration)

// Pull streams oid's bytes from the sender reached via dial into dst,
// starting at offset (which must equal dst's watermark). self identifies
// the pulling node so the sender can report a broken receiver to the
// directory. Bytes are appended to dst as they arrive, advancing its
// watermark so that local readers and onward transfers proceed
// concurrently. On success dst is sealed. On failure dst is left
// un-failed at its current watermark so the caller can resume from
// another sender.
func Pull(ctx context.Context, dial DialFunc, self types.NodeID, oid types.ObjectID, offset int64, dst *buffer.Buffer) error {
	return PullObserved(ctx, dial, self, oid, offset, 0, dst, nil)
}

// PullRange streams exactly [offset, offset+length) of oid from the
// sender into dst via dst.WriteAt, filling the chunk ledger without
// touching bytes outside the range. The caller owns the range (typically
// via dst.ClaimNext) and seals dst itself once every range is present. On
// failure dst keeps whatever prefix of the range arrived; the caller
// releases the claim so the missing bytes — and only those — can be
// re-fetched from another sender.
func PullRange(ctx context.Context, dial DialFunc, self types.NodeID, oid types.ObjectID, offset, length int64, dst *buffer.Buffer) error {
	if length <= 0 {
		return fmt.Errorf("transport: pull range length %d", length)
	}
	return PullObserved(ctx, dial, self, oid, offset, length, dst, nil)
}

// PullObserved runs one pull — length 0: from the watermark to the end,
// sealing dst (Pull); length > 0: one range (PullRange) — on a connection
// of its own, with a transfer Observer (nil is allowed). Arriving chunks
// are written at their absolute offset, which equals dst's watermark for a
// full pull and extends a claimed range's fill for a ranged one.
func PullObserved(ctx context.Context, dial DialFunc, self types.NodeID, oid types.ObjectID, offset, length int64, dst *buffer.Buffer, obs Observer) error {
	if err := checkPull(self, offset, length, dst); err != nil {
		return err
	}
	conn, err := dial(ctx)
	if err != nil {
		return fmt.Errorf("transport: dial sender: %w", err)
	}
	c := newDataConn(conn)
	defer c.Close()
	_, _, err = c.pull(ctx, self, oid, offset, length, dst, obs)
	return err
}

// checkPull rejects a pull that could not be requested or could not land
// in dst, before any connection is touched.
func checkPull(self types.NodeID, offset, length int64, dst *buffer.Buffer) error {
	if length == 0 && offset != dst.Watermark() {
		return fmt.Errorf("transport: pull offset %d != watermark %d", offset, dst.Watermark())
	}
	if offset < 0 || length < 0 || offset+length > dst.Size() {
		return fmt.Errorf("transport: pull range [%d,%d) outside object of %d bytes", offset, offset+length, dst.Size())
	}
	if len(self) > 65535 {
		return fmt.Errorf("transport: node id too long")
	}
	return nil
}

// maxIdlePerSender caps the idle connections a Pool keeps to one sender:
// enough for a striped Get's and a relay's concurrent pulls from the same
// node to find one each.
const maxIdlePerSender = 4

// Pool keeps a receiver's idle data-plane connections per sender address,
// so successive pulls from one sender skip the dial, the plane handshake
// and the per-connection buffers on both ends. Pulls never share a
// connection: each takes one to itself and, only after a stream that
// ended with its EOF frame at the expected end, gives it back.
type Pool struct {
	dial func(ctx context.Context, addr string) (net.Conn, error)

	mu     sync.Mutex
	idle   map[string][]*dataConn
	closed bool
}

// NewPool creates a connection pool that opens connections with dial.
func NewPool(dial func(ctx context.Context, addr string) (net.Conn, error)) *Pool {
	return &Pool{dial: dial, idle: make(map[string][]*dataConn)}
}

// Pull is PullObserved from the sender at addr over a pooled connection.
// A reused connection that fails before the sender's first response byte
// was closed by the sender while it sat idle (a restart, say); that says
// nothing about the sender now, so the pull is retried once on a fresh
// dial.
func (p *Pool) Pull(ctx context.Context, addr string, self types.NodeID, oid types.ObjectID, offset, length int64, dst *buffer.Buffer, obs Observer) error {
	if err := checkPull(self, offset, length, dst); err != nil {
		return err
	}
	c := p.take(addr)
	reused := c != nil
	for {
		if c == nil {
			conn, err := p.dial(ctx, addr)
			if err != nil {
				return fmt.Errorf("transport: dial sender: %w", err)
			}
			c = newDataConn(conn)
		}
		idle, answered, err := c.pull(ctx, self, oid, offset, length, dst, obs)
		if idle {
			p.put(addr, c)
		}
		if err == nil || !reused || answered || ctx.Err() != nil {
			return err
		}
		c, reused = nil, false
	}
}

// take pops the most recently used idle connection to addr, if any.
func (p *Pool) take(addr string) *dataConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	cs := p.idle[addr]
	if len(cs) == 0 {
		return nil
	}
	c := cs[len(cs)-1]
	cs[len(cs)-1] = nil
	p.idle[addr] = cs[:len(cs)-1]
	return c
}

// put parks an idle connection to addr, or closes it when the pool is
// closed or already holds its cap for addr.
func (p *Pool) put(addr string, c *dataConn) {
	p.mu.Lock()
	if !p.closed && len(p.idle[addr]) < maxIdlePerSender {
		p.idle[addr] = append(p.idle[addr], c)
		c = nil
	}
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Close closes every idle connection; connections in use close when their
// pull ends.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	idle := p.idle
	p.idle = make(map[string][]*dataConn)
	p.mu.Unlock()
	for _, cs := range idle {
		for _, c := range cs {
			c.Close()
		}
	}
}

// dataConn is one receiver-side data connection with the read buffer and
// request scratch that live as long as it does.
type dataConn struct {
	net.Conn
	br  *bufio.Reader
	req []byte
}

func newDataConn(conn net.Conn) *dataConn {
	return &dataConn{Conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
}

// pull runs one pull over c: the one receive loop behind both PullObserved
// and Pool. idle reports that c can carry the next pull — the stream ended
// with its EOF frame at the expected end and ctx never fired; otherwise c
// is closed. answered reports whether any response byte arrived.
func (c *dataConn) pull(ctx context.Context, self types.NodeID, oid types.ObjectID, offset, length int64, dst *buffer.Buffer, obs Observer) (idle, answered bool, err error) {
	stop := context.AfterFunc(ctx, func() { c.Close() })
	answered, err = c.exchange(self, oid, offset, length, dst, obs)
	if !stop() {
		return false, answered, err // ctx closed c
	}
	if err != nil || c.br.Buffered() > 0 {
		c.Close()
		return false, answered, err
	}
	return true, answered, nil
}

// exchange sends one request and reads its response stream into dst.
func (c *dataConn) exchange(self types.NodeID, oid types.ObjectID, offset, length int64, dst *buffer.Buffer, obs Observer) (answered bool, err error) {
	req := append(c.req[:0], reqPull)
	req = append(req, oid[:]...)
	req = binary.BigEndian.AppendUint64(req, uint64(offset))
	req = binary.BigEndian.AppendUint64(req, uint64(length))
	req = binary.BigEndian.AppendUint16(req, uint16(len(self)))
	req = append(req, self...)
	c.req = req
	if _, err := c.Write(req); err != nil {
		return false, fmt.Errorf("transport: send request: %w", err)
	}

	br := c.br
	// The first frame is either the size header or an error frame; the
	// status byte disambiguates, so no length value can be mistaken for
	// an error sentinel (or vice versa).
	status, err := br.ReadByte()
	if err != nil {
		return false, fmt.Errorf("transport: read size frame: %w", err)
	}
	switch status {
	case frameErr:
		return true, readErrorFrame(br)
	case frameSize:
	default:
		return true, fmt.Errorf("transport: unexpected frame 0x%02x, want size", status)
	}
	var szb [8]byte
	if _, err := io.ReadFull(br, szb[:]); err != nil {
		return true, fmt.Errorf("transport: read size: %w", err)
	}
	size := int64(binary.BigEndian.Uint64(szb[:]))
	if size != dst.Size() {
		return true, fmt.Errorf("transport: size mismatch: sender %d, local %d", size, dst.Size())
	}

	end := size
	if length > 0 {
		end = offset + length
	}
	got := offset
	if obs != nil {
		start := time.Now()
		defer func() {
			if got > offset {
				obs(got-offset, time.Since(start))
			}
		}()
	}
	chunk := pool.Get(DefaultChunkSize)
	defer func() { pool.Put(chunk) }()
	for {
		status, err := br.ReadByte()
		if err != nil {
			return true, fmt.Errorf("transport: read frame header: %w", err)
		}
		switch status {
		case frameEOF:
			if got != end {
				return true, fmt.Errorf("transport: short stream: %d of %d bytes", got-offset, end-offset)
			}
			if length == 0 {
				dst.Seal()
			}
			return true, nil
		case frameErr:
			return true, readErrorFrame(br)
		case frameChunk:
			var hb [4]byte
			if _, err := io.ReadFull(br, hb[:]); err != nil {
				return true, fmt.Errorf("transport: read chunk header: %w", err)
			}
			n := binary.BigEndian.Uint32(hb[:])
			if n > maxChunkSize {
				return true, fmt.Errorf("transport: chunk of %d bytes exceeds limit", n)
			}
			if n == 0 {
				// The sender never emits empty chunks; accepting them
				// would let a misbehaving peer spin the receiver forever
				// without watermark progress.
				return true, errors.New("transport: zero-length chunk")
			}
			if int(n) > len(chunk) {
				pool.Put(chunk)
				chunk = pool.Get(int(n))
			}
			if _, err := io.ReadFull(br, chunk[:n]); err != nil {
				return true, fmt.Errorf("transport: read chunk: %w", err)
			}
			if got+int64(n) > end {
				return true, errors.New("transport: sender overran requested range")
			}
			if err := dst.WriteAt(chunk[:n], got); err != nil {
				return true, err
			}
			got += int64(n)
		default:
			return true, fmt.Errorf("transport: unexpected frame 0x%02x", status)
		}
	}
}

// readErrorFrame consumes an error frame body (after its status byte) and
// converts it into the sender's error.
func readErrorFrame(br *bufio.Reader) error {
	var hb [4]byte
	if _, err := io.ReadFull(br, hb[:]); err != nil {
		return fmt.Errorf("transport: read error frame: %w", err)
	}
	msgLen := binary.BigEndian.Uint32(hb[:])
	if msgLen > maxErrSize {
		return fmt.Errorf("transport: error frame of %d bytes exceeds limit", msgLen)
	}
	msg := make([]byte, msgLen)
	if _, err := io.ReadFull(br, msg); err != nil {
		return fmt.Errorf("transport: read error frame: %w", err)
	}
	if string(msg) == types.ErrDeleted.Error() {
		return types.ErrDeleted
	}
	return fmt.Errorf("transport: sender: %s: %w", msg, types.ErrAborted)
}
