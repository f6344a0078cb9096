// Binary wire codec for Message. Frames are length-delimited with a
// fixed-layout body: every field is encoded explicitly at a known offset
// (no reflection, no per-type metadata), so encoding is a straight run of
// stores and decoding a straight run of loads with bounds checks. Scratch
// buffers come from internal/pool, which the data plane shares, so steady
// state encode/decode performs no allocation beyond the variable-length
// fields (strings, payload, location list) that escape into the decoded
// Message.
//
// Frame layout (all integers big-endian):
//
//	u32  body length (<= MaxFrameSize)
//	u8   method
//	u8   flags
//	u8   bools (bit0 Complete, bit1 Wait)
//	u8   op kind
//	u8   op dtype
//	u64  id
//	[20] oid
//	[20] target
//	u64  size, offset, num, num2, gen, epoch (6 × u64, two's complement)
//	u16  node len      + bytes
//	u16  sender len    + bytes
//	u16  err len       + bytes
//	u32  sources count + count × [20]
//	u32  locs count    + count × (u16 node len + bytes + u8 progress)
//	u32  payload len   + bytes

package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"hoplite/internal/pool"
	"hoplite/internal/types"
)

// MaxFrameSize caps the body length of a single control-plane frame. A
// corrupt or hostile length prefix therefore cannot make the decoder
// allocate unboundedly; connections carrying such a prefix fail fast.
const MaxFrameSize = 16 << 20

// MaxLocations caps the location list of a single message. A location is
// only 3 wire bytes when its node id is empty but ~24 in-memory bytes, so
// without a count cap one MaxFrameSize frame could amplify into ~134 MB
// of decoded Location structs. Real lists are bounded by cluster size.
const MaxLocations = 1 << 16

var (
	// ErrFrameTooLarge reports an encoded or received frame over MaxFrameSize.
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameSize")
	// errCorruptFrame reports a body whose fields overrun its length.
	errCorruptFrame = errors.New("wire: corrupt frame")
)

const (
	boolComplete = 1 << 0
	boolWait     = 1 << 1

	fixedBodySize = 5 + 8 + 2*types.ObjectIDSize + 6*8
)

// encodedBodySize returns the exact body size of m's frame.
func encodedBodySize(m *Message) int {
	n := fixedBodySize
	n += 2 + len(m.Node)
	n += 2 + len(m.Sender)
	n += 2 + len(m.Err)
	n += 4 + len(m.Sources)*types.ObjectIDSize
	n += 4
	for _, l := range m.Locs {
		n += 2 + len(l.Node) + 1
	}
	n += 4 + len(m.Payload)
	return n
}

// AppendMessage appends m's frame (length prefix + body) to dst and
// returns the extended slice. It fails if a variable-length field overruns
// its width or the body exceeds MaxFrameSize.
func AppendMessage(dst []byte, m *Message) ([]byte, error) {
	if len(m.Node) > 0xFFFF || len(m.Sender) > 0xFFFF || len(m.Err) > 0xFFFF {
		return dst, fmt.Errorf("wire: string field exceeds 64 KiB")
	}
	for _, l := range m.Locs {
		if len(l.Node) > 0xFFFF {
			return dst, fmt.Errorf("wire: location node id exceeds 64 KiB")
		}
	}
	if len(m.Locs) > MaxLocations {
		return dst, fmt.Errorf("wire: %d locations exceed MaxLocations", len(m.Locs))
	}
	body := encodedBodySize(m)
	if body > MaxFrameSize {
		return dst, ErrFrameTooLarge
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))

	var bools byte
	if m.Complete {
		bools |= boolComplete
	}
	if m.Wait {
		bools |= boolWait
	}
	dst = append(dst, byte(m.Method), m.Flags, bools, byte(m.Op.Kind), byte(m.Op.DType))
	dst = binary.BigEndian.AppendUint64(dst, m.ID)
	dst = append(dst, m.OID[:]...)
	dst = append(dst, m.Target[:]...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Size))
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Offset))
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Num))
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Num2))
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Gen))
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Epoch))
	dst = appendString16(dst, string(m.Node))
	dst = appendString16(dst, string(m.Sender))
	dst = appendString16(dst, m.Err)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Sources)))
	for i := range m.Sources {
		dst = append(dst, m.Sources[i][:]...)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Locs)))
	for _, l := range m.Locs {
		dst = appendString16(dst, string(l.Node))
		dst = append(dst, byte(l.Progress))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Payload)))
	dst = append(dst, m.Payload...)
	return dst, nil
}

func appendString16(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// reader walks a frame body with bounds checks.
type reader struct {
	b   []byte
	off int
	err bool
}

func (r *reader) take(n int) []byte {
	if r.err || n < 0 || len(r.b)-r.off < n {
		r.err = true
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *reader) u8() byte {
	if v := r.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (r *reader) u16() int {
	if v := r.take(2); v != nil {
		return int(binary.BigEndian.Uint16(v))
	}
	return 0
}

func (r *reader) u32() int {
	if v := r.take(4); v != nil {
		return int(binary.BigEndian.Uint32(v))
	}
	return 0
}

func (r *reader) u64() uint64 {
	if v := r.take(8); v != nil {
		return binary.BigEndian.Uint64(v)
	}
	return 0
}

func (r *reader) string16() string { return string(r.take(r.u16())) }

func (r *reader) nodeID16() types.NodeID { return internNodeID(r.take(r.u16())) }

// A cluster has few distinct node addresses but repeats them in nearly
// every control-plane message, so decoded NodeIDs are interned: steady
// state decoding allocates no strings at all. The table is capped in
// both entry count and entry length so a flood of distinct (possibly
// hostile) ids cannot pin more than ~1 MiB for the process lifetime.
const (
	maxInternedNodeIDs  = 4096
	maxInternedIDLength = 256 // real ids are host:port, far shorter
)

var (
	internMu sync.RWMutex
	interned = make(map[string]types.NodeID)
)

func internNodeID(b []byte) types.NodeID {
	if len(b) == 0 {
		return ""
	}
	if len(b) > maxInternedIDLength {
		return types.NodeID(b)
	}
	internMu.RLock()
	v, ok := interned[string(b)] // compiler elides the []byte→string copy
	internMu.RUnlock()
	if ok {
		return v
	}
	v = types.NodeID(b)
	internMu.Lock()
	if len(interned) >= maxInternedNodeIDs {
		// Epoch reset: after heavy node churn (or a flood of hostile
		// ids) drop the table so live ids can re-intern, rather than
		// permanently disabling the optimization.
		interned = make(map[string]types.NodeID)
	}
	interned[string(v)] = v
	internMu.Unlock()
	return v
}

// UnmarshalMessage decodes one frame body (without the length prefix)
// into m, overwriting every field.
func UnmarshalMessage(body []byte, m *Message) error {
	r := reader{b: body}
	m.Method = Method(r.u8())
	m.Flags = r.u8()
	bools := r.u8()
	if bools&^(boolComplete|boolWait) != 0 {
		return errCorruptFrame
	}
	m.Complete = bools&boolComplete != 0
	m.Wait = bools&boolWait != 0
	m.Op.Kind = types.OpKind(r.u8())
	m.Op.DType = types.DType(r.u8())
	m.ID = r.u64()
	copy(m.OID[:], r.take(types.ObjectIDSize))
	copy(m.Target[:], r.take(types.ObjectIDSize))
	m.Size = int64(r.u64())
	m.Offset = int64(r.u64())
	m.Num = int64(r.u64())
	m.Num2 = int64(r.u64())
	m.Gen = int64(r.u64())
	m.Epoch = int64(r.u64())
	m.Node = r.nodeID16()
	m.Sender = r.nodeID16()
	m.Err = r.string16()

	m.Sources = nil
	if n := r.u32(); n > 0 {
		// Divide rather than multiply: n is attacker-controlled and the
		// product could overflow int on 32-bit platforms.
		if n > (len(body)-r.off)/types.ObjectIDSize {
			return errCorruptFrame
		}
		m.Sources = make([]types.ObjectID, n)
		for i := 0; i < n; i++ {
			copy(m.Sources[i][:], r.take(types.ObjectIDSize))
		}
	}
	m.Locs = nil
	if n := r.u32(); n > 0 {
		// Each location is at least 3 bytes; reject counts the remaining
		// body cannot possibly hold before allocating (divide, not
		// multiply, to stay overflow-safe on 32-bit platforms), and cap
		// the count so wire bytes can't amplify into much larger structs.
		if n > (len(body)-r.off)/3 || n > MaxLocations {
			return errCorruptFrame
		}
		m.Locs = make([]types.Location, n)
		for i := 0; i < n; i++ {
			m.Locs[i].Node = r.nodeID16()
			m.Locs[i].Progress = types.Progress(r.u8())
		}
	}
	m.Payload = nil
	if n := r.u32(); n > 0 {
		if len(body)-r.off < n {
			return errCorruptFrame
		}
		m.Payload = make([]byte, n)
		copy(m.Payload, r.take(n))
	}
	if r.err || r.off != len(body) {
		return errCorruptFrame
	}
	return nil
}

// readMessage reads one frame from r into m, enforcing MaxFrameSize
// before allocating anything.
func readMessage(r io.Reader, m *Message) error {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint32(lenb[:]))
	if n > MaxFrameSize {
		return ErrFrameTooLarge
	}
	if n < fixedBodySize {
		return errCorruptFrame
	}
	body := pool.Get(n)
	defer pool.Put(body)
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return UnmarshalMessage(body, m)
}
