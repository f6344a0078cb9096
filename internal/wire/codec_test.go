package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"hoplite/internal/types"
)

func sampleMessages() []Message {
	oid := types.ObjectIDFromString("obj")
	return []Message{
		{},
		{Method: MethodPing, ID: 1},
		{
			Method:   MethodLookup,
			ID:       1<<63 + 7,
			Flags:    FlagResponse,
			OID:      oid,
			Target:   types.ObjectIDFromString("target"),
			Sources:  []types.ObjectID{oid, types.ObjectIDFromString("b")},
			Node:     "10.0.0.1:7777",
			Sender:   "10.0.0.2:7777",
			Size:     -1, // SizeUnknown must survive the round trip
			Offset:   1 << 40,
			Num:      -12345,
			Num2:     3,
			Gen:      9,
			Complete: true,
			Wait:     true,
			Payload:  []byte{0, 1, 2, 3, 255},
			Locs: []types.Location{
				{Node: "n1", Progress: types.ProgressPartial},
				{Node: "", Progress: types.ProgressComplete},
			},
			Op:  types.ReduceOp{Kind: types.Max, DType: types.I64},
			Err: "object not found",
		},
		{Method: MethodAcquire, OID: oid, Wait: true},
		{Flags: FlagNotify, Method: MethodNotify, Locs: []types.Location{{Node: "x:1"}}},
		// One seed per remaining method (wiremethod enforces full corpus
		// coverage), each with the field subset that method actually uses.
		{Method: MethodPutStarted, ID: 2, OID: oid, Node: "n1:1", Size: 4096},
		{Method: MethodPutComplete, ID: 3, OID: oid, Node: "n1:1", Gen: 2},
		{Method: MethodPutInline, ID: 4, OID: oid, Node: "n1:1", Payload: []byte("inline")},
		{Method: MethodAcquireMany, ID: 5, OID: oid, Sender: "n2:1", Num: 4},
		{Method: MethodRelease, ID: 6, OID: oid, Node: "n2:1", Sender: "n1:1", Offset: 512, Complete: true},
		{Method: MethodAbort, ID: 7, OID: oid, Node: "n2:1", Sender: "n1:1", Err: "conn reset"},
		{Method: MethodAbortDown, ID: 8, OID: oid, Node: "n2:1", Sender: "n1:1"},
		{Method: MethodSubscribe, ID: 9, OID: oid, Node: "n3:1"},
		{Method: MethodUnsubscribe, ID: 10, OID: oid, Node: "n3:1"},
		{Method: MethodDelete, ID: 11, OID: oid},
		{Method: MethodPurgeNode, ID: 12, Node: "dead:1"},
		{Method: MethodRemoveLoc, ID: 13, OID: oid, Node: "n1:1"},
		{Method: MethodMarkSpilled, ID: 14, OID: oid, Node: "n1:1", Size: 1 << 20},
		{Method: MethodReduceStart, ID: 15, OID: oid, Target: types.ObjectIDFromString("out"),
			Sources: []types.ObjectID{oid}, Num: 1, Num2: 2, Gen: 3,
			Op: types.ReduceOp{Kind: types.Sum, DType: types.F64}},
		{Method: MethodReduceCancel, ID: 16, Target: types.ObjectIDFromString("out"), Gen: 3},
		{Method: MethodEvictLocal, ID: 17, OID: oid},
		{Method: MethodCancel, Num: 18},
		{Method: MethodReplicate, ID: 19, OID: oid, Node: "n1:1", Num: 7, Gen: 1},
		{Method: MethodDirHeartbeat, ID: 20, Num: 8},
		{Method: MethodDirSnapshot, ID: 21, Payload: []byte{1, 2, 3}, Num: 9},
		{Method: MethodJoin, ID: 22, Node: "new:1", Complete: true, Epoch: 3},
		{Method: MethodDrain, ID: 23, Node: "old:1", Num: 1, Epoch: 3},
		{Method: MethodMapPush, ID: 24, Payload: []byte{4, 5, 6}, Epoch: 4},
		{Method: MethodMapGet, ID: 25, Epoch: 2},
		{Method: MethodRepairPull, ID: 26, OID: oid, Epoch: 4},
		{Method: MethodStatus, ID: 27, Node: "n1:1", Epoch: 4},
		{Method: MethodLinkState, ID: 28, Payload: []byte{7, 8, 9}},
	}
}

func roundTrip(t *testing.T, m *Message) Message {
	t.Helper()
	frame, err := AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	n := binary.BigEndian.Uint32(frame[:4])
	if int(n) != len(frame)-4 {
		t.Fatalf("length prefix %d, body %d", n, len(frame)-4)
	}
	var got Message
	if err := UnmarshalMessage(frame[4:], &got); err != nil {
		t.Fatal(err)
	}
	return got
}

func messagesEqual(a, b *Message) bool {
	// nil and empty slices are indistinguishable on the wire.
	norm := func(m Message) Message {
		if len(m.Sources) == 0 {
			m.Sources = nil
		}
		if len(m.Locs) == 0 {
			m.Locs = nil
		}
		if len(m.Payload) == 0 {
			m.Payload = nil
		}
		return m
	}
	return reflect.DeepEqual(norm(*a), norm(*b))
}

func TestCodecRoundTrip(t *testing.T) {
	for i, m := range sampleMessages() {
		got := roundTrip(t, &m)
		if !messagesEqual(&m, &got) {
			t.Fatalf("message %d: round trip mismatch\nsent %+v\ngot  %+v", i, m, got)
		}
	}
}

func TestCodecStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := sampleMessages()
	for i := range msgs {
		frame, err := AppendMessage(nil, &msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame)
	}
	br := bufio.NewReader(&buf)
	for i := range msgs {
		var got Message
		if err := readMessage(br, &got); err != nil {
			t.Fatal(err)
		}
		if !messagesEqual(&msgs[i], &got) {
			t.Fatalf("stream message %d mismatch", i)
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatal("trailing bytes after stream")
	}
}

// Decoding reuses the target message; stale fields must not leak through.
func TestDecodeOverwritesPreviousFields(t *testing.T) {
	full := sampleMessages()[2]
	frame, err := AppendMessage(nil, &Message{Method: MethodPing})
	if err != nil {
		t.Fatal(err)
	}
	got := full
	if err := UnmarshalMessage(frame[4:], &got); err != nil {
		t.Fatal(err)
	}
	want := Message{Method: MethodPing}
	if !messagesEqual(&want, &got) {
		t.Fatalf("stale fields leaked: %+v", got)
	}
}

func TestOversizedLengthPrefixRejected(t *testing.T) {
	var frame [4]byte
	binary.BigEndian.PutUint32(frame[:], MaxFrameSize+1)
	var m Message
	err := readMessage(bytes.NewReader(frame[:]), &m)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v", err)
	}
}

func TestOversizedPayloadRejectedOnEncode(t *testing.T) {
	m := Message{Payload: make([]byte, MaxFrameSize)}
	if _, err := AppendMessage(nil, &m); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v", err)
	}
}

// Corrupt bodies must error out, never panic or over-allocate.
func TestCorruptBodiesRejected(t *testing.T) {
	good, err := AppendMessage(nil, &sampleMessages()[2])
	if err != nil {
		t.Fatal(err)
	}
	body := good[4:]
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"truncated fixed", body[:10]},
		{"truncated variable", body[:len(body)-3]},
		{"trailing garbage", append(append([]byte{}, body...), 0xAA)},
	} {
		var m Message
		if err := UnmarshalMessage(tc.body, &m); err == nil {
			t.Fatalf("%s: corrupt body accepted", tc.name)
		}
	}
	// A huge sources count with a tiny body must be rejected before the
	// decoder allocates count*20 bytes.
	short := append([]byte{}, body[:fixedBodySize]...)
	short = append(short, 0, 0, 0, 0, 0, 0) // empty node, sender, err
	short = binary.BigEndian.AppendUint32(short, 1<<30)
	var m Message
	if err := UnmarshalMessage(short, &m); err == nil {
		t.Fatal("huge sources count accepted")
	}
}

// FuzzMessageRoundTrip exercises the codec in both directions: structured
// inputs must survive encode→decode unchanged, and arbitrary decoder input
// must either round-trip consistently or fail cleanly.
func FuzzMessageRoundTrip(f *testing.F) {
	for _, m := range sampleMessages() {
		frame, err := AppendMessage(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		var m Message
		if err := UnmarshalMessage(body, &m); err != nil {
			return // rejected cleanly
		}
		// Whatever decoded must re-encode to an identical body: the codec
		// is canonical, so decode∘encode is the identity on valid frames.
		frame, err := AppendMessage(nil, &m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		if !bytes.Equal(frame[4:], body) {
			t.Fatalf("non-canonical frame:\nin  %x\nout %x", body, frame[4:])
		}
		var m2 Message
		if err := UnmarshalMessage(frame[4:], &m2); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !messagesEqual(&m, &m2) {
			t.Fatalf("round trip mismatch\nfirst  %+v\nsecond %+v", m, m2)
		}
	})
}
