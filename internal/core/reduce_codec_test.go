package core

import (
	"reflect"
	"testing"

	"hoplite/internal/types"
)

func TestReduceSpecRoundTrip(t *testing.T) {
	specs := []reduceSpec{
		{},
		{
			ReduceID:  types.ObjectIDFromString("target"),
			Slot:      3,
			Epoch:     7,
			OwnOID:    types.ObjectIDFromString("own"),
			OutputOID: types.ObjectIDFromString("out"),
			Children: []childRef{
				{OID: types.ObjectIDFromString("c1"), Host: "10.0.0.1:7077"},
				{OID: types.ObjectIDFromString("c2")},
				{OID: types.ObjectIDFromString("c4"), Host: "node-4"},
			},
			IsRoot: true,
			Size:   1 << 30,
			Op:     types.ReduceOp{Kind: types.Min, DType: types.F64},
		},
	}
	for i := range specs {
		p, err := encodeSpec(&specs[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeSpec(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&specs[i], got) && !(len(specs[i].Children) == 0 && len(got.Children) == 0) {
			t.Fatalf("spec %d mismatch:\nsent %+v\ngot  %+v", i, specs[i], got)
		}
	}
}

func TestReduceSpecDecodeRejectsCorrupt(t *testing.T) {
	good, err := encodeSpec(&reduceSpec{Children: []childRef{{Host: "h:1"}, {Host: "h:2"}}})
	if err != nil {
		t.Fatal(err)
	}
	// The last child's host length, claiming more bytes than follow.
	longHost := append([]byte{}, good...)
	longHost[len(longHost)-5] = 0xFF
	for _, p := range [][]byte{nil, good[:10], good[:len(good)-1], good[:len(good)-3], append(append([]byte{}, good...), 1), longHost} {
		if _, err := decodeSpec(p); err == nil {
			t.Fatalf("corrupt spec of %d bytes accepted", len(p))
		}
	}
	if _, err := encodeSpec(&reduceSpec{Children: []childRef{{Host: types.NodeID(make([]byte, 1<<16))}}}); err == nil {
		t.Fatal("a child host longer than its u16 length field was encoded")
	}
}

// FuzzReduceSpec round-trips specs built from arbitrary field values,
// every child's host included, and feeds the fuzz bytes to the decoder
// directly: decoding never panics, and whatever it accepts re-encodes to
// the same bytes.
func FuzzReduceSpec(f *testing.F) {
	f.Add([]byte("reduce"), uint32(3), int64(7), int64(1<<20), true, uint8(types.Sum), uint8(types.F32), "10.0.0.1:7077", "")
	f.Add([]byte{}, uint32(0), int64(-1), int64(0), false, uint8(0), uint8(0), "", "h")
	f.Fuzz(func(t *testing.T, raw []byte, slot uint32, epoch, size int64, root bool, kind, dtype uint8, h1, h2 string) {
		if got, err := decodeSpec(raw); err == nil {
			again, err := encodeSpec(got)
			if err != nil || string(again) != string(raw) {
				t.Fatalf("decoded spec re-encodes to %x, %v; want %x", again, err, raw)
			}
		}
		s := reduceSpec{
			ReduceID:  types.ObjectIDFromString(string(raw)),
			Slot:      int(slot),
			Epoch:     epoch,
			OwnOID:    types.ObjectIDFromString(h1),
			OutputOID: types.ObjectIDFromString(h2),
			Children: []childRef{
				{OID: types.ObjectIDFromString(h2), Host: types.NodeID(h1)},
				{OID: types.ObjectIDFromString(h1), Host: types.NodeID(h2)},
			},
			IsRoot: root,
			Size:   size,
			Op:     types.ReduceOp{Kind: types.OpKind(kind), DType: types.DType(dtype)},
		}
		p, err := encodeSpec(&s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeSpec(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&s, got) {
			t.Fatalf("spec mismatch:\nsent %+v\ngot  %+v", s, got)
		}
	})
}
