package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// DType is the element type of a reducible object. Objects are byte buffers
// interpreted as dense arrays of DType elements (the paper evaluates arrays
// of 32-bit floats, §5.1.2).
type DType uint8

// Supported element types.
const (
	F32 DType = iota
	F64
	I32
	I64
)

// Size returns the element width in bytes.
func (d DType) Size() int {
	switch d {
	case F32, I32:
		return 4
	case F64, I64:
		return 8
	default:
		return 0
	}
}

// String implements fmt.Stringer.
func (d DType) String() string {
	switch d {
	case F32:
		return "f32"
	case F64:
		return "f64"
	case I32:
		return "i32"
	case I64:
		return "i64"
	default:
		return fmt.Sprintf("dtype(%d)", uint8(d))
	}
}

// OpKind is a commutative, associative element-wise operation.
type OpKind uint8

// Supported operation kinds.
const (
	Sum OpKind = iota
	Min
	Max
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// ReduceOp combines an operation kind with the element type it operates on.
// The zero value is Sum over F32.
type ReduceOp struct {
	Kind  OpKind
	DType DType
}

// String implements fmt.Stringer.
func (op ReduceOp) String() string { return op.Kind.String() + "/" + op.DType.String() }

// Validate reports whether the op names a supported kernel.
func (op ReduceOp) Validate() error {
	if op.DType.Size() == 0 {
		return fmt.Errorf("types: unsupported dtype %v", op.DType)
	}
	switch op.Kind {
	case Sum, Min, Max:
		return nil
	default:
		return fmt.Errorf("types: unsupported op kind %v", op.Kind)
	}
}

// Accumulate folds src into dst element-wise in place: dst = op(dst, src).
// Both slices must have equal length, a multiple of the element size.
// Little-endian layout is assumed, matching the wire format used by the
// data plane.
func (op ReduceOp) Accumulate(dst, src []byte) error {
	if len(dst) != len(src) {
		return fmt.Errorf("types: accumulate length mismatch %d != %d", len(dst), len(src))
	}
	es := op.DType.Size()
	if es == 0 {
		return fmt.Errorf("types: unsupported dtype %v", op.DType)
	}
	if len(dst)%es != 0 {
		return fmt.Errorf("types: buffer length %d not a multiple of element size %d", len(dst), es)
	}
	// Whole groups of four elements fold in place; a shorter tail folds
	// through one zero-padded group whose padding is dropped.
	full := len(dst) - len(dst)%(4*es)
	op.fold4(dst[:full], src[:full])
	if full < len(dst) {
		var x, y [32]byte
		n := copy(x[:], dst[full:])
		copy(y[:], src[full:])
		op.fold4(x[:4*es], y[:4*es])
		copy(dst[full:], x[:n])
	}
	return nil
}

func ldF32(b []byte) float32    { return math.Float32frombits(binary.LittleEndian.Uint32(b)) }
func stF32(b []byte, v float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(v)) }
func ldF64(b []byte) float64    { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
func stF64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }
func ldI32(b []byte) int32      { return int32(binary.LittleEndian.Uint32(b)) }
func stI32(b []byte, v int32)   { binary.LittleEndian.PutUint32(b, uint32(v)) }
func ldI64(b []byte) int64      { return int64(binary.LittleEndian.Uint64(b)) }
func stI64(b []byte, v int64)   { binary.LittleEndian.PutUint64(b, uint64(v)) }

// fold4 is the kernel behind Accumulate; len(d) is a multiple of four
// elements. The op is dispatched once per call, and each loop folds four
// elements per iteration over fixed-size sub-slices, so bounds are
// checked once per group rather than once per element.
func (op ReduceOp) fold4(d, s []byte) {
	s = s[:len(d)]
	switch op {
	case ReduceOp{Sum, F32}:
		for i := 0; i+16 <= len(d); i += 16 {
			x, y := d[i:i+16:i+16], s[i:i+16:i+16]
			stF32(x[0:], ldF32(x[0:])+ldF32(y[0:]))
			stF32(x[4:], ldF32(x[4:])+ldF32(y[4:]))
			stF32(x[8:], ldF32(x[8:])+ldF32(y[8:]))
			stF32(x[12:], ldF32(x[12:])+ldF32(y[12:]))
		}
	case ReduceOp{Min, F32}:
		for i := 0; i+16 <= len(d); i += 16 {
			x, y := d[i:i+16:i+16], s[i:i+16:i+16]
			stF32(x[0:], min(ldF32(x[0:]), ldF32(y[0:])))
			stF32(x[4:], min(ldF32(x[4:]), ldF32(y[4:])))
			stF32(x[8:], min(ldF32(x[8:]), ldF32(y[8:])))
			stF32(x[12:], min(ldF32(x[12:]), ldF32(y[12:])))
		}
	case ReduceOp{Max, F32}:
		for i := 0; i+16 <= len(d); i += 16 {
			x, y := d[i:i+16:i+16], s[i:i+16:i+16]
			stF32(x[0:], max(ldF32(x[0:]), ldF32(y[0:])))
			stF32(x[4:], max(ldF32(x[4:]), ldF32(y[4:])))
			stF32(x[8:], max(ldF32(x[8:]), ldF32(y[8:])))
			stF32(x[12:], max(ldF32(x[12:]), ldF32(y[12:])))
		}
	case ReduceOp{Sum, F64}:
		for i := 0; i+32 <= len(d); i += 32 {
			x, y := d[i:i+32:i+32], s[i:i+32:i+32]
			stF64(x[0:], ldF64(x[0:])+ldF64(y[0:]))
			stF64(x[8:], ldF64(x[8:])+ldF64(y[8:]))
			stF64(x[16:], ldF64(x[16:])+ldF64(y[16:]))
			stF64(x[24:], ldF64(x[24:])+ldF64(y[24:]))
		}
	case ReduceOp{Min, F64}:
		for i := 0; i+32 <= len(d); i += 32 {
			x, y := d[i:i+32:i+32], s[i:i+32:i+32]
			stF64(x[0:], min(ldF64(x[0:]), ldF64(y[0:])))
			stF64(x[8:], min(ldF64(x[8:]), ldF64(y[8:])))
			stF64(x[16:], min(ldF64(x[16:]), ldF64(y[16:])))
			stF64(x[24:], min(ldF64(x[24:]), ldF64(y[24:])))
		}
	case ReduceOp{Max, F64}:
		for i := 0; i+32 <= len(d); i += 32 {
			x, y := d[i:i+32:i+32], s[i:i+32:i+32]
			stF64(x[0:], max(ldF64(x[0:]), ldF64(y[0:])))
			stF64(x[8:], max(ldF64(x[8:]), ldF64(y[8:])))
			stF64(x[16:], max(ldF64(x[16:]), ldF64(y[16:])))
			stF64(x[24:], max(ldF64(x[24:]), ldF64(y[24:])))
		}
	case ReduceOp{Sum, I32}:
		for i := 0; i+16 <= len(d); i += 16 {
			x, y := d[i:i+16:i+16], s[i:i+16:i+16]
			stI32(x[0:], ldI32(x[0:])+ldI32(y[0:]))
			stI32(x[4:], ldI32(x[4:])+ldI32(y[4:]))
			stI32(x[8:], ldI32(x[8:])+ldI32(y[8:]))
			stI32(x[12:], ldI32(x[12:])+ldI32(y[12:]))
		}
	case ReduceOp{Min, I32}:
		for i := 0; i+16 <= len(d); i += 16 {
			x, y := d[i:i+16:i+16], s[i:i+16:i+16]
			stI32(x[0:], min(ldI32(x[0:]), ldI32(y[0:])))
			stI32(x[4:], min(ldI32(x[4:]), ldI32(y[4:])))
			stI32(x[8:], min(ldI32(x[8:]), ldI32(y[8:])))
			stI32(x[12:], min(ldI32(x[12:]), ldI32(y[12:])))
		}
	case ReduceOp{Max, I32}:
		for i := 0; i+16 <= len(d); i += 16 {
			x, y := d[i:i+16:i+16], s[i:i+16:i+16]
			stI32(x[0:], max(ldI32(x[0:]), ldI32(y[0:])))
			stI32(x[4:], max(ldI32(x[4:]), ldI32(y[4:])))
			stI32(x[8:], max(ldI32(x[8:]), ldI32(y[8:])))
			stI32(x[12:], max(ldI32(x[12:]), ldI32(y[12:])))
		}
	case ReduceOp{Sum, I64}:
		for i := 0; i+32 <= len(d); i += 32 {
			x, y := d[i:i+32:i+32], s[i:i+32:i+32]
			stI64(x[0:], ldI64(x[0:])+ldI64(y[0:]))
			stI64(x[8:], ldI64(x[8:])+ldI64(y[8:]))
			stI64(x[16:], ldI64(x[16:])+ldI64(y[16:]))
			stI64(x[24:], ldI64(x[24:])+ldI64(y[24:]))
		}
	case ReduceOp{Min, I64}:
		for i := 0; i+32 <= len(d); i += 32 {
			x, y := d[i:i+32:i+32], s[i:i+32:i+32]
			stI64(x[0:], min(ldI64(x[0:]), ldI64(y[0:])))
			stI64(x[8:], min(ldI64(x[8:]), ldI64(y[8:])))
			stI64(x[16:], min(ldI64(x[16:]), ldI64(y[16:])))
			stI64(x[24:], min(ldI64(x[24:]), ldI64(y[24:])))
		}
	case ReduceOp{Max, I64}:
		for i := 0; i+32 <= len(d); i += 32 {
			x, y := d[i:i+32:i+32], s[i:i+32:i+32]
			stI64(x[0:], max(ldI64(x[0:]), ldI64(y[0:])))
			stI64(x[8:], max(ldI64(x[8:]), ldI64(y[8:])))
			stI64(x[16:], max(ldI64(x[16:]), ldI64(y[16:])))
			stI64(x[24:], max(ldI64(x[24:]), ldI64(y[24:])))
		}
	}
}

// EncodeF32 encodes a float32 slice into the little-endian wire layout.
func EncodeF32(xs []float32) []byte {
	out := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(x))
	}
	return out
}

// DecodeF32 decodes the little-endian wire layout into float32s.
func DecodeF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// EncodeI64 encodes an int64 slice into the little-endian wire layout.
func EncodeI64(xs []int64) []byte {
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// DecodeI64 decodes the little-endian wire layout into int64s.
func DecodeI64(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
