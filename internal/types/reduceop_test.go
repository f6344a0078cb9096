package types

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refAccumulate folds element by element, with one kind switch and one
// re-slice per element: the plainest form of the fold, and the oracle the
// differential test compares Accumulate's unrolled kernels against.
func refAccumulate(op ReduceOp, dst, src []byte) {
	switch op.DType {
	case F32:
		refF32(op.Kind, dst, src)
	case F64:
		refF64(op.Kind, dst, src)
	case I32:
		refI32(op.Kind, dst, src)
	case I64:
		refI64(op.Kind, dst, src)
	}
}

func refF32(kind OpKind, dst, src []byte) {
	for i := 0; i+4 <= len(dst); i += 4 {
		a := math.Float32frombits(binary.LittleEndian.Uint32(dst[i:]))
		b := math.Float32frombits(binary.LittleEndian.Uint32(src[i:]))
		var r float32
		switch kind {
		case Sum:
			r = a + b
		case Min:
			r = min(a, b)
		case Max:
			r = max(a, b)
		}
		binary.LittleEndian.PutUint32(dst[i:], math.Float32bits(r))
	}
}

func refF64(kind OpKind, dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
		var r float64
		switch kind {
		case Sum:
			r = a + b
		case Min:
			r = min(a, b)
		case Max:
			r = max(a, b)
		}
		binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(r))
	}
}

func refI32(kind OpKind, dst, src []byte) {
	for i := 0; i+4 <= len(dst); i += 4 {
		a := int32(binary.LittleEndian.Uint32(dst[i:]))
		b := int32(binary.LittleEndian.Uint32(src[i:]))
		var r int32
		switch kind {
		case Sum:
			r = a + b
		case Min:
			r = min(a, b)
		case Max:
			r = max(a, b)
		}
		binary.LittleEndian.PutUint32(dst[i:], uint32(r))
	}
}

func refI64(kind OpKind, dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		a := int64(binary.LittleEndian.Uint64(dst[i:]))
		b := int64(binary.LittleEndian.Uint64(src[i:]))
		var r int64
		switch kind {
		case Sum:
			r = a + b
		case Min:
			r = min(a, b)
		case Max:
			r = max(a, b)
		}
		binary.LittleEndian.PutUint64(dst[i:], uint64(r))
	}
}

// specials returns the edge values of dt's little-endian encoding: NaN,
// ±0 and ±Inf for floats, the extremes and their neighbours for ints.
func specials(dt DType) [][]byte {
	var out [][]byte
	switch dt {
	case F32:
		for _, v := range []float32{float32(math.NaN()), float32(math.Copysign(0, -1)), 0, float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32} {
			out = append(out, binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)))
		}
	case F64:
		for _, v := range []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64} {
			out = append(out, binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	case I32:
		for _, v := range []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32} {
			out = append(out, binary.LittleEndian.AppendUint32(nil, uint32(v)))
		}
	case I64:
		for _, v := range []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64} {
			out = append(out, binary.LittleEndian.AppendUint64(nil, uint64(v)))
		}
	}
	return out
}

// fillElems fills b with random elements of dt, a third of them edge
// values. Every NaN carries the one pattern specials uses: which of two
// different NaN payloads a float sum returns depends on the operand order
// the compiler picks, which the Go spec leaves open.
func fillElems(rng *rand.Rand, dt DType, b []byte) {
	es := dt.Size()
	sp := specials(dt)
	rng.Read(b)
	for i := 0; i+es <= len(b); i += es {
		e := b[i : i+es]
		nan := (dt == F32 && math.IsNaN(float64(ldF32(e)))) || (dt == F64 && math.IsNaN(ldF64(e)))
		switch {
		case nan:
			copy(e, sp[0])
		case rng.Intn(3) == 0:
			copy(e, sp[rng.Intn(len(sp))])
		}
	}
}

// TestAccumulateMatchesReference compares every (kind, dtype) kernel bit
// for bit against the per-element oracle, over lengths that exercise the
// unrolled loop's tails and sub-slices that start off element alignment.
func TestAccumulateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dt := range []DType{F32, F64, I32, I64} {
		for _, kind := range []OpKind{Sum, Min, Max} {
			op := ReduceOp{Kind: kind, DType: dt}
			t.Run(op.String(), func(t *testing.T) {
				es := dt.Size()
				for elems := 0; elems <= 67; elems++ {
					for shift := 0; shift <= 3; shift++ {
						n := elems * es
						dbuf := make([]byte, n+shift)
						sbuf := make([]byte, n+3-shift)
						dst, src := dbuf[shift:], sbuf[3-shift:]
						fillElems(rng, dt, dst)
						fillElems(rng, dt, src)
						want := bytes.Clone(dst)
						refAccumulate(op, want, src)
						if err := op.Accumulate(dst, src); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(dst, want) {
							t.Fatalf("%d elements at byte offset %d: kernel differs from reference", elems, shift)
						}
					}
				}
			})
		}
	}
}

func BenchmarkAccumulate(b *testing.B) {
	for _, dt := range []DType{F32, F64, I32, I64} {
		b.Run(dt.String(), func(b *testing.B) {
			const size = 256 << 10
			// Zeroed operands: a float sum that stays normal.
			dst, src := make([]byte, size), make([]byte, size)
			op := ReduceOp{Kind: Sum, DType: dt}
			b.SetBytes(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op.Accumulate(dst, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
