package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"hoplite"
)

// rng is splitmix64: a few instructions per value and no allocation, so
// generating an ObjectID per cycle adds nothing to the per-op counts.
type rng struct{ s uint64 }

// newRNG derives an independent stream from the run seed and a label.
func newRNG(seed int64, label string) *rng {
	h := fnv.New64a()
	h.Write([]byte(label))
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// oid returns the stream's next ObjectID. All 20 bytes are random, so IDs
// spread over the directory shards (the shard is a hash of the first 8).
func (r *rng) oid() hoplite.ObjectID {
	var id hoplite.ObjectID
	binary.BigEndian.PutUint64(id[0:], r.next())
	binary.BigEndian.PutUint64(id[8:], r.next())
	binary.BigEndian.PutUint32(id[16:], uint32(r.next()))
	return id
}

// f32Payload returns size bytes holding little-endian float32 values that
// are whole numbers in [0, 256). Every payload of the benchmark has this
// form: a Get is still checked byte for byte, and a sum of up to eight of
// them is exact in float32 whatever order the reduce tree adds them in.
func (r *rng) f32Payload(size int64) []byte {
	out := make([]byte, size)
	for i := int64(0); i+4 <= size; {
		v := r.next()
		for k := 0; k < 8 && i+4 <= size; k++ {
			binary.LittleEndian.PutUint32(out[i:], math.Float32bits(float32(v&0xFF)))
			v >>= 8
			i += 4
		}
	}
	return out
}

// sumF32 returns the element-wise float32 sum of the payloads. Because the
// values are small whole numbers the sum has one bit pattern, so a reduce
// result is checked element by element with the same bytes.Equal as a Get.
func sumF32(payloads [][]byte) []byte {
	out := make([]byte, len(payloads[0]))
	for i := 0; i+4 <= len(out); i += 4 {
		var s float32
		for _, p := range payloads {
			s += math.Float32frombits(binary.LittleEndian.Uint32(p[i:]))
		}
		binary.LittleEndian.PutUint32(out[i:], math.Float32bits(s))
	}
	return out
}
