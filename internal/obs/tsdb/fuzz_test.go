package tsdb

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzPairs renders samples as the fuzz target's input: one 16-byte
// record per sample, the timestamp then the value's IEEE bits, both
// little-endian.
func fuzzPairs(samples ...Sample) []byte {
	b := make([]byte, 0, 16*len(samples))
	for _, s := range samples {
		b = binary.LittleEndian.AppendUint64(b, uint64(s.T))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.V))
	}
	return b
}

// FuzzTSDBChunkDecode round-trips arbitrary (t, v) pairs through the
// chunk codec: every pair whose timestamp exceeds the last accepted
// one is appended, and Samples must decode exactly the accepted run,
// bit for bit — NaN payloads, signed zeros, infinities and timestamps
// at both ends of int64 included. A trailing partial record is
// ignored.
func FuzzTSDBChunkDecode(f *testing.F) {
	regular := make([]Sample, 64)
	for i := range regular {
		regular[i] = Sample{T: int64(i) * 5000, V: float64(i * 7)}
	}
	for _, seed := range [][]byte{
		nil,
		fuzzPairs(Sample{T: 1_700_000_000_000, V: 1}),
		fuzzPairs(Sample{T: 1000, V: 0}, Sample{T: 6000, V: 3}, Sample{T: 11000, V: 9}, Sample{T: 16000, V: 9.5}),
		fuzzPairs(Sample{T: math.MinInt64, V: math.NaN()}, Sample{T: math.MaxInt64, V: math.Inf(1)}),
		fuzzPairs(Sample{T: -1 << 40, V: math.Inf(1)}, Sample{T: 0, V: math.Inf(-1)}, Sample{T: 1 << 40, V: math.MaxFloat64}),
		fuzzPairs(Sample{T: 1, V: 0.1}, Sample{T: 2, V: 0.1}, Sample{T: 3, V: 0.1}, Sample{T: 4, V: 0.2}, Sample{T: 5, V: 0.1}),
		fuzzPairs(Sample{T: 5000, V: 1}, Sample{T: 5000, V: 2}, Sample{T: 6000, V: 3}), // duplicate instant skipped
		fuzzPairs(Sample{T: 5000, V: 1}, Sample{T: 4000, V: 2}, Sample{T: 6000, V: 3}), // backwards instant skipped
		fuzzPairs(Sample{T: 1, V: math.Float64frombits(0x7ff8000000000001)}, Sample{T: 2, V: math.NaN()}),
		fuzzPairs(Sample{T: 1, V: 0}, Sample{T: 2, V: math.Copysign(0, -1)}, Sample{T: 3, V: 0}),
		fuzzPairs(Sample{T: 1000, V: 1.5}, Sample{T: 6003, V: 1.5}, Sample{T: 10998, V: -7.25}, Sample{T: 16010, V: 0}),
		fuzzPairs(Sample{T: 0, V: 1}, Sample{T: 1 << 13, V: 2}, Sample{T: 1<<13 + 1<<16, V: 3}, Sample{T: 1<<20 + 1<<16, V: 4}, Sample{T: 1 << 40, V: 5}),
		fuzzPairs(Sample{T: math.MinInt64, V: 1}, Sample{T: math.MinInt64 + 1, V: 1}, Sample{T: math.MaxInt64, V: 1}),
		fuzzPairs(Sample{T: 10, V: math.SmallestNonzeroFloat64}, Sample{T: 20, V: -math.SmallestNonzeroFloat64}),
		append(fuzzPairs(Sample{T: 7, V: 7}), 1, 2, 3), // trailing partial record
		fuzzPairs(regular...),
		fuzzPairs(Sample{T: 1, V: 1e300}, Sample{T: 2, V: 1e-300}, Sample{T: 3, V: 1e300}, Sample{T: 4, V: 1e-300}),
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewChunk(0)
		var want []Sample
		for ; len(data) >= 16; data = data[16:] {
			s := Sample{
				T: int64(binary.LittleEndian.Uint64(data)),
				V: math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
			}
			if len(want) > 0 && s.T <= want[len(want)-1].T {
				continue
			}
			c.Append(s.T, s.V)
			want = append(want, s)
		}
		got, err := c.Samples()
		if err != nil {
			t.Fatalf("decode of %d appended samples: %v", len(want), err)
		}
		if !sampleEq(got, want) {
			t.Fatalf("round trip drifted:\n got %v\nwant %v", got, want)
		}
		if c.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", c.Len(), len(want))
		}
	})
}
