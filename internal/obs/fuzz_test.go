package obs

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzHistogramQuantile checks BucketQuantile against its contract for
// arbitrary observation sets and quantile requests, in both modes. With
// the exact min/max (a Hist snapshot) the estimate is clamped to the
// observed [Min, Max] even for hostile q — negative, NaN, >1 — and is
// monotone in q on (0, 1]. Without them (a histogram rebuilt from TSDB
// bucket series) it is finite and inside [0, last finite bound].
func FuzzHistogramQuantile(f *testing.F) {
	f.Add([]byte{100, 0, 0, 0, 200, 0, 0, 0}, 0.5, 0.95)
	f.Add([]byte{1, 0, 0, 0}, 0.01, 0.99)
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0}, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, data []byte, qa, qb float64) {
		h := newLatencyHist()
		for i := 0; i+4 <= len(data); i += 4 {
			h.Observe(float64(binary.LittleEndian.Uint32(data[i:])) / 1e6) // µs → s
		}
		s := h.Snapshot()
		counts := make([]float64, len(s.Counts))
		for i, c := range s.Counts {
			counts[i] = float64(c)
		}
		top := s.Bounds[len(s.Bounds)-1]
		hostile := []float64{qa, qb, -1, 0, 2, math.NaN(), math.Inf(1), math.Inf(-1)}
		for _, q := range hostile {
			got := BucketQuantile(q, s.Bounds, counts, math.NaN(), math.NaN())
			if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 || got > top {
				t.Fatalf("no min/max: BucketQuantile(%v) = %v outside [0, %v]", q, got, top)
			}
		}
		if s.Count == 0 {
			if got := s.Quantile(qa); got != 0 {
				t.Fatalf("empty histogram: Quantile(%v) = %v, want 0", qa, got)
			}
			return
		}
		// Clamping holds for any q, including out-of-domain values.
		for _, q := range hostile {
			got := s.Quantile(q)
			if got < s.Min || got > s.Max {
				t.Fatalf("Quantile(%v) = %v outside observed [%v, %v]", q, got, s.Min, s.Max)
			}
		}
		// Monotonicity on the documented domain: normalize the fuzzed
		// floats into (0, 1] and order them.
		norm := func(q float64) float64 {
			if math.IsNaN(q) || math.IsInf(q, 0) {
				return 0.5
			}
			q = math.Mod(math.Abs(q), 1)
			if q == 0 {
				return 1
			}
			return q
		}
		lo, hi := norm(qa), norm(qb)
		if lo > hi {
			lo, hi = hi, lo
		}
		if qlo, qhi := s.Quantile(lo), s.Quantile(hi); qlo > qhi {
			t.Fatalf("Quantile not monotone: Quantile(%v)=%v > Quantile(%v)=%v", lo, qlo, hi, qhi)
		}
	})
}
