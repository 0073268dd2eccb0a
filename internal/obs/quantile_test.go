package obs

import (
	"math"
	"testing"
)

// newLatencyHist builds a standalone histogram on the engine's bounds
// (100µs to 10s), observing each value in seconds.
func newLatencyHist(vs ...float64) *Hist {
	h := newHist("", LatencyBuckets)
	for _, v := range vs {
		h.Observe(v)
	}
	return h
}

// TestQuantileSingleObservation: with one sample, every quantile must
// return exactly that sample — the min/max narrowing makes the bucket
// interpolation degenerate to the observed value.
func TestQuantileSingleObservation(t *testing.T) {
	s := newLatencyHist(0.003).Snapshot()
	for _, q := range []float64{0, 0.01, 0.5, 0.95, 0.99, 1} {
		if got := s.Quantile(q); got != 0.003 {
			t.Errorf("Quantile(%v) = %v, want 0.003", q, got)
		}
	}
}

// TestQuantileOverflowBucket: samples past the last finite bound land in
// the overflow bucket, which has no upper edge to interpolate toward —
// the estimate must report the exact observed max, not +Inf or a bound.
func TestQuantileOverflowBucket(t *testing.T) {
	s := newLatencyHist(15, 20).Snapshot() // beyond the 10s top bound
	// Overflow interpolates over [min=15s, max=20s]:
	// p25 has rank 0.5 of 2 → fraction 0.25 → 16.25s;
	// p99 has rank 1.98 → fraction 0.99 → 19.95s.
	if got, want := s.Quantile(0.25), 16.25; math.Abs(got-want) > 1e-9 {
		t.Errorf("p25 in overflow = %v, want %v", got, want)
	}
	if got, want := s.Quantile(0.99), 19.95; math.Abs(got-want) > 1e-9 {
		t.Errorf("p99 in overflow = %v, want %v", got, want)
	}
	if got := s.Quantile(1); got != 20 {
		t.Errorf("p100 = %v, want exact max 20", got)
	}

	solo := newLatencyHist(60).Snapshot()
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := solo.Quantile(q); got != 60 {
			t.Errorf("single overflow observation Quantile(%v) = %v, want 60", q, got)
		}
	}
}

// TestQuantileInterpolatesWithinBucket: many samples spread over buckets
// give monotone estimates bounded by the observed range.
func TestQuantileInterpolatesWithinBucket(t *testing.T) {
	h := newLatencyHist()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 1000)
	}
	s := h.Snapshot()
	prev := 0.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		got := s.Quantile(q)
		if got < s.Min || got > s.Max {
			t.Errorf("Quantile(%v) = %v outside [%v,%v]", q, got, s.Min, s.Max)
		}
		if got < prev {
			t.Errorf("Quantile(%v) = %v < previous %v (not monotone)", q, got, prev)
		}
		prev = got
	}
	// p50 of 1..100ms should land in the (25ms,50ms] bucket.
	if p50 := s.Quantile(0.5); p50 <= 0.025 || p50 > 0.05 {
		t.Errorf("p50 = %v, want within (0.025,0.05]", p50)
	}
}

// TestQuantileEmptyHistogram: no observations → zero, not a panic.
func TestQuantileEmptyHistogram(t *testing.T) {
	if got := newLatencyHist().Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	if got := BucketQuantile(0.5, []float64{1}, []float64{0, 0}, math.NaN(), math.NaN()); got != 0 {
		t.Errorf("empty BucketQuantile = %v, want 0", got)
	}
}

// TestQuantileClampsQ: q outside [0, 1], NaN and ±Inf read as the
// nearest end of the range, never as NaN or ±Inf.
func TestQuantileClampsQ(t *testing.T) {
	s := newLatencyHist(0.002, 0.003, 0.04).Snapshot()
	for _, c := range []struct{ q, want float64 }{
		{-1, s.Min}, {math.Inf(-1), s.Min}, {math.NaN(), s.Min},
		{2, s.Max}, {math.Inf(1), s.Max},
	} {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
