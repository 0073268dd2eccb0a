package rngpool

import (
	"math"
	"math/rand"
	"testing"
)

// TestGetMatchesFreshSource requires a pooled generator that has
// already produced values to restart, once re-seeded, on exactly the
// stream of a fresh rand.NewSource — across negative seeds and seeds
// the source reduces to the same state (multiples of 2^31-1).
func TestGetMatchesFreshSource(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, m, -m, 2 * m, -7 * m, math.MaxInt64, math.MinInt64}
	for i := int64(0); len(seeds) < 1200; i++ {
		seeds = append(seeds, i*7919-4_000_000, i*0x5851f42d4c957f2d)
	}
	same := func(seed int64, r *rand.Rand) {
		t.Helper()
		fresh := rand.New(rand.NewSource(seed))
		for k := 0; k < 20; k++ {
			if a, b := r.Float64(), fresh.Float64(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d draw %d: re-seeded %v, fresh %v", seed, k, a, b)
			}
		}
		var a, b [5]byte
		r.Read(a[:])
		fresh.Read(b[:])
		if a != b {
			t.Fatalf("seed %d: re-seeded Read %x, fresh %x", seed, a, b)
		}
	}
	for i, seed := range seeds {
		// A generator that has drawn from another seed and still holds
		// bytes in its Read buffer, re-seeded as Get does.
		r := Get(seeds[(i+1)%len(seeds)])
		r.Float64()
		r.Read(make([]byte, 3))
		r.Seed(seed)
		same(seed, r)
		Put(r)
		// Whatever generator the pool hands out next.
		r = Get(seed)
		same(seed, r)
		Put(r)
	}
}
