package main

import (
	"math/rand"
	"time"
)

// The generated inputs. Everything pbld sees is derived here from the
// workload seed, so one seed always yields the same keys, schedule and
// request bodies, and two seeds yield disjoint study seeds.

const (
	// hitKeys is the hit-zipf working set: 4x the memory tier, so the
	// disk tier serves the tail.
	hitKeys = 512
	// memEntries is pbld's -cache bound for every workload.
	memEntries = 128
	// zipfS is the hit-zipf key-popularity exponent.
	zipfS = 1.1
	// hitRate is the hit-zipf open-loop offered rate (requests/s).
	hitRate = 2000
	// sweepSeeds is the /v1/sweep width of the sweep workload.
	sweepSeeds = 200
	// cohortStudents is the /v1/cohort size of the cohort workload.
	cohortStudents = 2_000_000
	// checkSweepSeeds and checkCohortStudents size the worker-invariance
	// probes sent to the set-up daemons.
	checkSweepSeeds     = 40
	checkCohortStudents = 200_000
)

// runReq is one /v1/run body.
type runReq struct {
	Seed     int64 `json:"seed"`
	Students int   `json:"students"`
}

// newRand returns the generator for one named input stream of a seed,
// so adding a stream never shifts the draws of another.
func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)))))
}

// Input streams.
const (
	streamKeys = iota + 1
	streamWarmOrder
	streamSchedule
	streamOpenKeys
	streamClosedKeys
	streamBase
	streamSizes
)

// splitmix is the SplitMix64 finalizer.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// seedBase is the first study seed of a run: nonzero (0 selects the
// paper's seed) and far from the paper's 2018xxxx seeds.
func seedBase(seed int64) int64 {
	return 1_000_000_000 + newRand(seed, streamBase).Int63n(1_000_000_000)
}

// cohortSize draws a /v1/run cohort size: 70% 124 students, 20% 248
// and 10% 496.
func cohortSize(r *rand.Rand) int {
	switch u := r.Intn(10); {
	case u < 7:
		return 124
	case u < 9:
		return 248
	default:
		return 496
	}
}

// hitKeySet is the hit-zipf working set, in Zipf rank order: rank 0 is
// the hottest key.
func hitKeySet(seed int64) []runReq {
	r := newRand(seed, streamKeys)
	base := seedBase(seed)
	keys := make([]runReq, hitKeys)
	for i, j := range r.Perm(hitKeys) {
		keys[i] = runReq{Seed: base + int64(j), Students: cohortSize(r)}
	}
	return keys
}

// warmOrder is the order set-up warms the working set in. The last
// memEntries keys warmed are the ones left in the memory tier.
func warmOrder(seed int64) []int {
	return newRand(seed, streamWarmOrder).Perm(hitKeys)
}

// zipfRanks draws n key ranks from Zipf(s=zipfS) over the working set.
func zipfRanks(seed, stream int64, n int) []int {
	z := rand.NewZipf(newRand(seed, stream), zipfS, 1, hitKeys-1)
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = int(z.Uint64())
	}
	return ranks
}

// poissonSchedule returns the due offsets of an open loop offering rate
// requests/s for d: exponential inter-arrival gaps.
func poissonSchedule(seed int64, rate float64, d time.Duration) []time.Duration {
	r := newRand(seed, streamSchedule)
	var due []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// missStream yields never-seen /v1/run requests: consecutive study
// seeds from the run's base (offset so they cannot meet the hit-zipf
// working set or another stream) with the seeded cohort-size mix.
// Every stream of a seed draws the same size sequence, so two streams
// pair request by request.
type missStream struct {
	next  int64
	sizes *rand.Rand
}

func newMissStream(seed, offset int64) *missStream {
	return &missStream{next: seedBase(seed) + offset, sizes: newRand(seed, streamSizes)}
}

func (m *missStream) take() runReq {
	q := runReq{Seed: m.next, Students: cohortSize(m.sizes)}
	m.next++
	return q
}
