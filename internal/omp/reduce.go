package omp

import (
	"fmt"
	"sort"
	"sync"
)

// ForReduce is the reduction-clause loop ("when loops have
// dependencies"): iterations are distributed per the schedule, each
// claimed chunk is folded into a private accumulator seeded with
// identity, and the chunk partials are combined in iteration order.
// Every schedule's chunk boundaries are a function of the range, the
// team size and the chunk size alone — never of which thread claims a
// chunk or when — so the combine sequence, and a float result, is
// deterministic for a fixed team size even under dynamic, guided and
// steal schedules. Under Static each thread's block is one chunk, so
// the result is the classic per-thread reduction. A thread that claims
// no chunk contributes its untouched private accumulator (identity)
// after the chunk partials, in thread order; with a true identity that
// is a no-op.
//
// combine must be associative with identity as its neutral element;
// body(i, acc) returns the new private accumulator after iteration i.
func ForReduce[T any](lo, hi int, sched Schedule, identity T,
	combine func(a, b T) T, body func(i int, acc T) T, opts ...Option) (T, error) {
	var zero T
	if combine == nil || body == nil {
		return zero, fmt.Errorf("omp: ForReduce requires combine and body")
	}
	type partial struct {
		start int
		acc   T
	}
	var (
		mu       sync.Mutex
		partials []partial
	)
	err := Parallel(func(tc *ThreadContext) {
		var mine []partial
		ferr := tc.forChunks(lo, hi, sched, func(start, end int) {
			acc := identity
			for i := start; i < end; i++ {
				acc = body(i, acc)
			}
			mine = append(mine, partial{start, acc})
		})
		if ferr != nil {
			panic(ferr)
		}
		if len(mine) == 0 {
			mine = append(mine, partial{hi + tc.ThreadNum(), identity})
		}
		mu.Lock()
		partials = append(partials, mine...)
		mu.Unlock()
	}, opts...)
	if err != nil {
		return zero, err
	}
	sort.Slice(partials, func(a, b int) bool { return partials[a].start < partials[b].start })
	result := identity
	for _, p := range partials {
		result = combine(result, p.acc)
	}
	return result, nil
}

// ForReduceTree combines per-thread partials pairwise in a balanced tree
// instead of serially. Exposed for the ablation comparing combine
// strategies; for float64 sums the two orders differ only by rounding.
func ForReduceTree[T any](lo, hi int, sched Schedule, identity T,
	combine func(a, b T) T, body func(i int, acc T) T, opts ...Option) (T, error) {
	var zero T
	if combine == nil || body == nil {
		return zero, fmt.Errorf("omp: ForReduceTree requires combine and body")
	}
	var (
		mu       sync.Mutex
		partials map[int]T
	)
	err := Parallel(func(tc *ThreadContext) {
		acc := identity
		ferr := tc.For(lo, hi, sched, func(i int) {
			acc = body(i, acc)
		})
		if ferr != nil {
			panic(ferr)
		}
		mu.Lock()
		if partials == nil {
			partials = make(map[int]T)
		}
		partials[tc.ThreadNum()] = acc
		mu.Unlock()
	}, opts...)
	if err != nil {
		return zero, err
	}
	level := make([]T, len(partials))
	for tid := 0; tid < len(partials); tid++ {
		level[tid] = partials[tid]
	}
	for len(level) > 1 {
		next := make([]T, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, combine(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		level = next
	}
	if len(level) == 0 {
		return identity, nil
	}
	return combine(identity, level[0]), nil
}

// ForReduceCritical folds every iteration straight into one shared
// accumulator under a critical section — the naive strategy the course
// contrasts with the reduction clause. Exposed for the ablation bench;
// its combine order is nondeterministic and its lock traffic is O(hi-lo).
func ForReduceCritical[T any](lo, hi int, sched Schedule, identity T,
	combine func(a, b T) T, value func(i int) T, opts ...Option) (T, error) {
	var zero T
	if combine == nil || value == nil {
		return zero, fmt.Errorf("omp: ForReduceCritical requires combine and value")
	}
	shared := identity
	err := Parallel(func(tc *ThreadContext) {
		ferr := tc.For(lo, hi, sched, func(i int) {
			v := value(i)
			tc.Critical("reduce", func() {
				shared = combine(shared, v)
			})
		})
		if ferr != nil {
			panic(ferr)
		}
	}, opts...)
	if err != nil {
		return zero, err
	}
	return shared, nil
}

// For runs a standalone parallel-for over its own team: the "running
// loops in parallel" patternlet without writing the region explicitly.
func For(lo, hi int, sched Schedule, body func(tid, i int), opts ...Option) error {
	if body == nil {
		return fmt.Errorf("omp: For requires a body")
	}
	return Parallel(func(tc *ThreadContext) {
		err := tc.For(lo, hi, sched, func(i int) { body(tc.ThreadNum(), i) })
		if err != nil {
			panic(err)
		}
	}, opts...)
}
