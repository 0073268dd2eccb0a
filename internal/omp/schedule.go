package omp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
	"pblparallel/internal/sched"
)

// loopShared is one parallel-for's shared scheduling state, keyed by
// loop epoch in the team: dynamic and guided runners share the ticket
// counter, the steal schedule shares a range-stealing index pool
// built by whichever thread reaches the loop first.
type loopShared struct {
	ticket int64
	once   sync.Once
	pool   *sched.IndexPool
}

// Schedule chooses how a parallel-for's iteration range is mapped onto
// the team — the subject of the course's Assignment 3 ("Scheduling of
// Parallel Loops").
type Schedule interface {
	// name identifies the schedule in errors and bench labels.
	name() string
	// newRunner returns the iteration chunks for thread tid of n over
	// [0, count) as (start, length) pairs via the next function: each
	// call returns the thread's next chunk, with length 0 meaning done.
	// Schedules that coordinate across threads do so through the
	// loop's shared state.
	newRunner(count, tid, n int, sh *loopShared) func() (start, length int)
}

// Static is OpenMP's default schedule: the range is split into one
// near-equal contiguous block per thread ("threads iterate through equal
// sized chunks of the index range").
type Static struct{}

func (Static) name() string { return "static" }

func (Static) newRunner(count, tid, n int, _ *loopShared) func() (int, int) {
	// Equal-block split: the first (count % n) threads get one extra.
	base := count / n
	extra := count % n
	start := tid*base + minInt(tid, extra)
	length := base
	if tid < extra {
		length++
	}
	done := false
	return func() (int, int) {
		if done || length == 0 {
			return 0, 0
		}
		done = true
		return start, length
	}
}

// StaticChunk deals fixed-size chunks round-robin: chunk 0 to thread 0,
// chunk 1 to thread 1, … — schedule(static, chunkSize).
type StaticChunk struct{ Chunk int }

func (s StaticChunk) name() string { return fmt.Sprintf("static,%d", s.Chunk) }

func (s StaticChunk) newRunner(count, tid, n int, _ *loopShared) func() (int, int) {
	next := tid * s.Chunk
	return func() (int, int) {
		if next >= count {
			return 0, 0
		}
		start := next
		length := s.Chunk
		if start+length > count {
			length = count - start
		}
		next += n * s.Chunk
		return start, length
	}
}

// Dynamic hands out chunks first-come-first-served from a shared
// counter — schedule(dynamic, chunkSize).
type Dynamic struct{ Chunk int }

func (s Dynamic) name() string { return fmt.Sprintf("dynamic,%d", s.Chunk) }

func (s Dynamic) newRunner(count, _, _ int, sh *loopShared) func() (int, int) {
	ticket := &sh.ticket
	chunk := int64(s.Chunk)
	return func() (int, int) {
		start := atomic.AddInt64(ticket, chunk) - chunk
		if start >= int64(count) {
			return 0, 0
		}
		length := int(chunk)
		if int(start)+length > count {
			length = count - int(start)
		}
		return int(start), length
	}
}

// Guided hands out chunks proportional to the remaining work divided by
// the team size, shrinking toward MinChunk — schedule(guided, minChunk).
type Guided struct{ MinChunk int }

func (s Guided) name() string { return fmt.Sprintf("guided,%d", s.MinChunk) }

func (s Guided) newRunner(count, _, n int, sh *loopShared) func() (int, int) {
	ticket := &sh.ticket
	return func() (int, int) {
		for {
			start := atomic.LoadInt64(ticket)
			if start >= int64(count) {
				return 0, 0
			}
			remaining := int64(count) - start
			length := remaining / int64(2*n)
			if length < int64(s.MinChunk) {
				length = int64(s.MinChunk)
			}
			if length > remaining {
				length = remaining
			}
			if atomic.CompareAndSwapInt64(ticket, start, start+length) {
				return int(start), int(length)
			}
		}
	}
}

// Steal distributes the range as one contiguous share per thread and
// lets threads that finish early steal the upper half of the largest
// remaining share — the work-stealing counterpart to Dynamic, with
// contiguous locality like Static. Chunk is the claim granularity;
// shares always split on absolute Chunk boundaries, so the set of
// chunk starts (the fault-injection keys) is identical at every team
// size and under every steal interleaving.
type Steal struct{ Chunk int }

func (s Steal) name() string { return fmt.Sprintf("steal,%d", s.Chunk) }

func (s Steal) newRunner(count, tid, n int, sh *loopShared) func() (int, int) {
	sh.once.Do(func() {
		sh.pool = sched.NewIndexPool(count, n, s.Chunk)
	})
	pool := sh.pool
	return func() (int, int) {
		return pool.Next(tid)
	}
}

// validateSchedule rejects non-positive chunk sizes.
func validateSchedule(s Schedule) error {
	switch v := s.(type) {
	case Static:
		return nil
	case StaticChunk:
		if v.Chunk < 1 {
			return fmt.Errorf("omp: static chunk %d < 1", v.Chunk)
		}
	case Dynamic:
		if v.Chunk < 1 {
			return fmt.Errorf("omp: dynamic chunk %d < 1", v.Chunk)
		}
	case Guided:
		if v.MinChunk < 1 {
			return fmt.Errorf("omp: guided min chunk %d < 1", v.MinChunk)
		}
	case Steal:
		if v.Chunk < 1 {
			return fmt.Errorf("omp: steal chunk %d < 1", v.Chunk)
		}
	case nil:
		return fmt.Errorf("omp: nil schedule")
	}
	return nil
}

// For is the work-sharing loop: iterations lo..hi-1 are distributed over
// the team per the schedule, body is invoked once per iteration with the
// global index, and the team joins at an implicit end-of-loop barrier
// (OpenMP's default; there is no nowait clause here). Every team member
// must call For with identical arguments.
func (tc *ThreadContext) For(lo, hi int, sched Schedule, body func(i int)) error {
	return tc.forChunks(lo, hi, sched, func(start, end int) {
		for i := start; i < end; i++ {
			body(i)
		}
	})
}

// forChunks is For at chunk granularity: chunk runs once per claimed
// chunk with its global index range [start, end).
func (tc *ThreadContext) forChunks(lo, hi int, sched Schedule, chunk func(start, end int)) error {
	if err := validateSchedule(sched); err != nil {
		return err
	}
	if hi < lo {
		return fmt.Errorf("omp: for range [%d,%d) is inverted", lo, hi)
	}
	count := hi - lo
	// Shared loop state (the dynamic/guided ticket, the steal pool)
	// lives in team state keyed by a per-thread epoch, so that
	// consecutive loops don't mix.
	epoch := tc.loopCount
	sh := tc.team.loopShared(epoch)
	tc.loopCount++
	next := sched.newRunner(count, tc.tid, tc.team.n, sh)
	// When tracing, the thread's share of the loop is one span and each
	// claimed chunk a child span — the scheduling patternlet's chunk
	// assignment, readable straight off the timeline.
	tr := obs.Default()
	var lsp obs.Span
	if tr != nil {
		lsp = tr.Span(obs.PIDOMP, tc.lane, "omp", "for."+sched.name()).
			Trace(tc.trace).Int("count", int64(count))
	}
	for {
		start, length := next()
		if length == 0 {
			break
		}
		// Chunk-claim fault site, keyed by (loop epoch, chunk start):
		// whichever thread claims the chunk draws the same decision, so
		// injections are scheduling-independent even under dynamic,
		// guided, and steal schedules (steal claims always start on
		// absolute chunk boundaries, so the key set is stable).
		tc.maybeFault(fault.SiteOMPFor, fault.Mix2(uint64(epoch), uint64(lo+start)))
		if tr != nil {
			csp := tr.Span(obs.PIDOMP, tc.lane, "omp", "chunk").
				Trace(tc.trace).Int("start", int64(lo+start)).Int("len", int64(length))
			chunk(lo+start, lo+start+length)
			csp.End()
			continue
		}
		chunk(lo+start, lo+start+length)
	}
	lsp.End()
	return tc.Barrier()
}

// ForSchedule reports which indices each call claims without executing a
// body; exposed for the scheduling patternlet's visualization of chunk
// assignment ("map threads to parallel loop iterations in chunks of size
// one, two, and three").
func (tc *ThreadContext) ForCollect(lo, hi int, sched Schedule) ([]int, error) {
	var mine []int
	err := tc.For(lo, hi, sched, func(i int) { mine = append(mine, i) })
	return mine, err
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
