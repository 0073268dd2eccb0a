package engine

// Pool is the engine's long-lived admission layer: where Sweep and Map
// fan out per call, a daemon needs one persistent worker pool with a
// bounded queue in front of it, so that load beyond capacity is shed
// at admission time (a 429 at the HTTP layer) instead of piling up
// goroutines until the process falls over. The serve package feeds
// every study request through a Pool.
//
// Since the scheduler redesign a Pool is a thin facade over a
// sched.Runtime: Submit is the runtime's bounded admission queue, and
// the same runtime's workers can simultaneously accelerate Sweep/Map
// regions of engines constructed with WithRuntime(pool.Runtime()) —
// one set of workers for the whole daemon instead of per-call
// goroutine fan-out behind a separate job pool.

import (
	"errors"
	"runtime"

	"pblparallel/internal/sched"
)

// ErrQueueFull is returned by Submit when every worker is busy and the
// admission queue is at capacity — the caller should shed the request
// (HTTP 429) and invite a retry. It aliases the scheduler's sentinel,
// so errors.Is matches across both layers.
var ErrQueueFull = sched.ErrQueueFull

// ErrPoolClosed is returned by Submit after Close has begun draining.
var ErrPoolClosed = sched.ErrClosed

// PoolOption configures NewPool.
type PoolOption func(*poolConfig)

type poolConfig struct {
	workers int
	queue   int
	rt      *sched.Runtime
}

// WithPoolWorkers sets the worker count; n <= 0 selects
// runtime.NumCPU(). Ignored when WithScheduler supplies a runtime.
func WithPoolWorkers(n int) PoolOption {
	return func(c *poolConfig) { c.workers = n }
}

// WithQueueDepth bounds the admission queue (negative is clamped to
// zero — every job must find an idle worker immediately or be shed).
// Ignored when WithScheduler supplies a runtime.
func WithQueueDepth(n int) PoolOption {
	return func(c *poolConfig) { c.queue = n }
}

// WithScheduler adopts an existing runtime instead of creating one.
// The pool takes ownership: Close closes the runtime.
func WithScheduler(rt *sched.Runtime) PoolOption {
	return func(c *poolConfig) { c.rt = rt }
}

// Pool executes submitted jobs on a fixed set of workers with a
// bounded wait queue. The zero value is not usable; construct with
// NewPool. All methods are safe for concurrent use.
type Pool struct {
	rt *sched.Runtime
}

// NewPool builds the admission pool: NewPool(WithPoolWorkers(n),
// WithQueueDepth(q)) starts a dedicated scheduler runtime, and
// NewPool(WithScheduler(rt)) wraps one the caller already has. With
// no options it defaults to runtime.NumCPU() workers and a
// zero-length queue.
func NewPool(opts ...PoolOption) *Pool {
	var cfg poolConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.rt == nil {
		if cfg.workers <= 0 {
			cfg.workers = runtime.NumCPU()
		}
		if cfg.queue < 0 {
			cfg.queue = 0
		}
		cfg.rt = sched.New(sched.WithWorkers(cfg.workers), sched.WithQueueDepth(cfg.queue))
	}
	return &Pool{rt: cfg.rt}
}

// Runtime exposes the pool's scheduler so engines can share its
// workers via WithRuntime. The runtime stays owned by the pool; do
// not Close it directly.
func (p *Pool) Runtime() *sched.Runtime { return p.rt }

// Submit enqueues job without blocking. It returns ErrQueueFull when
// the queue is at capacity (admission control: the caller sheds) and
// ErrPoolClosed once draining has begun. A nil job is rejected.
func (p *Pool) Submit(job func()) error {
	if job == nil {
		return errors.New("engine: nil job")
	}
	return p.rt.Submit(job)
}

// Close stops admission, runs every already-queued job to completion,
// and waits for in-flight jobs to finish — the graceful-drain half of
// a SIGTERM shutdown. Idempotent.
func (p *Pool) Close() { p.rt.Close() }

// PoolStats is a point-in-time admission snapshot.
type PoolStats struct {
	// Workers and QueueCap are the pool's fixed bounds.
	Workers  int
	QueueCap int
	// Queued is the number of jobs waiting for a worker right now;
	// InFlight the number currently executing.
	Queued   int
	InFlight int
	// Submitted and Shed count admission outcomes since construction.
	Submitted int64
	Shed      int64
}

// Stats snapshots the pool's admission state. Queued and InFlight
// come from one packed atomic word in the runtime, so the snapshot is
// internally consistent: a job mid-handoff can never be counted in
// both columns, and InFlight never exceeds Workers.
func (p *Pool) Stats() PoolStats {
	s := p.rt.Stats()
	return PoolStats{
		Workers:   s.Workers,
		QueueCap:  s.QueueCap,
		Queued:    s.Queued,
		InFlight:  s.InFlight,
		Submitted: s.Submitted,
		Shed:      s.Shed,
	}
}
