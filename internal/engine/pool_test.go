package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pblparallel/internal/sched"
)

func TestPoolRunsEveryJob(t *testing.T) {
	p := NewPool(WithPoolWorkers(4), WithQueueDepth(16))
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		for {
			err := p.Submit(func() { n.Add(1); wg.Done() })
			if err == nil {
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("Submit: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()
	p.Close()
	if got := n.Load(); got != 32 {
		t.Fatalf("ran %d jobs, want 32", got)
	}
	s := p.Stats()
	if s.Submitted != 32 || s.InFlight != 0 || s.Queued != 0 {
		t.Fatalf("stats after drain: %+v", s)
	}
}

func TestPoolShedsWhenFull(t *testing.T) {
	p := NewPool(WithPoolWorkers(1), WithQueueDepth(0))
	defer p.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	// With queue capacity 0 a submit only lands when the worker is
	// already blocked in receive, so the first job may need a beat.
	for {
		err := p.Submit(func() { close(started); <-release })
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("first Submit: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	<-started // the only worker is now busy; queue capacity is 0
	pre := p.Stats().Shed
	err := p.Submit(func() {})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit with full queue = %v, want ErrQueueFull", err)
	}
	if s := p.Stats(); s.Shed != pre+1 || s.InFlight != 1 {
		t.Fatalf("stats: %+v (shed before: %d)", s, pre)
	}
	close(release)
}

func TestPoolCloseDrainsQueuedJobs(t *testing.T) {
	p := NewPool(WithPoolWorkers(1), WithQueueDepth(8))
	started := make(chan struct{})
	release := make(chan struct{})
	if err := p.Submit(func() { close(started); <-release }); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	var n atomic.Int64
	for i := 0; i < 8; i++ {
		if err := p.Submit(func() { n.Add(1) }); err != nil {
			t.Fatalf("queued Submit %d: %v", i, err)
		}
	}
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	// Close must wait for the in-flight job and then run the queue dry.
	select {
	case <-done:
		t.Fatal("Close returned while a job was still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-done
	if got := n.Load(); got != 8 {
		t.Fatalf("drained %d queued jobs, want 8", got)
	}
	if err := p.Submit(func() {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Submit after Close = %v, want ErrPoolClosed", err)
	}
}

// TestPoolStatsConsistentUnderHammer is the regression test for the
// shed-accounting race: the pre-scheduler Pool read Queued (channel
// length) and InFlight (separate atomic) at different instants, so a
// job mid-handoff could be counted in both — /metrics would
// transiently report in-flight > workers. The scheduler packs both
// counts into one atomic word; every snapshot taken while submitters
// and workers race must respect the pool's own bounds.
func TestPoolStatsConsistentUnderHammer(t *testing.T) {
	const workers, queue = 2, 3
	p := NewPool(WithPoolWorkers(workers), WithQueueDepth(queue))
	defer p.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = p.Submit(func() {})
				}
			}
		}()
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	var snapshots int
	for time.Now().Before(deadline) {
		s := p.Stats()
		snapshots++
		if s.InFlight < 0 || s.InFlight > workers {
			t.Fatalf("snapshot %d: InFlight %d outside [0, %d]: %+v", snapshots, s.InFlight, workers, s)
		}
		if s.Queued < 0 || s.Queued > queue {
			t.Fatalf("snapshot %d: Queued %d outside [0, %d]: %+v", snapshots, s.Queued, queue, s)
		}
	}
	close(stop)
	wg.Wait()
}

// TestPoolSharedScheduler: a pool built on an adopted runtime submits
// through it, and Close closes the adopted runtime.
func TestPoolSharedScheduler(t *testing.T) {
	rt := sched.New(sched.WithWorkers(2), sched.WithQueueDepth(4))
	p := NewPool(WithScheduler(rt))
	if p.Runtime() != rt {
		t.Fatal("pool did not adopt the supplied runtime")
	}
	var ran atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	if err := p.Submit(func() { ran.Add(1); wg.Done() }); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	p.Close()
	if err := rt.Submit(func() {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("adopted runtime should be closed by pool.Close, got %v", err)
	}
	if ran.Load() != 1 {
		t.Fatalf("ran %d", ran.Load())
	}
}
