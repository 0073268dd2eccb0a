package engine

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"pblparallel/internal/core"
	"pblparallel/internal/obs"
)

// Histogram is a time.Duration view of one obs.Hist snapshot: the
// count, sum, min and max of the observed wall times.
type Histogram struct {
	N        int64
	Sum      time.Duration
	Min, Max time.Duration
	hist     obs.HistSnapshot
}

// newHistogram views s in durations.
func newHistogram(s obs.HistSnapshot) *Histogram {
	return &Histogram{N: int64(s.Count), Sum: seconds(s.Sum), Min: seconds(s.Min), Max: seconds(s.Max), hist: s}
}

// seconds converts a float64 second count to the nearest nanosecond.
func seconds(v float64) time.Duration { return time.Duration(math.Round(v * 1e9)) }

// Mean is the average of the observed durations.
func (h *Histogram) Mean() time.Duration { return seconds(h.hist.Mean()) }

// Metrics is the engine's observability surface: started / completed /
// failed run counters, per-stage and whole-run wall-time histograms,
// and throughput over the observation window. The instruments live in
// a private obs.Registry, which GatherMetrics renders. All methods are
// safe for concurrent use and safe on a nil receiver (a disabled sink).
type Metrics struct {
	reg                                 *obs.Registry
	started, completed, failed, retried *obs.Counter
	throughput                          *obs.Gauge
	run                                 *obs.Hist
	stages                              *obs.HistVec

	mu    sync.Mutex
	begin time.Time // first run start
	end   time.Time // last run finish
}

// NewMetrics builds an empty sink.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	return &Metrics{
		reg:        reg,
		started:    reg.Counter("engine_runs_started_total", "Study runs started."),
		completed:  reg.Counter("engine_runs_completed_total", "Study runs completed successfully."),
		failed:     reg.Counter("engine_runs_failed_total", "Study runs that returned an error."),
		retried:    reg.Counter("engine_runs_retried_total", "Transient-failure retries across all runs."),
		throughput: reg.Gauge("engine_throughput_runs_per_second", "Completed runs per second over the observation window."),
		run:        reg.Histogram("engine_run_duration_seconds", "Whole-run wall time.", obs.LatencyBuckets),
		stages: reg.HistogramVec("engine_stage_duration_seconds", "Per-stage wall time of the study pipeline.",
			"stage", obs.LatencyBuckets),
	}
}

// ObserveStage records one pipeline stage's wall time. It has the
// core.StageObserver signature so it can be installed directly on a
// Study.
func (m *Metrics) ObserveStage(stage string, d time.Duration) {
	if m == nil {
		return
	}
	m.stages.With(stage).Observe(d.Seconds())
}

func (m *Metrics) runStarted() {
	if m == nil {
		return
	}
	m.started.Inc()
	m.mu.Lock()
	if m.begin.IsZero() {
		m.begin = time.Now()
	}
	m.mu.Unlock()
}

func (m *Metrics) runFinished(d time.Duration, failed bool) {
	if m == nil {
		return
	}
	if failed {
		m.failed.Inc()
	} else {
		m.completed.Inc()
	}
	m.run.Observe(d.Seconds())
	m.mu.Lock()
	m.end = time.Now()
	m.mu.Unlock()
}

func (m *Metrics) runCompleted(d time.Duration) { m.runFinished(d, false) }
func (m *Metrics) runFailed(d time.Duration)    { m.runFinished(d, true) }

// runRetried counts one retry of a transiently failed attempt. Retries
// are attempts beyond the first; a run retried twice and then
// succeeding contributes 2 here and 1 to completed.
func (m *Metrics) runRetried() {
	if m == nil {
		return
	}
	m.retried.Inc()
}

// Snapshot is a point-in-time copy of the metrics.
type Snapshot struct {
	Started, Completed, Failed, Retried int64
	// Window is the wall time from the first run start to the last run
	// finish; Throughput is completed runs per second over it.
	Window     time.Duration
	Throughput float64
	Run        *Histogram
	Stages     map[string]*Histogram
}

// Snapshot copies the current state.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{Run: &Histogram{}, Stages: map[string]*Histogram{}}
	}
	stages := m.stages.Snapshots()
	s := Snapshot{
		Started:   m.started.Value(),
		Completed: m.completed.Value(),
		Failed:    m.failed.Value(),
		Retried:   m.retried.Value(),
		Run:       newHistogram(m.run.Snapshot()),
		Stages:    make(map[string]*Histogram, len(stages)),
	}
	for k, h := range stages {
		s.Stages[k] = newHistogram(h)
	}
	m.mu.Lock()
	begin, end := m.begin, m.end
	m.mu.Unlock()
	if !begin.IsZero() && end.After(begin) {
		s.Window = end.Sub(begin)
		if secs := s.Window.Seconds(); secs > 0 {
			s.Throughput = float64(s.Completed) / secs
		}
	}
	return s
}

// Render writes the human-readable metrics report: counters,
// throughput, and one histogram line per pipeline stage (in core's
// pipeline order, then any unknown stages alphabetically, then the
// whole-run line).
func (m *Metrics) Render(w io.Writer) error {
	s := m.Snapshot()
	if _, err := fmt.Fprintf(w, "engine metrics: started=%d completed=%d failed=%d retried=%d window=%s throughput=%.1f runs/s\n",
		s.Started, s.Completed, s.Failed, s.Retried, s.Window.Round(time.Millisecond), s.Throughput); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-13s %6s %10s %10s %10s %10s\n", "stage", "count", "mean", "p50", "p95", "max"); err != nil {
		return err
	}
	line := func(name string, h *Histogram) error {
		_, err := fmt.Fprintf(w, "  %-13s %6d %10s %10s %10s %10s\n",
			name, h.N, round(h.Mean()), round(seconds(h.hist.Quantile(0.50))), round(seconds(h.hist.Quantile(0.95))), round(h.Max))
		return err
	}
	seen := map[string]bool{}
	for _, st := range core.Stages {
		if h, ok := s.Stages[st]; ok {
			seen[st] = true
			if err := line(st, h); err != nil {
				return err
			}
		}
	}
	var extra []string
	for st := range s.Stages {
		if !seen[st] {
			extra = append(extra, st)
		}
	}
	sort.Strings(extra)
	for _, st := range extra {
		if err := line(st, s.Stages[st]); err != nil {
			return err
		}
	}
	return line("run", s.Run)
}

// GatherMetrics implements obs.Gatherer: the engine's counters and
// histograms unify into the obs registry's Prometheus/expvar renderers
// without duplicating state — the registry snapshots this sink at
// render time. Register with obs.Metrics().RegisterGatherer(m).
func (m *Metrics) GatherMetrics() []obs.Family {
	if m == nil {
		return NewMetrics().GatherMetrics()
	}
	m.throughput.Set(m.Snapshot().Throughput)
	return m.reg.Gather()
}

// round trims histogram durations to a readable resolution.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(time.Microsecond)
	}
}
