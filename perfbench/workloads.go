package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pblparallel/internal/serve"
)

// env is one benchmark invocation's fixed context.
type env struct {
	pbld    string // the pbld binary built from the checkout
	work    string // scratch directory inside the checkout
	workers int    // nproc: pbld -workers, client connections, engine workers
	golden  []byte // testdata/golden/run_paper_seed.json
	seed    int64
	seconds time.Duration
}

// tally counts attempted and failed operations; a failure is a non-200
// status, a wrong X-Cache, a byte mismatch or a transport error. The
// first few failure reasons go to stderr.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	reasons           []string
}

// check counts one operation and records why it failed.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted.Add(1)
	if !ok {
		t.failed.Add(1)
		t.mu.Lock()
		if len(t.reasons) < 10 {
			t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
		}
		t.mu.Unlock()
	}
	return ok
}

// The end-to-end metrics every workload reports in its result line.
// p50_ms and throughput_per_s mean the workload's own request path;
// see README.md for the table.
var endToEnd = []string{"setup_s", "peak_rss_mb", "p50_ms", "throughput_per_s"}

// setupRuns is how many cold starts a run makes; setup_s is their
// median.
const setupRuns = 3

// workload is one traffic mix against a live pbld.
type workload interface {
	// probe runs on cold-start daemon i before it is stopped (all but
	// the last, which keeps serving).
	probe(ctx context.Context, e *env, d *daemon, i int, t *tally) error
	// run drives the serving daemon for the run's seconds and reports.
	run(ctx context.Context, e *env, d *daemon, rep *report, t *tally) error
}

var workloads = map[string]func() workload{
	"hit-zipf": func() workload { return &hitZipf{} },
	"run-miss": func() workload { return &runMiss{} },
	"sweep":    func() workload { return &sweepLoad{} },
	"cohort":   func() workload { return &cohortLoad{} },
}

// workloadOrder lists the workloads in the order the traced run replays
// them.
var workloadOrder = []string{"hit-zipf", "run-miss", "sweep", "cohort"}

// runE2E is the timed, untraced run of one workload: setupRuns cold
// starts, then the workload against the last daemon.
func runE2E(ctx context.Context, e *env, w workload, rep *report, t *tally) error {
	var setups []float64
	var live *daemon
	defer func() { live.stop() }()
	for i := 0; i < setupRuns; i++ {
		d, el, golden, err := setup(ctx, e, fmt.Sprintf("setup%d", i))
		if err != nil {
			return err
		}
		t.check(golden, "cold start %d: first /v1/run {} differs from the golden file", i)
		setups = append(setups, el.Seconds())
		if i == setupRuns-1 {
			live = d
			break
		}
		err = w.probe(ctx, e, d, i, t)
		d.stop()
		if err != nil {
			return err
		}
	}
	rep.add("setup_s", percentile(setups, 0.5), "s")
	if err := w.run(ctx, e, live, rep, t); err != nil {
		return err
	}
	rss, err := live.peakRSSMB()
	if err != nil {
		return err
	}
	rep.add("peak_rss_mb", rss, "MB")
	return nil
}

// canonicalRunKey is the content address pbld derives for a /v1/run
// body (the normalized parameters, calibrated); responses carry it as
// X-Study-Key.
func canonicalRunKey(q runReq) serve.Key {
	return serve.NewKey([]byte(fmt.Sprintf("run|seed=%d|students=%d|calibrated=true", q.Seed, q.Students)))
}

// checkRunBody verifies a /v1/run response describes the request.
func checkRunBody(body []byte, q runReq) bool {
	var s serve.RunSummary
	if err := json.Unmarshal(body, &s); err != nil {
		return false
	}
	return s.Seed == q.Seed && s.Students == q.Students && s.Calibrated
}

// ---- hit-zipf -------------------------------------------------------

// hitZipf is the cached-hit path: a 512-key working set warmed at
// set-up (4x the 128-entry memory tier), then an open loop of Zipf
// keys at a fixed rate and a short closed loop for capacity.
type hitZipf struct{}

func (hitZipf) probe(context.Context, *env, *daemon, int, *tally) error { return nil }

// warmHits computes the working set through the daemon and returns the
// bytes of each key's first (miss) response.
func warmHits(ctx context.Context, cli *client, conns int, keys []runReq, order []int, t *tally) [][]byte {
	bodies := make([][]byte, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(order) {
					return
				}
				k := order[i]
				r, err := cli.post(ctx, "/v1/run", keys[k])
				t.check(err == nil && r.status == 200 && r.cache == "miss" &&
					r.key == canonicalRunKey(keys[k]).Hex() && checkRunBody(r.body, keys[k]),
					"warm %v: err=%v status=%d cache=%q", keys[k], err, r.status, r.cache)
				bodies[k] = r.body
			}
		}()
	}
	wg.Wait()
	return bodies
}

// hitOK checks one working-set response: served from a cache tier (or
// coalesced onto a concurrent disk read) with the warm bytes.
func hitOK(r reply, err error, want []byte) bool {
	return err == nil && r.status == 200 &&
		(r.cache == "hit" || r.cache == "disk" || r.cache == "coalesced") &&
		bytes.Equal(r.body, want)
}

// cacheCounts tallies X-Cache values.
type cacheCounts struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *cacheCounts) add(v string) {
	c.mu.Lock()
	if c.n == nil {
		c.n = map[string]int{}
	}
	c.n[v]++
	c.mu.Unlock()
}

func (hitZipf) run(ctx context.Context, e *env, d *daemon, rep *report, t *tally) error {
	keys := hitKeySet(e.seed)
	t0 := time.Now()
	bodies := warmHits(ctx, d.cli, e.workers, keys, warmOrder(e.seed), t)
	// Wait for the write-behind queue to land the whole working set on
	// disk, so no request below can miss both tiers.
	for {
		n, err := d.metricValue(ctx, "store_entries")
		if err != nil {
			return err
		}
		if n >= hitKeys {
			break
		}
		if time.Since(t0) > 60*time.Second {
			return fmt.Errorf("persistent tier holds %v of %d warmed entries after 60s", n, hitKeys)
		}
		time.Sleep(20 * time.Millisecond)
	}
	rep.add("warm_s", time.Since(t0).Seconds(), "s")

	openDur := e.seconds / 2
	due := poissonSchedule(e.seed, hitRate, openDur)
	ranks := zipfRanks(e.seed, streamOpenKeys, len(due))
	var xc cacheCounts
	ss := openLoop(due, e.workers, func(i int) {
		k := ranks[i]
		r, err := d.cli.post(ctx, "/v1/run", keys[k])
		xc.add(r.cache)
		t.check(hitOK(r, err, bodies[k]), "hit %v: err=%v status=%d cache=%q", keys[k], err, r.status, r.cache)
	})
	st := summarizeOpen(ss)
	t.check(st.achievedOverOffered >= 0.95, "open loop fell behind: achieved/offered %.3f", st.achievedOverOffered)

	// Capacity: a closed loop over the same working set.
	more := zipfRanks(e.seed, streamClosedKeys, 1<<16)
	var idx atomic.Int64
	lat, done := closedLoop(e.workers, e.seconds-openDur, func() bool {
		k := more[int(idx.Add(1)-1)%len(more)]
		r, err := d.cli.post(ctx, "/v1/run", keys[k])
		return t.check(hitOK(r, err, bodies[k]), "capacity hit %v: err=%v status=%d cache=%q", keys[k], err, r.status, r.cache)
	})
	diskHits, err := d.metricValue(ctx, "store_disk_hits_total")
	if err != nil {
		return err
	}

	rep.add("p50_ms", ms(st.p50), "ms")
	capacity := windowRate(done, e.seconds-openDur)
	rep.add("throughput_per_s", capacity, "1/s")
	rep.add("hit_p50_ms", ms(st.p50), "ms")
	rep.add("hit_p99_ms", ms(st.p99), "ms")
	rep.add("hit_max_rps", capacity, "req/s")
	rep.add("capacity.requests", float64(len(lat)), "count")
	rep.add("open_loop.requests", float64(st.n), "count")
	rep.add("loadgen.offered_rps", st.offered, "req/s")
	rep.add("loadgen.late_p50_ms", ms(st.lateP50), "ms")
	rep.add("loadgen.late_p99_ms", ms(st.lateP99), "ms")
	rep.add("loadgen.achieved_over_offered", st.achievedOverOffered, "ratio")
	for _, v := range []string{"hit", "disk", "coalesced", "miss"} {
		rep.add("xcache."+v, float64(xc.n[v]), "count")
	}
	rep.add("store_disk_hits_total", diskHits, "count")
	return nil
}

// ---- run-miss -------------------------------------------------------

// runMiss is the compute path: nproc closed-loop clients, every request
// a never-seen study seed with the seeded cohort-size mix.
type runMiss struct{}

func (runMiss) probe(context.Context, *env, *daemon, int, *tally) error { return nil }

// verifyRuns is how many run-miss responses are recomputed in-process
// after the timed phase and compared byte for byte.
const verifyRuns = 3

func (runMiss) run(ctx context.Context, e *env, d *daemon, rep *report, t *tally) error {
	stream := newMissStream(e.seed, 10_000)
	var mu sync.Mutex
	var sample []runReq
	var sampleBodies [][]byte
	lat, done := closedLoop(e.workers, e.seconds, func() bool {
		mu.Lock()
		q := stream.take()
		mu.Unlock()
		r, err := d.cli.post(ctx, "/v1/run", q)
		ok := t.check(err == nil && r.status == 200 && r.cache == "miss" && checkRunBody(r.body, q),
			"run %v: err=%v status=%d cache=%q", q, err, r.status, r.cache)
		if ok {
			mu.Lock()
			if len(sample) < verifyRuns {
				sample, sampleBodies = append(sample, q), append(sampleBodies, r.body)
			}
			mu.Unlock()
		}
		return ok
	})
	// The sampled responses must match the library computed in this
	// process, and a repeat must be a cache hit with the same bytes.
	for i, q := range sample {
		want, err := computeRun(ctx, q)
		if err != nil {
			return err
		}
		t.check(bytes.Equal(sampleBodies[i], want), "run %v: bytes differ from the in-process study", q)
		r, err := d.cli.post(ctx, "/v1/run", q)
		t.check(err == nil && r.status == 200 && (r.cache == "hit" || r.cache == "disk") && bytes.Equal(r.body, want),
			"repeat %v: err=%v status=%d cache=%q", q, err, r.status, r.cache)
	}
	msLat := durationsMS(lat)
	rps := windowRate(done, e.seconds)
	rep.add("p50_ms", percentile(msLat, 0.5), "ms")
	rep.add("throughput_per_s", rps, "1/s")
	rep.add("run_rps", rps, "req/s")
	rep.add("run_p50_ms", percentile(msLat, 0.5), "ms")
	rep.add("run_p99_ms", percentile(msLat, 0.99), "ms")
	rep.add("run.requests", float64(len(lat)), "count")
	return nil
}

// ---- sweep and cohort ----------------------------------------------

// sweepLoad is the offline parallel path through /v1/sweep: one client,
// 200-seed sweeps with fresh keys and workers = nproc.
type sweepLoad struct{ probes [2][]byte }

// cohortLoad is the mega-cohort path through /v1/cohort: one client,
// 2M-student cohorts with fresh keys and workers = nproc.
type cohortLoad struct{ probes [2][]byte }

// probeWorkers is the worker count of cold-start probe i: 1, then nproc.
func probeWorkers(e *env, i int) int {
	if i == 0 {
		return 1
	}
	return e.workers
}

// invariance records probe i's body and, after the second, checks the
// two worker counts produced identical bytes.
func invariance(probes *[2][]byte, i int, r reply, err error, t *tally, what string) {
	if !t.check(err == nil && r.status == 200 && r.cache == "miss", "%s probe %d: err=%v status=%d cache=%q", what, i, err, r.status, r.cache) {
		return
	}
	probes[i] = r.body
	if i == 1 {
		t.check(probes[0] != nil && bytes.Equal(probes[0], probes[1]), "%s: bodies differ between workers 1 and nproc", what)
	}
}

type sweepReq struct {
	Start   int64 `json:"start"`
	Seeds   int   `json:"seeds"`
	Workers int   `json:"workers"`
}

type cohortReq struct {
	Students int   `json:"students"`
	Seed     int64 `json:"seed"`
	Workers  int   `json:"workers"`
}

func (s *sweepLoad) probe(ctx context.Context, e *env, d *daemon, i int, t *tally) error {
	r, err := d.cli.post(ctx, "/v1/sweep", sweepReq{Start: seedBase(e.seed) + 5_000_000, Seeds: checkSweepSeeds, Workers: probeWorkers(e, i)})
	invariance(&s.probes, i, r, err, t, "sweep")
	return nil
}

func (c *cohortLoad) probe(ctx context.Context, e *env, d *daemon, i int, t *tally) error {
	r, err := d.cli.post(ctx, "/v1/cohort", cohortReq{Students: checkCohortStudents, Seed: seedBase(e.seed) + 5_000_000, Workers: probeWorkers(e, i)})
	invariance(&c.probes, i, r, err, t, "cohort")
	return nil
}

// sweepOK checks a /v1/sweep body is a sensitivity result of the
// requested width.
func sweepOK(body []byte, seeds int) bool {
	var v struct {
		Seeds int
		N     int
	}
	return json.Unmarshal(body, &v) == nil && v.Seeds == seeds && v.N > 0
}

// cohortOK checks a /v1/cohort body describes the requested cohort.
func cohortOK(body []byte, students int, seed int64) bool {
	var v struct {
		Students int   `json:"students"`
		Seed     int64 `json:"seed"`
		Batches  int   `json:"batches"`
	}
	return json.Unmarshal(body, &v) == nil && v.Students == students && v.Seed == seed && v.Batches > 0
}

func (s *sweepLoad) run(ctx context.Context, e *env, d *daemon, rep *report, t *tally) error {
	next := seedBase(e.seed) + 6_000_000
	send := func() bool {
		q := sweepReq{Start: next, Seeds: sweepSeeds, Workers: e.workers}
		next += 1000
		r, err := d.cli.post(ctx, "/v1/sweep", q)
		return t.check(err == nil && r.status == 200 && r.cache == "miss" && sweepOK(r.body, sweepSeeds),
			"sweep %v: err=%v status=%d cache=%q", q, err, r.status, r.cache)
	}
	send() // untimed: the first sweep grows the daemon's heap
	lat, _ := closedLoop(1, e.seconds, send)
	// One client: the rate is the work of a median request over its
	// time.
	msLat := durationsMS(lat)
	p50 := percentile(msLat, 0.5)
	rate := sweepSeeds / (p50 / 1000)
	rep.add("p50_ms", p50, "ms")
	rep.add("throughput_per_s", rate, "1/s")
	rep.add("sweep_studies_per_s", rate, "studies/s")
	rep.add("sweep.requests", float64(len(lat)), "count")
	return nil
}

func (c *cohortLoad) run(ctx context.Context, e *env, d *daemon, rep *report, t *tally) error {
	next := seedBase(e.seed) + 6_000_000
	send := func() bool {
		q := cohortReq{Students: cohortStudents, Seed: next, Workers: e.workers}
		next++
		r, err := d.cli.post(ctx, "/v1/cohort", q)
		return t.check(err == nil && r.status == 200 && r.cache == "miss" && cohortOK(r.body, q.Students, q.Seed),
			"cohort %v: err=%v status=%d cache=%q", q, err, r.status, r.cache)
	}
	send() // untimed: the first cohort grows the daemon's heap
	lat, _ := closedLoop(1, e.seconds, send)
	msLat := durationsMS(lat)
	p50 := percentile(msLat, 0.5)
	rate := cohortStudents / (p50 / 1000)
	rep.add("p50_ms", p50, "ms")
	rep.add("throughput_per_s", rate, "1/s")
	rep.add("cohort_mstudents_per_s", rate/1e6, "Mstudents/s")
	rep.add("cohort.requests", float64(len(lat)), "count")
	return nil
}
