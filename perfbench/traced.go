package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"pblparallel/internal/cohort/mega"
	"pblparallel/internal/core"
	"pblparallel/internal/engine"
	"pblparallel/internal/obs"
	"pblparallel/internal/obs/flightrec"
	"pblparallel/internal/obs/prof"
	"pblparallel/internal/obs/tsdb"
	"pblparallel/internal/respond"
	"pblparallel/internal/sched"
	"pblparallel/internal/sensitivity"
	"pblparallel/internal/serve"
	"pblparallel/internal/store"
	"pblparallel/internal/survey"
)

// The traced run replays every workload's generated inputs in this
// process. Each replayed request is sent over loopback to an in-process
// pbld server whose handler is wrapped in a benchmark-owned one (the
// live tree: http > serve), and is then replayed through the layers'
// public functions on mirror instances, each call inside a span (the
// replay tree). Spans are recorded only here, around the calls; the
// program itself is not instrumented for the benchmark.

// perLayer lists the per-layer metrics every traced run reports.
var perLayer = func() []string {
	names := []string{
		"respond.calibrate_s",
		"http.self_us",
		"serve.hit_self_us", "serve.allocs_per_hit", "serve.miss_self_us",
		"cache.mem_hit_us", "cache.mem_hit_ratio", "cache.insert_us", "cache.evictions",
		"store.get_us", "store.disk_hit_ratio", "store.put_us", "store.bytes_written", "store.disk_hits_total",
		"engine.queue_wait_us", "engine.sweep_overhead_us", "engine.retries",
		"sched.steals", "sched.parks",
	}
	for _, st := range core.Stages {
		names = append(names, "core."+st+"_us")
	}
	names = append(names,
		"core.allocs_per_study", "core.alloc_bytes_per_study", "runtime.gc_cpu_share",
		"encode.summary_us",
		"sensitivity.summarize_us", "mega.run_ms", "mega.batches",
		"obs.stack_overhead_us",
		"loadgen.late_p50_ms", "loadgen.late_p99_ms", "loadgen.achieved_over_offered",
		"xcache.hit", "xcache.disk",
	)
	for _, w := range workloadOrder {
		names = append(names, w+".unattributed_us", w+".layer_sum_us", w+".trace_overhead_us")
	}
	return names
}()

// Headers carrying a traced request's identity to the handler wrapper.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

// liveServer is an in-process pbld server (the daemon's serving
// configuration without its obs stack) on a loopback listener.
type liveServer struct {
	srv  *serve.Server
	disk *store.Store
	hs   *http.Server
	cli  *client
	done chan error
}

// startLive builds the server with a persistent tier in dir and wraps
// its handler: a request carrying the trace headers gets a serve span
// around pbld's handler, parented to the client's http span.
func startLive(e *env, dir string, rec *recorder, workload string) (*liveServer, error) {
	reg := obs.NewRegistry()
	disk, err := store.Open(dir, store.Options{Registry: reg})
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Workers: e.workers, CacheEntries: memEntries, DiskStore: disk, Registry: reg})
	h := srv.Handler()
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err1 := strconv.Atoi(r.Header.Get(hdrReq))
		parent, err2 := strconv.Atoi(r.Header.Get(hdrSpan))
		if err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		id := rec.begin(workload, req, parent, spanServe)
		h.ServeHTTP(w, r)
		rec.end(id)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	l := &liveServer{srv: srv, disk: disk, done: make(chan error, 1),
		hs:  &http.Server{Handler: wrapped, ReadHeaderTimeout: 5 * time.Second},
		cli: newClient("http://"+ln.Addr().String(), e.workers)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// close stops the listener and drains the server (and its tier).
func (l *liveServer) close() {
	l.cli.close()
	_ = l.hs.Close() // Serve's ErrServerClosed is the expected outcome
	<-l.done
	l.srv.Close()
}

// reqTrace records the spans of one replayed request.
type reqTrace struct {
	rec      *recorder
	workload string
	req      int
	parent   int
}

func (t reqTrace) begin(name string) int { return t.rec.begin(t.workload, t.req, t.parent, name) }
func (t reqTrace) end(id int)            { t.rec.end(id) }

// since records a span named name from start to now; without a
// recorder it records nothing.
func (t reqTrace) since(name string, start time.Time) {
	if t.rec != nil {
		t.rec.add(t.workload, t.req, t.parent, name, start, time.Now())
	}
}

// under returns the trace for the children of span id.
func (t reqTrace) under(id int) reqTrace { t.parent = id; return t }

// tracedPost sends a pre-encoded request inside a root http span and
// returns the reply and the request's trace (parent unset).
func (l *liveServer) tracedPost(ctx context.Context, rec *recorder, workload string, req int, path string, body []byte) (reply, error, reqTrace) {
	id := rec.begin(workload, req, -1, rootHTTP)
	r, err := l.cli.postRaw(ctx, path, body, hdrReq, strconv.Itoa(req), hdrSpan, strconv.Itoa(id))
	rec.end(id)
	return r, err, reqTrace{rec: rec, workload: workload, req: req, parent: -1}
}

// timedPost sends an untraced request and returns its round trip.
func (l *liveServer) timedPost(ctx context.Context, path string, body []byte) (reply, error, time.Duration) {
	t := time.Now()
	r, err := l.cli.postRaw(ctx, path, body)
	return r, err, time.Since(t)
}

// mustJSON encodes a request body; the benchmark's request types
// always encode.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// alternate runs the ledger pass of one workload: input 0 is an
// untimed warm-up, then inputs i = 1, 2, ... alternate between an
// untraced live request (odd i) and a traced one with its replay (even
// i), until budget is spent and both kinds ran. It returns the
// untraced round trips.
func alternate(budget time.Duration, untraced func(i int) time.Duration, traced func(i int)) []time.Duration {
	untraced(0)
	var plain []time.Duration
	start := time.Now()
	for i := 1; i < 3 || time.Since(start) < budget; i++ {
		if i%2 == 1 {
			plain = append(plain, untraced(i))
		} else {
			traced(i)
		}
	}
	return plain
}

// spanStats aggregates recorded spans by (workload, name).
type spanStats struct {
	spans []span
}

// mean is the mean duration of the named spans of a workload, in µs.
func (s spanStats) meanUS(workload, name string) float64 {
	var sum time.Duration
	n := 0
	for _, sp := range s.spans {
		if sp.Workload == workload && sp.Name == name {
			sum += sp.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return us(sum) / float64(n)
}

// count is the number of the named spans of a workload.
func (s spanStats) count(workload, name string) int {
	n := 0
	for _, sp := range s.spans {
		if sp.Workload == workload && sp.Name == name {
			n++
		}
	}
	return n
}

// runTraced is the whole traced run.
func runTraced(ctx context.Context, e *env, rep *report, t *tally) error {
	// The first calibration in this process is the cold-study cost
	// every daemon's first request pays; later studies share it.
	t0 := time.Now()
	if _, err := respond.PaperParams(survey.NewBeyerlein()); err != nil {
		return err
	}
	rep.add("respond.calibrate_s", time.Since(t0).Seconds(), "s")

	rec := newRecorder()
	rt := sched.New(sched.WithWorkers(e.workers))
	defer rt.Close()
	budget := e.seconds / 5
	plain := map[string][]time.Duration{}
	var err error
	if plain["hit-zipf"], err = traceHits(ctx, e, rec, rep, t, budget); err != nil {
		return err
	}
	if plain["run-miss"], err = traceMisses(ctx, e, rec, rep, t, budget); err != nil {
		return err
	}
	if plain["sweep"], err = traceSweeps(ctx, e, rec, rep, t, rt, budget); err != nil {
		return err
	}
	if plain["cohort"], err = traceCohorts(ctx, e, rec, rep, t, rt, budget); err != nil {
		return err
	}
	// Last: arming the obs stack turns on process-wide profiling rates.
	if err := traceStack(ctx, e, rep, t); err != nil {
		return err
	}

	spans := rec.snapshot()
	rows := ledger(spans)
	for _, w := range workloadOrder {
		r := rows[w]
		rep.add(w+".unattributed_us", us(r.unattributed), "us")
		rep.add(w+".layer_sum_us", us(r.layers), "us")
		var sum time.Duration
		for _, d := range plain[w] {
			sum += d
		}
		untraced := sum / time.Duration(len(plain[w]))
		rep.add(w+".trace_overhead_us", us(r.total-untraced), "us")
		rep.add(w+".traced_requests", float64(r.requests), "count")
	}
	return rec.write(filepath.Join(filepath.Dir(e.work), fmt.Sprintf("spans-seed%d.jsonl", e.seed)))
}

// ---- hit-zipf -------------------------------------------------------

// hitMirror is the two cache tiers rebuilt from public parts: pbld's
// memory tier type and a persistent store, filled with the same
// working set in the same order as the live server.
type hitMirror struct {
	mem  *serve.Cache
	disk *store.Store
}

// lookup replays pbld's read-through for key k: the memory tier, then
// on a miss the disk tier and the fill into memory, each call in a
// span named for its outcome.
func (m hitMirror) lookup(ctx context.Context, k serve.Key, tr reqTrace) ([]byte, error) {
	st := time.Now()
	if b, ok := m.mem.Get(k); ok {
		tr.since("cache.mem_hit", st)
		return b, nil
	}
	tr.since("cache.mem_miss", st)
	st = time.Now()
	b, ok, _ := m.disk.Get(ctx, k.DiskKey())
	tr.since("store.get", st)
	if !ok {
		return nil, fmt.Errorf("key %s in neither mirror tier", k.Hex()[:8])
	}
	st = time.Now()
	_, _, err := m.mem.Do(ctx, k, func() ([]byte, error) { return b, nil })
	tr.since("cache.fill", st)
	return b, err
}

func traceHits(ctx context.Context, e *env, rec *recorder, rep *report, t *tally, budget time.Duration) ([]time.Duration, error) {
	const w = "hit-zipf"
	l, err := startLive(e, filepath.Join(e.work, "trace-hit"), rec, w)
	if err != nil {
		return nil, err
	}
	defer l.close()
	keys := hitKeySet(e.seed)
	order := warmOrder(e.seed)
	bodies := warmHits(ctx, l.cli, e.workers, keys, order, t)
	l.disk.Flush()

	mdisk, err := store.Open(filepath.Join(e.work, "trace-hit-mirror"), store.Options{Registry: obs.NewRegistry()})
	if err != nil {
		return nil, err
	}
	defer mdisk.Close()
	m := hitMirror{mem: serve.NewCache(memEntries, nil), disk: mdisk}
	ckeys := make([]serve.Key, len(keys))
	reqs := make([][]byte, len(keys))
	for i, q := range keys {
		ckeys[i], reqs[i] = canonicalRunKey(q), mustJSON(q)
	}
	for _, k := range order {
		if _, _, err := m.mem.Do(ctx, ckeys[k], func() ([]byte, error) { return bodies[k], nil }); err != nil {
			return nil, err
		}
		mdisk.Put(ckeys[k].DiskKey(), bodies[k])
	}
	mdisk.Flush()

	// The open loop, untraced, on the same schedule and keys as the
	// end-to-end run: the generator's own validity numbers.
	due := poissonSchedule(e.seed, hitRate, budget)
	ranks := zipfRanks(e.seed, streamOpenKeys, len(due))
	var xc cacheCounts
	st := summarizeOpen(openLoop(due, e.workers, func(i int) {
		k := ranks[i]
		r, err := l.cli.postRaw(ctx, "/v1/run", reqs[k])
		xc.add(r.cache)
		t.check(hitOK(r, err, bodies[k]), "traced open loop %v: err=%v status=%d cache=%q", keys[k], err, r.status, r.cache)
	}))
	rep.add("loadgen.late_p50_ms", ms(st.lateP50), "ms")
	rep.add("loadgen.late_p99_ms", ms(st.lateP99), "ms")
	rep.add("loadgen.achieved_over_offered", st.achievedOverOffered, "ratio")
	rep.add("xcache.hit", float64(xc.n["hit"]), "count")
	rep.add("xcache.disk", float64(xc.n["disk"]), "count")
	// Bring the mirror's LRU order along (untimed).
	for _, k := range ranks {
		if _, err := m.lookup(ctx, ckeys[k], reqTrace{}); err != nil {
			return nil, err
		}
	}

	// The ledger pass: one client, the capacity phase's key stream.
	more := zipfRanks(e.seed, streamClosedKeys, 1<<16)
	plain := alternate(budget, func(i int) time.Duration {
		k := more[i%len(more)]
		r, err, d := l.timedPost(ctx, "/v1/run", reqs[k])
		t.check(hitOK(r, err, bodies[k]), "traced hit %v: err=%v status=%d cache=%q", keys[k], err, r.status, r.cache)
		if _, err := m.lookup(ctx, ckeys[k], reqTrace{}); err != nil {
			t.check(false, "mirror: %v", err)
		}
		return d
	}, func(i int) {
		k := more[i%len(more)]
		r, err, tr := l.tracedPost(ctx, rec, w, i, "/v1/run", reqs[k])
		t.check(hitOK(r, err, bodies[k]), "traced hit %v: err=%v status=%d cache=%q", keys[k], err, r.status, r.cache)
		root := tr.begin(rootReplay)
		b, err := m.lookup(ctx, ckeys[k], tr.under(root))
		tr.end(root)
		t.check(err == nil && bytes.Equal(b, bodies[k]), "mirror lookup %v: %v", keys[k], err)
	})

	ss := spanStats{rec.snapshot()}
	hits, misses := ss.count(w, "cache.mem_hit"), ss.count(w, "cache.mem_miss")
	rep.add("http.self_us", httpSelfUS(ss.spans, w), "us")
	rep.add("cache.mem_hit_us", ss.meanUS(w, "cache.mem_hit"), "us")
	rep.add("cache.mem_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	rep.add("store.get_us", ss.meanUS(w, "store.get"), "us")
	rep.add("store.disk_hit_ratio", float64(misses)/float64(max(hits+misses, 1)), "ratio")
	stats := l.srv.Stats()
	rep.add("cache.evictions", float64(stats.Cache.Evicted), "count")
	rep.add("store.disk_hits_total", float64(stats.Store.DiskHits), "count")
	return plain, nil
}

// httpSelfUS is the mean self time of a workload's http spans: the
// round trip minus pbld's handler.
func httpSelfUS(spans []span, w string) float64 {
	self := selfTimes(spans)
	var sum time.Duration
	n := 0
	for _, s := range spans {
		if s.Workload == w && s.Name == rootHTTP && s.Parent < 0 {
			sum += self[s.ID]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return us(sum) / float64(n)
}

// ---- run-miss -------------------------------------------------------

func traceMisses(ctx context.Context, e *env, rec *recorder, rep *report, t *tally, budget time.Duration) ([]time.Duration, error) {
	const w = "run-miss"
	l, err := startLive(e, filepath.Join(e.work, "trace-miss"), rec, w)
	if err != nil {
		return nil, err
	}
	defer l.close()
	mdisk, err := store.Open(filepath.Join(e.work, "trace-miss-mirror"), store.Options{Registry: obs.NewRegistry()})
	if err != nil {
		return nil, err
	}
	defer mdisk.Close()
	mem := serve.NewCache(memEntries, nil)
	pool := engine.NewPool(engine.WithPoolWorkers(e.workers))
	defer pool.Close()

	// The traced requests are the end-to-end run's own stream; the
	// untraced ones come from a second stream of the same mix.
	tracedStream, plainStream := newMissStream(e.seed, 10_000), newMissStream(e.seed, 20_000)
	var allocs, allocBytes []float64
	gc0, cpu0 := gcCPU()
	plain := alternate(budget, func(int) time.Duration {
		q := plainStream.take()
		r, err, d := l.timedPost(ctx, "/v1/run", mustJSON(q))
		t.check(err == nil && r.status == 200 && r.cache == "miss" && checkRunBody(r.body, q),
			"traced run %v: err=%v status=%d cache=%q", q, err, r.status, r.cache)
		return d
	}, func(i int) {
		q := tracedStream.take()
		r, err, tr := l.tracedPost(ctx, rec, w, i, "/v1/run", mustJSON(q))
		if !t.check(err == nil && r.status == 200 && r.cache == "miss", "traced run %v: err=%v status=%d cache=%q", q, err, r.status, r.cache) {
			return
		}
		root := tr.begin(rootReplay)
		tr = tr.under(root)

		st := time.Now()
		var dq runReq
		derr := json.Unmarshal(mustJSON(q), &dq)
		tr.since("decode", st)
		st = time.Now()
		k := canonicalRunKey(dq)
		tr.since("key", st)

		var body []byte
		var cerr error
		var m0, m1 runtime.MemStats
		done := make(chan struct{})
		wait := tr.begin("engine.queue_wait")
		serr := pool.Submit(func() {
			defer close(done)
			tr.end(wait)
			runtime.ReadMemStats(&m0)
			sid := tr.begin("study")
			stages := tr.under(sid)
			out, err := core.NewStudy(core.WithSeed(dq.Seed), core.WithCohortSize(dq.Students),
				core.WithStageObserver(func(stage string, el time.Duration) {
					now := time.Now()
					stages.rec.add(w, stages.req, stages.parent, "core."+stage, now.Add(-el), now)
				})).Run(ctx)
			tr.end(sid)
			runtime.ReadMemStats(&m1)
			if err != nil {
				cerr = err
				return
			}
			st := time.Now()
			body, cerr = encodeSummary(dq.Seed, out)
			tr.since("encode", st)
		})
		if serr != nil {
			tr.end(wait)
			cerr = serr
		} else {
			<-done
		}
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		allocBytes = append(allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))

		st = time.Now()
		_, _, ierr := mem.Do(ctx, k, func() ([]byte, error) { return body, nil })
		tr.since("cache.insert", st)
		tr.end(root)
		// pbld writes the response behind to its disk tier, off the
		// request's path: a root outside the ledger.
		async := tr.under(-1)
		st = time.Now()
		mdisk.Put(k.DiskKey(), body)
		mdisk.Flush()
		async.since("store.put", st)
		t.check(derr == nil && cerr == nil && ierr == nil && bytes.Equal(body, r.body) && r.key == k.Hex(),
			"replayed run %v differs from pbld's response (decode %v, compute %v, insert %v)", q, derr, cerr, ierr)
	})
	gc1, cpu1 := gcCPU()

	ss := spanStats{rec.snapshot()}
	for _, stage := range core.Stages {
		rep.add("core."+stage+"_us", ss.meanUS(w, "core."+stage), "us")
	}
	studyUS, encodeUS := ss.meanUS(w, "study"), ss.meanUS(w, "encode")
	rep.add("serve.miss_self_us", ss.meanUS(w, spanServe)-studyUS-encodeUS, "us")
	rep.add("encode.summary_us", encodeUS, "us")
	rep.add("engine.queue_wait_us", ss.meanUS(w, "engine.queue_wait"), "us")
	rep.add("cache.insert_us", ss.meanUS(w, "cache.insert"), "us")
	rep.add("store.put_us", ss.meanUS(w, "store.put"), "us")
	rep.add("store.bytes_written", float64(l.srv.Stats().Store.Bytes), "B")
	rep.add("core.allocs_per_study", mean(allocs), "allocs")
	rep.add("core.alloc_bytes_per_study", mean(allocBytes), "B")
	rep.add("runtime.gc_cpu_share", (gc1-gc0)/max(cpu1-cpu0, 1e-9), "ratio")
	return plain, nil
}

// gcCPU reads the runtime's cumulative GC and total CPU estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// ---- sweep and cohort ----------------------------------------------

// schedCounts reads the runtime's steal (task and index-range) and
// park counters.
func schedCounts(rt *sched.Runtime) (steals, parks int64) {
	snap := rt.Introspect()
	return snap.Steals + snap.RangeSteals, snap.Parks
}

func traceSweeps(ctx context.Context, e *env, rec *recorder, rep *report, t *tally, rt *sched.Runtime, budget time.Duration) ([]time.Duration, error) {
	const w = "sweep"
	l, err := startLive(e, filepath.Join(e.work, "trace-sweep"), rec, w)
	if err != nil {
		return nil, err
	}
	defer l.close()
	base := seedBase(e.seed)
	tracedNext, plainNext := base+6_000_000, base+7_000_000
	var overhead, summarize []float64
	var retries int64
	steals0, parks0 := schedCounts(rt)
	plain := alternate(budget, func(int) time.Duration {
		q := sweepReq{Start: plainNext, Seeds: sweepSeeds, Workers: e.workers}
		plainNext += 1000
		r, err, d := l.timedPost(ctx, "/v1/sweep", mustJSON(q))
		t.check(err == nil && r.status == 200 && r.cache == "miss" && sweepOK(r.body, sweepSeeds),
			"traced sweep %v: err=%v status=%d cache=%q", q, err, r.status, r.cache)
		return d
	}, func(i int) {
		q := sweepReq{Start: tracedNext, Seeds: sweepSeeds, Workers: e.workers}
		tracedNext += 1000
		r, err, tr := l.tracedPost(ctx, rec, w, i, "/v1/sweep", mustJSON(q))
		if !t.check(err == nil && r.status == 200 && r.cache == "miss", "traced sweep %v: err=%v status=%d cache=%q", q, err, r.status, r.cache) {
			return
		}
		root := tr.begin(rootReplay)
		tr = tr.under(root)
		m := engine.NewMetrics()
		st := time.Now()
		res, serr := sensitivity.RunSweep(ctx, q.Start, q.Seeds, sensitivity.Options{Workers: e.workers, Metrics: m, Runtime: rt})
		tr.since("sensitivity.run_sweep", st)
		wall := time.Since(st)
		st = time.Now()
		body, eerr := indentJSON(res)
		tr.since("encode", st)
		tr.end(root)
		t.check(serr == nil && eerr == nil && bytes.Equal(body, r.body), "replayed sweep %v differs from pbld's response (%v, %v)", q, serr, eerr)
		snap := m.Snapshot()
		studies := snap.Run.Sum / time.Duration(e.workers)
		overhead = append(overhead, us(snap.Window-studies))
		summarize = append(summarize, us(wall-snap.Window))
		retries += snap.Retried
	})
	steals1, parks1 := schedCounts(rt)
	rep.add("engine.sweep_overhead_us", mean(overhead), "us")
	rep.add("sensitivity.summarize_us", mean(summarize), "us")
	rep.add("engine.retries", float64(retries), "count")
	rep.add("sched.steals", float64(steals1-steals0), "count")
	rep.add("sched.parks", float64(parks1-parks0), "count")
	return plain, nil
}

// indentJSON is pbld's response encoding.
func indentJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func traceCohorts(ctx context.Context, e *env, rec *recorder, rep *report, t *tally, rt *sched.Runtime, budget time.Duration) ([]time.Duration, error) {
	const w = "cohort"
	l, err := startLive(e, filepath.Join(e.work, "trace-cohort"), rec, w)
	if err != nil {
		return nil, err
	}
	defer l.close()
	base := seedBase(e.seed)
	tracedNext, plainNext := base+6_000_000, base+7_000_000
	var batches int
	plain := alternate(budget, func(int) time.Duration {
		q := cohortReq{Students: cohortStudents, Seed: plainNext, Workers: e.workers}
		plainNext++
		r, err, d := l.timedPost(ctx, "/v1/cohort", mustJSON(q))
		t.check(err == nil && r.status == 200 && r.cache == "miss" && cohortOK(r.body, q.Students, q.Seed),
			"traced cohort %v: err=%v status=%d cache=%q", q, err, r.status, r.cache)
		return d
	}, func(i int) {
		q := cohortReq{Students: cohortStudents, Seed: tracedNext, Workers: e.workers}
		tracedNext++
		r, err, tr := l.tracedPost(ctx, rec, w, i, "/v1/cohort", mustJSON(q))
		if !t.check(err == nil && r.status == 200 && r.cache == "miss", "traced cohort %v: err=%v status=%d cache=%q", q, err, r.status, r.cache) {
			return
		}
		root := tr.begin(rootReplay)
		tr = tr.under(root)
		st := time.Now()
		res, merr := mega.Run(ctx, engine.New(engine.WithWorkers(e.workers), engine.WithRuntime(rt)), mega.DefaultConfig(q.Students, q.Seed))
		tr.since("mega.run", st)
		st = time.Now()
		body, eerr := indentJSON(res)
		tr.since("encode", st)
		tr.end(root)
		if t.check(merr == nil && eerr == nil && bytes.Equal(body, r.body), "replayed cohort %v differs from pbld's response (%v, %v)", q, merr, eerr) {
			batches = res.Batches
		}
	})
	ss := spanStats{rec.snapshot()}
	rep.add("mega.run_ms", ss.meanUS(w, "mega.run")/1000, "ms")
	rep.add("mega.batches", float64(batches), "count")
	return plain, nil
}

// ---- the cached-hit handler, with and without the obs stack --------

// discardWriter is a reusable ResponseWriter that keeps the body for
// checking without allocating per request.
type discardWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(code int)        { d.status = code }
func (d *discardWriter) Write(b []byte) (int, error) { return d.body.Write(b) }

func (d *discardWriter) reset() {
	clear(d.h)
	d.status = http.StatusOK
	d.body.Reset()
}

// stackKeys is how many hot keys the handler loops cycle through.
const stackKeys = 16

// runRequest builds an in-process /v1/run request for q.
func runRequest(ctx context.Context, q runReq) *http.Request {
	r, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/run", bytes.NewReader(mustJSON(q)))
	if err != nil {
		panic(err) // a constant method and path always parse
	}
	return r
}

// handlerLoop serves n cached hits straight into srv's handler (no
// network) and returns the mean time and allocations per hit.
func handlerLoop(ctx context.Context, srv *serve.Server, keys []runReq, want [][]byte, n int, t *tally) (meanUS, allocsPerHit float64) {
	h := srv.Handler()
	reqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = runRequest(ctx, keys[i%len(keys)])
	}
	dw := &discardWriter{h: http.Header{}}
	var total time.Duration
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	bad := 0
	for i, r := range reqs {
		dw.reset()
		st := time.Now()
		h.ServeHTTP(dw, r)
		total += time.Since(st)
		if dw.status != http.StatusOK || dw.h.Get("X-Cache") != "hit" || !bytes.Equal(dw.body.Bytes(), want[i%len(want)]) {
			bad++
		}
	}
	runtime.ReadMemStats(&m1)
	t.check(bad == 0, "%d of %d handler hits were not cached hits with the warm bytes", bad, n)
	return us(total) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// warmHandler computes keys through srv's handler and returns the bytes.
func warmHandler(ctx context.Context, srv *serve.Server, keys []runReq, t *tally) [][]byte {
	out := make([][]byte, len(keys))
	for i, q := range keys {
		dw := &discardWriter{h: http.Header{}, status: http.StatusOK}
		srv.Handler().ServeHTTP(dw, runRequest(ctx, q))
		t.check(dw.status == http.StatusOK && checkRunBody(dw.body.Bytes(), q), "warm handler %v: status %d", q, dw.status)
		out[i] = dw.body.Bytes()
	}
	return out
}

// armStack installs pbld's default obs stack — tracer, continuous
// profiler, flight recorder and TSDB, as serve.Command does — and
// returns the function that removes it.
func armStack() (*tsdb.DB, func()) {
	tr := obs.NewTracer(obs.DefaultCapacity)
	obs.Install(tr)
	p := prof.New(prof.Config{Interval: 30 * time.Second, CPUDuration: time.Second, MutexFraction: 100, BlockRate: 1_000_000})
	p.Start()
	prof.Install(p)
	fr := flightrec.New(flightrec.Config{Window: 30 * time.Second})
	fr.Start()
	flightrec.Install(fr)
	db := tsdb.New(tsdb.Config{Interval: 5 * time.Second, Retention: time.Hour})
	db.Start()
	tsdb.Install(db)
	fr.AttachTSDB(db)
	return db, func() {
		tsdb.Install(nil)
		db.Stop()
		flightrec.Install(nil)
		fr.Stop()
		prof.Install(nil)
		p.Stop()
		obs.Install(nil)
		runtime.SetMutexProfileFraction(0)
		runtime.SetBlockProfileRate(0)
	}
}

// traceStack measures the cached-hit handler on a server with no obs
// stack and on one with pbld's full stack (plus its SLO engine and
// watchdog): serve.hit_self_us, serve.allocs_per_hit and
// obs.stack_overhead_us.
func traceStack(ctx context.Context, e *env, rep *report, t *tally) error {
	const n = 20000
	keys := hitKeySet(e.seed)[:stackKeys]
	bare := serve.New(serve.Config{Workers: e.workers, CacheEntries: memEntries, Registry: obs.NewRegistry()})
	want := warmHandler(ctx, bare, keys, t)
	bareUS, allocs := handlerLoop(ctx, bare, keys, want, n, t)
	bare.Close()

	db, disarm := armStack()
	defer disarm()
	armed := serve.New(serve.Config{Workers: e.workers, CacheEntries: memEntries, TSDB: db,
		SLOs: serve.DefaultSLOs(), SLOInterval: 15 * time.Second, WatchdogInterval: 10 * time.Second})
	defer armed.Close()
	warmHandler(ctx, armed, keys, t)
	armedUS, _ := handlerLoop(ctx, armed, keys, want, n, t)

	memHit := rep.all["cache.mem_hit_us"].Value
	rep.add("serve.hit_self_us", bareUS-memHit, "us")
	rep.add("serve.allocs_per_hit", allocs, "allocs")
	rep.add("obs.stack_overhead_us", armedUS-bareUS, "us")
	return nil
}
