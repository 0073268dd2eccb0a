package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
	"pblparallel/internal/obs/flightrec"
	"pblparallel/internal/obs/prof"
	"pblparallel/internal/obs/tsdb"
	"pblparallel/internal/serve"
	"pblparallel/internal/store"
)

// serveChaos asserts the service-layer chaos contract. The seed sweep
// is issued as /v1/run requests: once against a clean in-process daemon
// at the first worker count, the one baseline, and then twice per count
// against daemons with the full fault mix armed (service sites + runtime
// sites). Every response must be byte-identical to the baseline. It
// returns one report per count.
//
// Under -restart the two faulted passes are a kill and restart: each
// runs on its own daemon over the same cache directory. Pass 1
// populates the persistent tier through the fault mix; stopping the
// server is the "kill" (graceful drain flushes the write-behind queue,
// exactly what SIGTERM does to pbld); pass 2's fresh daemon has a cold
// memory cache, so its responses come from verified disk reads —
// healed by recompute wherever store.corrupt fired. Without -restart
// both passes run on one daemon (cache hits, corruption heals).
func serveChaos(f *chaosFlags, counts []int) ([]serveChaosJSON, error) {
	var (
		rec *flightrec.Recorder
		p   *prof.Profiler
	)
	if f.flightrec {
		// Tracing, the flight recorder and the continuous profiler run
		// across the whole invocation, so the byte-invariance assertion
		// also proves that recording, CPU sampling, heap snapshots and
		// mutex/block sampling never change response bytes — and a drift
		// postmortem ships real profiles.
		if obs.Default() == nil {
			obs.Install(obs.NewTracer(obs.DefaultCapacity))
			defer obs.Install(nil)
		}
		rec = flightrec.New(flightrec.Config{Dir: f.flightrecDir, Window: 5 * time.Minute})
		flightrec.Install(rec)
		defer flightrec.Install(nil)
		p = prof.New(prof.Config{
			Interval:      2 * time.Second,
			CPUDuration:   500 * time.Millisecond,
			MutexFraction: 100,
			BlockRate:     1_000_000,
		})
		p.Start()
		prof.Install(p)
		defer func() {
			prof.Install(nil)
			p.Stop()
		}()
	}

	var (
		reports  []serveChaosJSON
		baseline int      // the clean server's worker count
		lastTSDB *tsdb.DB // the last server's history, for failure artifacts
	)
	drifts, err := checkInvariance(counts, true, func(ps pass) ([][][]byte, error) {
		// Each daemon schedules on its own pool's runtime; ps.rt is unused.
		cfg := serve.Config{Workers: ps.workers, Queue: f.seeds, Retries: f.retries}
		if !ps.faults {
			baseline = ps.workers
			sweeps, _, _, err := sweepServer(cfg, f, 1)
			if err != nil {
				return nil, fmt.Errorf("baseline serve sweep: %w", err)
			}
			return sweeps, nil
		}

		plan := serve.ServiceFaultPlan(f.faultSeed, serve.FaultProbs{
			QueueFull: f.qfull, BackendSlow: f.slowreq, CacheCorrupt: f.corrupt,
			StoreCorrupt: f.storeCorrupt, StoreRead: f.storeRead, StoreWrite: f.storeWrite,
		})
		plan.Rules = append(plan.Rules, f.runtimeRules()...)
		inj, err := fault.New(plan)
		if err != nil {
			return nil, err
		}
		cfg.Injector = inj
		var (
			sweeps [][][]byte
			stats  [2]serve.Stats
		)
		if !f.restart {
			sweeps, stats[1], lastTSDB, err = sweepServer(cfg, f, 2)
		} else {
			dir := f.cacheDir
			if dir == "" {
				if dir, err = os.MkdirTemp("", "pblchaos-store-"); err != nil {
					return nil, err
				}
				defer os.RemoveAll(dir)
			}
			for i := 0; i < len(stats) && err == nil; i++ {
				if cfg.DiskStore, err = store.Open(dir, store.Options{Injector: inj, Registry: obs.NewRegistry()}); err == nil {
					var s [][][]byte
					s, stats[i], lastTSDB, err = sweepServer(cfg, f, 1)
					sweeps = append(sweeps, s...)
					// A drained server has closed its store already; this
					// covers a server that never started. Close is idempotent.
					cfg.DiskStore.Close()
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("chaos serve sweep (workers=%d): %w", ps.workers, err)
		}
		reports = append(reports, serveChaosJSON{
			Seeds:     f.seeds,
			Start:     f.start,
			Workers:   ps.workers,
			Baseline:  baseline,
			Retries:   f.retries,
			FaultSeed: f.faultSeed,
			Restart:   f.restart,
			Plan: map[string]float64{
				"qfull": f.qfull, "slowreq": f.slowreq, "corrupt": f.corrupt,
				"store_corrupt": f.storeCorrupt, "store_read": f.storeRead, "store_write": f.storeWrite,
			},
			Faults:           inj.Stats(),
			Shed:             stats[0].Shed + stats[1].Shed,
			CacheHits:        stats[0].Cache.Hits + stats[1].Cache.Hits,
			CacheMisses:      stats[0].Cache.Misses + stats[1].Cache.Misses,
			CacheCoalesced:   stats[0].Cache.Coalesced + stats[1].Cache.Coalesced,
			CorruptionHealed: stats[0].Cache.CorruptRecovered + stats[1].Cache.CorruptRecovered,
			StorePuts:        stats[0].Store.Puts + stats[1].Store.Puts,
			StoreHealed:      stats[0].Store.CorruptionsHealed + stats[1].Store.CorruptionsHealed,
			StoreReadErrors:  stats[0].Store.ReadErrors + stats[1].Store.ReadErrors,
			StoreWriteErrors: stats[0].Store.WriteErrors + stats[1].Store.WriteErrors,
			RestartDiskHits:  stats[1].Store.DiskHits,
		})
		return sweeps, nil
	})
	if err != nil {
		return nil, err
	}

	failed := false
	for i := range reports {
		r := &reports[i]
		r.DriftedSeeds = seedsAt(drifts, r.Workers, f.start)
		r.Identical = len(r.DriftedSeeds) == 0
		r.OK = serveVerdict(r.Identical, r.Restart, r.RestartDiskHits)
		failed = failed || !r.OK
	}
	if failed {
		// The black box earns its keep: capture the sweep's last window
		// so CI can attach exactly what the service saw at drift time.
		// The last faulted server's TSDB was detached when it drained;
		// reattach it so the bundle embeds that server's history.
		log := obs.Log().With("pblstudy chaos")
		rec.AttachTSDB(lastTSDB)
		if path := rec.Trigger("chaos-serve-drift", obs.TraceID{}); path != "" {
			log.Error(context.Background(), "sweep drifted; flight recorder postmortem written", "path", path)
		}
		// The continuous-profiling ring and the last faulted server's
		// metrics history (the window /debug/tsdb would have served) land
		// next to the bundles, ready for `go tool pprof`.
		if f.flightrecDir != "" {
			if n, err := p.DumpRing(f.flightrecDir); err == nil && n > 0 {
				log.Error(context.Background(), "continuous-profiling ring dumped", "dir", f.flightrecDir, "snapshots", n)
			}
			if lastTSDB != nil {
				if path, err := dumpTSDBSnapshot(lastTSDB, f.flightrecDir); err == nil {
					log.Error(context.Background(), "tsdb snapshot dumped", "path", path)
				}
			}
		}
	}
	return reports, nil
}

// serveVerdict is the chaos -serve pass rule. Byte identity alone is
// not the whole restart contract: the restarted pass must actually
// have been served from the reopened disk tier, or the phase proved
// nothing about persistence.
func serveVerdict(identical, restart bool, restartDiskHits int64) bool {
	return identical && (!restart || restartDiskHits > 0)
}

// dumpTSDBSnapshot writes the store's entire retained history as a
// JSON array of series dumps into dir, returning the path.
func dumpTSDBSnapshot(db *tsdb.DB, dir string) (string, error) {
	dump := db.DumpWindow(0, time.Now().UnixMilli())
	b, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return "", err
	}
	path := dir + "/tsdb-snapshot.json"
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// serveChaosJSON is the machine-readable service-chaos report.
type serveChaosJSON struct {
	Seeds            int                 `json:"seeds"`
	Start            int64               `json:"start"`
	Workers          int                 `json:"workers"`
	Baseline         int                 `json:"baseline_workers"`
	Retries          int                 `json:"retries"`
	FaultSeed        int64               `json:"fault_seed"`
	Restart          bool                `json:"restart"`
	Plan             map[string]float64  `json:"service_plan"`
	Faults           fault.StatsSnapshot `json:"faults"`
	Shed             int64               `json:"shed_429"`
	CacheHits        int64               `json:"cache_hits"`
	CacheMisses      int64               `json:"cache_misses"`
	CacheCoalesced   int64               `json:"cache_coalesced"`
	CorruptionHealed int64               `json:"cache_corruption_healed"`
	StorePuts        int64               `json:"store_puts,omitempty"`
	StoreHealed      int64               `json:"store_corruptions_healed,omitempty"`
	StoreReadErrors  int64               `json:"store_read_errors,omitempty"`
	StoreWriteErrors int64               `json:"store_write_errors,omitempty"`
	RestartDiskHits  int64               `json:"restart_disk_hits,omitempty"`
	DriftedSeeds     []int64             `json:"drifted_seeds,omitempty"`
	Identical        bool                `json:"identical"`
	OK               bool                `json:"ok"`
}

func (r serveChaosJSON) passed() bool { return r.OK }

func (r serveChaosJSON) render() {
	fmt.Printf("serve chaos sweep: %d seeds from %d over /v1/run, workers=%d, retry budget=%d, fault seed=%d\n",
		r.Seeds, r.Start, r.Workers, r.Retries, r.FaultSeed)
	fmt.Printf("service plan: qfull=%.3g slowreq=%.3g corrupt=%.3g store_corrupt=%.3g store_read=%.3g store_write=%.3g (+ runtime mix)\n",
		r.Plan["qfull"], r.Plan["slowreq"], r.Plan["corrupt"],
		r.Plan["store_corrupt"], r.Plan["store_read"], r.Plan["store_write"])
	renderFaults(r.Faults, "retries")
	fmt.Printf("service: shed(429)=%d cache hits=%d misses=%d coalesced=%d corruption healed=%d\n",
		r.Shed, r.CacheHits, r.CacheMisses, r.CacheCoalesced, r.CorruptionHealed)
	if r.Restart {
		fmt.Printf("store: puts=%d corruptions healed=%d read errs=%d write errs=%d; restarted pass disk hits=%d\n",
			r.StorePuts, r.StoreHealed, r.StoreReadErrors, r.StoreWriteErrors, r.RestartDiskHits)
	}
	switch {
	case r.OK && r.Restart:
		fmt.Printf("result: OK — every response byte-identical to the clean server at workers=%d, including the pass served from the restarted daemon's disk tier\n", r.Baseline)
	case r.OK:
		fmt.Printf("result: OK — every response byte-identical to the clean server at workers=%d, both passes\n", r.Baseline)
	case r.Identical:
		fmt.Printf("result: FAIL — bytes identical but the restarted pass recorded %d disk hits; persistence not exercised\n", r.RestartDiskHits)
	default:
		fmt.Printf("result: DRIFT — %d seed(s) diverged: %v\n", len(r.DriftedSeeds), r.DriftedSeeds)
	}
}

// sweepServer runs one ephemeral in-process daemon on a loopback port,
// issues the seed sweep n times, and drains it. It returns each
// sweep's bodies, the server's ledger, and its metrics history. Shed
// responses are retried only when cfg arms an injector; a clean
// server must never shed. Each server gets a private metrics registry:
// one invocation spins up several servers, and sharing the process
// registry would merge their ledgers.
//
// Every server runs with the full judgment layer armed — a
// fast-cadence TSDB sampling its registry, the default SLOs over it,
// and the runtime watchdog — so the byte-invariance assertion also
// proves that history sampling, burn-rate evaluation, and anomaly
// checks never change response bytes. The TSDB attaches to the active
// flight recorder while the server runs: any postmortem the sweep
// triggers embeds the metrics window.
func sweepServer(cfg serve.Config, f *chaosFlags, n int) ([][][]byte, serve.Stats, *tsdb.DB, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, serve.Stats{}, nil, err
	}
	cfg.Registry = obs.NewRegistry()
	db := tsdb.New(tsdb.Config{Registry: cfg.Registry, Interval: 250 * time.Millisecond})
	db.Start()
	defer db.Stop()
	flightrec.Active().AttachTSDB(db)
	defer flightrec.Active().AttachTSDB(nil)
	cfg.TSDB = db
	cfg.SLOs = serve.DefaultSLOs()
	cfg.SLOInterval = 250 * time.Millisecond
	cfg.WatchdogInterval = 250 * time.Millisecond
	srv := serve.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, ln)
	}()
	defer func() {
		cancel()
		<-done
	}()
	sweeps := make([][][]byte, n)
	for i := range sweeps {
		if sweeps[i], err = sweepOverHTTP("http://"+ln.Addr().String(), f.start, f.seeds, cfg.Injector != nil); err != nil {
			return nil, serve.Stats{}, db, err
		}
	}
	return sweeps, srv.Stats(), db, nil
}

// sweepOverHTTP issues one /v1/run request per seed from 8 concurrent
// client goroutines, collecting the bodies in seed order. When retry429
// is set, a shed response is retried after a short backoff — the
// client-side half of the queue-full recovery loop.
func sweepOverHTTP(base string, start int64, seeds int, retry429 bool) ([][]byte, error) {
	bodies := make([][]byte, seeds)
	errs := make([]error, seeds)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 2 * time.Minute}
			for i := next.Add(1) - 1; i < int64(seeds); i = next.Add(1) - 1 {
				bodies[i], errs[i] = runRequest(client, base, start+i, retry429)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", start+int64(i), err)
		}
	}
	return bodies, nil
}

// runRequest POSTs one /v1/run, retrying shed responses when asked.
func runRequest(client *http.Client, base string, seed int64, retry429 bool) ([]byte, error) {
	payload := fmt.Sprintf(`{"seed": %d}`, seed)
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(base+"/v1/run", "application/json", bytes.NewReader([]byte(payload)))
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK {
			return body, nil
		}
		if retry429 && resp.StatusCode == http.StatusTooManyRequests && attempt < 100 {
			// The advertised Retry-After is sized for real load; the
			// chaos sweep's sheds are injected, so a token backoff is
			// enough to land on a fresh admission decision.
			time.Sleep(2 * time.Millisecond)
			continue
		}
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
}
