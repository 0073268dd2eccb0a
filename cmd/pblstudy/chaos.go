package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"pblparallel/internal/core"
	"pblparallel/internal/engine"
	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
	"pblparallel/internal/serve"
)

// chaosFlags is the `pblstudy chaos` flag set. The flags write straight
// into it, and both sweep modes read it.
type chaosFlags struct {
	seeds, workers, retries int
	start, faultSeed        int64
	workerset               string
	// The runtime fault mix, armed in both modes.
	drop, dup, delay, stall, panicP, slow, runfail float64
	// -serve: the service-layer and persistent-tier mix, and the
	// kill-and-restart and flight-recorder phases.
	serve                                                        bool
	qfull, slowreq, corrupt, storeCorrupt, storeRead, storeWrite float64
	restart, flightrec                                           bool
	cacheDir, flightrecDir                                       string
	asJSON                                                       bool
	obs                                                          *obs.CLI
}

func parseChaosFlags(args []string) *chaosFlags {
	f := &chaosFlags{}
	fs := flag.NewFlagSet("pblstudy chaos", flag.ExitOnError)
	fs.IntVar(&f.seeds, "seeds", 200, "number of study seeds to sweep")
	fs.Int64Var(&f.start, "start", 20180800, "first seed of the sweep")
	fs.IntVar(&f.workers, "workers", 0, "engine worker pool size (0 = all CPUs)")
	fs.StringVar(&f.workerset, "workerset", "", "comma-separated worker counts (e.g. 1,2,8): run the chaos pass once per count, each on a dedicated work-stealing runtime, all against one baseline; empty = a single pass at -workers")
	fs.Float64Var(&f.drop, "drop", 0.2, "probability an MPI message is dropped on the wire (recovered by reliable delivery)")
	fs.Float64Var(&f.dup, "dup", 0.05, "probability an MPI message is duplicated (deduplicated by sequence numbers)")
	fs.Float64Var(&f.delay, "delay", 0.05, "probability an MPI message is delayed before delivery")
	fs.Float64Var(&f.stall, "stall", 0.05, "probability an omp thread stalls at a barrier or chunk claim")
	fs.Float64Var(&f.panicP, "panic", 0.005, "probability an omp thread panics at a barrier (transient; retried)")
	fs.Float64Var(&f.slow, "slow", 0.25, "probability a simulated Pi core runs slowed (virtual time only)")
	fs.Float64Var(&f.runfail, "runfail", 0.005, "probability an engine run fails transiently before executing")
	fs.IntVar(&f.retries, "retries", 3, "engine retry budget for transient failures")
	fs.Int64Var(&f.faultSeed, "fault-seed", 1, "seed of the fault-decision stream")
	fs.BoolVar(&f.serve, "serve", false, "sweep through the HTTP service instead of the engine: responses must stay byte-identical under the service-layer fault mix")
	fs.Float64Var(&f.qfull, "qfull", 0.05, "-serve: probability a request is shed at admission as if the queue were full (client retries)")
	fs.Float64Var(&f.slowreq, "slowreq", 0.1, "-serve: probability a computation is delayed (latency only)")
	fs.Float64Var(&f.corrupt, "corrupt", 0.2, "-serve: probability a cache read sees corrupted bytes (healed by recompute)")
	fs.Float64Var(&f.storeCorrupt, "store-corrupt", 0.1, "-serve -restart: probability a persistent-tier read sees corrupted bytes (healed by delete + recompute)")
	fs.Float64Var(&f.storeRead, "store-read", 0.05, "-serve -restart: probability a persistent-tier read fails (degrades to a miss)")
	fs.Float64Var(&f.storeWrite, "store-write", 0.05, "-serve -restart: probability a persistent-tier write fails (entry not persisted)")
	fs.BoolVar(&f.restart, "restart", true, "-serve: run the second pass against a freshly restarted daemon whose memory cache is cold, so it must be served from the persistent tier")
	fs.StringVar(&f.cacheDir, "cache-dir", "", "-serve -restart: persistent tier directory shared across the restart (empty = a fresh temp dir)")
	fs.BoolVar(&f.flightrec, "flightrec", true, "-serve: run tracing + the flight recorder through the sweep, asserting recording never changes response bytes")
	fs.StringVar(&f.flightrecDir, "flightrec-dir", "", "-serve: write triggered postmortem bundles to this directory (CI uploads them when the sweep fails)")
	fs.BoolVar(&f.asJSON, "json", false, "emit the chaos report as JSON instead of text")
	f.obs = obs.BindFlags(fs)
	fs.Parse(args)
	return f
}

// runtimeRules is the runtime fault mix: it fires inside studies and is
// absorbed by the runtime that injected it or by the engine's retries.
func (f *chaosFlags) runtimeRules() []fault.Rule {
	return []fault.Rule{
		{Site: fault.SiteMPISend, Kind: fault.MsgDrop, Prob: f.drop},
		{Site: fault.SiteMPISend, Kind: fault.MsgDup, Prob: f.dup},
		{Site: fault.SiteMPISend, Kind: fault.MsgDelay, Prob: f.delay, Max: 200e-6},
		{Site: fault.SiteOMPBarrier, Kind: fault.ThreadPanic, Prob: f.panicP},
		{Site: fault.SiteOMPBarrier, Kind: fault.ThreadStall, Prob: f.stall, Max: 200e-6},
		{Site: fault.SiteOMPFor, Kind: fault.ThreadStall, Prob: f.stall, Max: 200e-6},
		{Site: fault.SitePisimCore, Kind: fault.CoreSlow, Prob: f.slow},
		{Site: fault.SiteEngineRun, Kind: fault.RunFail, Prob: f.runfail},
	}
}

// cmdChaos runs the same seed sweep clean and under a deterministic
// fault-injection plan with the engine's retry layer armed, and asserts
// that every run's machine-readable summary is byte-identical. That is
// the repo's resilience contract: recoverable faults (message drops
// under reliable delivery, duplicates, delays, thread stalls, core
// slowdowns) are absorbed inside the runtime that injected them, and
// transient failures (injected panics, run failures) are retried to
// success, so chaos never changes what the study computes.
func cmdChaos(args []string) error {
	f := parseChaosFlags(args)
	counts, err := workerCounts(f.workerset, f.workers)
	if err != nil {
		return err
	}
	return withObs(f.obs, func() error {
		if f.serve {
			reports, err := serveChaos(f, counts)
			return emitReports(f.asJSON, reports, err)
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		reports, err := engineChaos(ctx, f, counts)
		return emitReports(f.asJSON, reports, err)
	})
}

// A chaosReport is one worker count's verdict in either sweep mode.
type chaosReport interface {
	passed() bool
	render()
}

// emitReports writes each report as JSON or text. It fails when the
// check itself failed (err) or any worker count failed the check.
func emitReports[R chaosReport](asJSON bool, reports []R, err error) error {
	if err != nil {
		return err
	}
	failed := 0
	for i, r := range reports {
		if asJSON {
			if err := emitJSON(r); err != nil {
				return err
			}
		} else {
			if i > 0 {
				fmt.Println()
			}
			r.render()
		}
		if !r.passed() {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("chaos: %d of %d worker count(s) failed the invariance check", failed, len(reports))
	}
	return nil
}

// engineChaos sweeps the seeds on the engine: one clean baseline at
// the first worker count, then one faulted pass per count with the
// retry layer armed. It returns one report per faulted pass.
func engineChaos(ctx context.Context, f *chaosFlags, counts []int) ([]chaosJSON, error) {
	plan := fault.Plan{Seed: f.faultSeed, Rules: f.runtimeRules()}
	cfg := core.PaperStudy()
	stream := engine.SequentialSeeds(f.start)
	var reports []chaosJSON
	drifts, err := checkInvariance(counts, true, func(p pass) ([][][]byte, error) {
		opts := []engine.Option{engine.WithWorkers(p.workers), engine.WithRuntime(p.rt)}
		runCtx, what := ctx, "baseline sweep"
		var (
			inj     *fault.Injector
			metrics *engine.Metrics
		)
		if p.faults {
			// A fresh injector per pass: fault decisions are a pure
			// function of (plan seed, site, key), so every pass sees the
			// same injections, and the per-pass ledger stays readable.
			var err error
			if inj, err = fault.New(plan); err != nil {
				return nil, err
			}
			metrics = engine.NewMetrics()
			if len(reports) == 0 {
				obs.Metrics().RegisterGatherer(metrics)
			}
			opts = append(opts, engine.WithMetrics(metrics), engine.WithRetry(f.retries, 100*time.Microsecond))
			runCtx, what = fault.NewContext(ctx, inj), "chaos sweep"
		}
		res, err := engine.New(opts...).Sweep(runCtx, cfg, stream, f.seeds)
		if err == nil && !p.faults {
			err = res.FirstErr()
		}
		if err != nil {
			return nil, fmt.Errorf("%s (workers=%d): %w", what, p.workers, err)
		}
		// A run that failed after its retries keeps a nil summary, which
		// the comparison reports as drift.
		out := make([][]byte, f.seeds)
		report := chaosJSON{
			Seeds: f.seeds, Start: f.start, Workers: res.Workers,
			Retries: f.retries, FaultSeed: f.faultSeed,
			Plan: map[string]float64{
				"drop": f.drop, "dup": f.dup, "delay": f.delay, "stall": f.stall,
				"panic": f.panicP, "slow": f.slow, "runfail": f.runfail,
			},
		}
		for _, r := range res.Runs {
			report.AttemptsTotal += r.Attempts
			if r.Err != nil {
				report.FailedRuns++
				continue
			}
			if out[r.Index], err = json.Marshal(serve.Summarize(r.Seed, cfg.Calibrate, r.Outcome)); err != nil {
				return nil, err
			}
		}
		if p.faults {
			report.Faults = inj.Stats()
			report.RunsRetried = metrics.Snapshot().Retried
			reports = append(reports, report)
		}
		return [][][]byte{out}, nil
	})
	if err != nil {
		return nil, err
	}
	for i := range reports {
		reports[i].DriftedSeeds = seedsAt(drifts, reports[i].Workers, f.start)
		reports[i].Identical = len(reports[i].DriftedSeeds) == 0
	}
	return reports, nil
}

// chaosJSON is the machine-readable chaos report.
type chaosJSON struct {
	Seeds         int                 `json:"seeds"`
	Start         int64               `json:"start"`
	Workers       int                 `json:"workers"`
	Retries       int                 `json:"retries"`
	FaultSeed     int64               `json:"fault_seed"`
	Plan          map[string]float64  `json:"plan"`
	Faults        fault.StatsSnapshot `json:"faults"`
	RunsRetried   int64               `json:"runs_retried"`
	AttemptsTotal int                 `json:"attempts_total"`
	FailedRuns    int                 `json:"failed_runs"`
	DriftedSeeds  []int64             `json:"drifted_seeds,omitempty"`
	Identical     bool                `json:"identical"`
}

func (r chaosJSON) passed() bool { return r.Identical }

func (r chaosJSON) render() {
	fmt.Printf("chaos sweep: %d seeds from %d, workers=%d, retry budget=%d, fault seed=%d\n",
		r.Seeds, r.Start, r.Workers, r.Retries, r.FaultSeed)
	fmt.Printf("plan: drop=%.3g dup=%.3g delay=%.3g stall=%.3g panic=%.3g slow=%.3g runfail=%.3g\n",
		r.Plan["drop"], r.Plan["dup"], r.Plan["delay"], r.Plan["stall"],
		r.Plan["panic"], r.Plan["slow"], r.Plan["runfail"])
	renderFaults(r.Faults, "delivery/run retries")
	fmt.Printf("runs: %d attempts for %d seeds, %d engine retries, %d failed after retry\n",
		r.AttemptsTotal, r.Seeds, r.RunsRetried, r.FailedRuns)
	if r.Identical {
		fmt.Println("result: OK — study statistics byte-identical under injected faults")
	} else {
		fmt.Printf("result: DRIFT — %d seed(s) diverged or failed: %v\n", len(r.DriftedSeeds), r.DriftedSeeds)
	}
}

// renderFaults writes the injector ledger line both chaos reports share.
func renderFaults(s fault.StatsSnapshot, retries string) {
	fmt.Printf("faults: injected=%d", s.Injected)
	if len(s.ByKind) > 0 {
		b, _ := json.Marshal(s.ByKind)
		fmt.Printf(" %s", b)
	}
	fmt.Printf(" recovered=%d %s=%d\n", s.Recovered, retries, s.Retries)
}
