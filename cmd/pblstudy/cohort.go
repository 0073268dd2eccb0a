package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"pblparallel/internal/cohort"
	"pblparallel/internal/cohort/mega"
	"pblparallel/internal/engine"
	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
)

// cmdCohort runs the mega-cohort scenario engine: a synthetic
// multi-institution, multi-semester population scaled by -students
// into the millions, swept over the formation-policy and
// assessment-variant axes and reduced through the streaming sketch
// stack — O(sketches) memory at any scale. With -workerset the sweep
// runs once per worker count, each pass on a dedicated work-stealing
// runtime, and asserts every pass serializes to byte-identical JSON
// (exit 1 on drift). -faults arms the batch-level fault site on every
// pass and adds one fault-free reference pass that each faulted pass
// must match byte for byte.
func cmdCohort(args []string) error {
	fs := flag.NewFlagSet("pblstudy cohort", flag.ExitOnError)
	students := fs.Int("students", 100_000, "total synthetic students across all scenario cells")
	seed := fs.Int64("seed", 42, "root seed of every per-student draw")
	institutions := fs.Int("institutions", 3, "institution replication axis")
	semesters := fs.Int("semesters", 2, "semester replication axis")
	policies := fs.String("policies", "", "comma-separated formation policies (empty = all: balanced,random,skill-based,self-selected)")
	assessments := fs.String("assessments", "", "comma-separated assessment variants (empty = all: survey,rubric,multi-modal)")
	batch := fs.Int("batch", 0, "reduction grain in students per chunk (0 auto-scales; part of the result's content identity)")
	workers := fs.Int("workers", 0, "engine worker pool size (0 = all CPUs)")
	workerset := fs.String("workerset", "", "comma-separated worker counts (e.g. 1,2,8): run once per count on dedicated runtimes and assert byte-identical output")
	faultP := fs.Float64("faults", 0, "per-batch probability of an injected fault (transient recompute + stall mix); 0 disarms")
	faultSeed := fs.Int64("fault-seed", 1, "seed of the fault-decision stream")
	asJSON := fs.Bool("json", false, "emit the result as JSON instead of the report")
	obsCLI := obs.BindFlags(fs)
	fs.Parse(args)

	cfg := mega.Config{
		Students:     *students,
		Institutions: *institutions,
		Semesters:    *semesters,
		Seed:         *seed,
		Batch:        *batch,
	}
	var err error
	if cfg.Policies, err = parseList(*policies, cohort.AllFormationPolicies(), cohort.ParseFormationPolicy); err != nil {
		return err
	}
	if cfg.Assessments, err = parseList(*assessments, cohort.AllAssessmentVariants(), cohort.ParseAssessmentVariant); err != nil {
		return err
	}
	counts, err := workerCounts(*workerset, *workers)
	if err != nil {
		return err
	}
	var plan *fault.Plan
	if *faultP > 0 {
		plan = &fault.Plan{Seed: *faultSeed, Rules: []fault.Rule{
			{Site: fault.SiteCohortBatch, Kind: fault.RunFail, Prob: *faultP},
			{Site: fault.SiteCohortBatch, Kind: fault.ThreadStall, Prob: *faultP, Max: 200e-6},
		}}
	}

	return withObs(obsCLI, func() error {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		run, err := runCohort(ctx, cfg, counts, plan)
		if err != nil {
			return err
		}
		for _, d := range run.drifts {
			fmt.Fprintf(os.Stderr, "cohort: DRIFT — workers=%d serialized differently than the clean reference at workers=%d\n",
				d.workers, counts[0])
		}
		if *asJSON {
			err = emitJSON(run.res)
		} else {
			renderCohort(run, counts)
		}
		if err == nil && len(run.drifts) > 0 {
			err = fmt.Errorf("cohort: %d pass(es) drifted", len(run.drifts))
		}
		return err
	})
}

// cohortRun is one checked mega-cohort invocation.
type cohortRun struct {
	res    *mega.Result    // the last pass's result
	inj    *fault.Injector // the last pass's injector; nil when faults are off
	passes int
	drifts []drift
}

// runCohort runs cfg through the invariance check: once per worker
// count, and with a fault plan, one fault-free reference pass plus one
// faulted pass per count. A single count without faults runs once.
func runCohort(ctx context.Context, cfg mega.Config, counts []int, plan *fault.Plan) (*cohortRun, error) {
	run := &cohortRun{}
	var err error
	run.drifts, err = checkInvariance(counts, plan != nil, func(p pass) ([][][]byte, error) {
		runCtx := ctx
		run.inj = nil
		if p.faults {
			// A fresh injector per pass: decisions are a pure function of
			// (plan seed, site, key), so every pass sees the same faults.
			inj, err := fault.New(*plan)
			if err != nil {
				return nil, err
			}
			run.inj, runCtx = inj, fault.NewContext(ctx, inj)
		}
		res, err := mega.Run(runCtx, engine.New(engine.WithWorkers(p.workers), engine.WithRuntime(p.rt)), cfg)
		if err != nil {
			return nil, fmt.Errorf("cohort sweep (workers=%d): %w", p.workers, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		run.res = res
		run.passes++
		return [][][]byte{{b}}, nil
	})
	return run, err
}

// renderCohort writes the text report: the run shape, the overall
// aggregate, and per-policy rows folded from the cell sketches with
// the same Merge the reduction itself uses.
func renderCohort(run *cohortRun, counts []int) {
	res := run.res
	fmt.Printf("mega-cohort: %d students over %d cells, %d batches of %d, seed %d [%.2fs @ %d workers]\n",
		res.Students, len(res.Cells), res.Batches, res.Batch, res.Seed,
		res.Elapsed.Seconds(), res.Workers)
	line := func(name string, s *mega.Summary) {
		fmt.Printf("  %-14s n=%-9d gain=%.3f  d=%.2f (%s)  r=%.3f\n",
			name, s.Students, s.GainMean, s.EffectD, s.EffectBand, s.PearsonR)
	}
	line("overall", &res.Overall)
	byPolicy := map[string]*mega.Summary{}
	var order []string
	for i := range res.Cells {
		c := &res.Cells[i]
		s, ok := byPolicy[c.Policy]
		if !ok {
			s = &mega.Summary{}
			byPolicy[c.Policy] = s
			order = append(order, c.Policy)
		}
		s.Merge(&c.Summary)
	}
	for _, p := range order {
		byPolicy[p].Finalize()
		line(p, byPolicy[p])
	}
	if run.inj != nil {
		st := run.inj.Stats()
		fmt.Printf("faults: injected=%d recovered=%d retries=%d — absorbed, output unchanged\n",
			st.Injected, st.Recovered, st.Retries)
	}
	if run.passes > 1 {
		verdict := "OK — byte-identical"
		if len(run.drifts) > 0 {
			verdict = "DRIFT"
		}
		fmt.Printf("result: %s across workers %v", verdict, counts)
		if run.inj != nil {
			fmt.Print(" against a fault-free reference")
		}
		fmt.Println()
	}
}
