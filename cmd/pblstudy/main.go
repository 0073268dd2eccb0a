// Command pblstudy runs the full reproduction of the paper's study.
//
// Usage:
//
//	pblstudy [run] [-seed N] [-students N] [-uncalibrated] [-json]
//	pblstudy sensitivity [-seeds N] [-start S] [-workers N] [-json] [-metrics]
//	pblstudy cohort [-students N] [-seed S] [-workerset 1,2,8] [-faults P] [-json]
//	pblstudy serve [-addr HOST:PORT] [-workers N] [-queue N]
//	pblstudy instrument
//	pblstudy spring2019 [-n N] [-seed S]
//
// With no arguments it behaves like `pblstudy run` with defaults: the
// Fig.-1 timeline, the survey instrument excerpt, Tables 1–6, and the
// paper-vs-measured comparison. The sensitivity sweep fans out over the
// parallel engine; its numbers are identical for any -workers value.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"pblparallel/internal/core"
	"pblparallel/internal/engine"
	"pblparallel/internal/obs"
	"pblparallel/internal/pbl"
	"pblparallel/internal/sensitivity"
	"pblparallel/internal/serve"
	"pblparallel/internal/survey"
	"pblparallel/internal/whatif"
)

// commands maps each subcommand to its runner; every runner returns
// its error to main, the only exit point.
var commands = map[string]func(args []string) error{
	"run":         cmdRun,
	"sensitivity": cmdSensitivity,
	"chaos":       cmdChaos,
	"cohort":      cmdCohort,
	"serve":       func(args []string) error { return serve.Command("pblstudy serve", args) },
	"instrument":  cmdInstrument,
	"spring2019":  cmdSpring2019,
}

func main() {
	name, args := "run", os.Args[1:]
	if len(args) > 0 {
		name, args = args[0], args[1:]
	}
	cmd, ok := commands[name]
	switch {
	case ok:
		if err := cmd(args); err != nil {
			// One machine-splittable key=value line through the structured
			// logger, so stdout stays parseable under -json.
			obs.Log().With("pblstudy").Error(context.Background(), "fatal", "err", err)
			os.Exit(1)
		}
	case name == "help" || name == "-h" || name == "-help" || name == "--help":
		usage(os.Stdout)
	default:
		obs.Log().With("pblstudy").Error(context.Background(),
			"unknown subcommand (the old -sensitivity/-instrument/-spring2019 flags are now subcommands)",
			"subcommand", name)
		usage(os.Stderr)
		os.Exit(2)
	}
}

// withObs activates the observability flags around fn and flushes the
// trace/metrics files afterwards, whether or not fn succeeded. A flush
// error is reported only when fn itself did not fail.
func withObs(c *obs.CLI, fn func() error) error {
	sess, err := c.Start()
	if err != nil {
		return err
	}
	err = fn()
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	return err
}

func usage(w *os.File) {
	fmt.Fprint(w, `usage: pblstudy <subcommand> [flags]

subcommands:
  run          full study: timeline, instrument excerpt, Tables 1-6,
               paper-vs-measured comparison (default when omitted)
  sensitivity  re-run the study across many seeds on the parallel
               engine and report statistic distributions
  chaos        re-run a seed sweep under deterministic fault injection
               and assert the statistics are byte-identical (-serve runs
               the sweep through the HTTP service instead)
  cohort       mega-cohort scenario engine: millions of synthetic
               students over formation-policy x assessment-variant
               cells, reduced through mergeable one-pass sketches
               (-workerset asserts byte-identical output per count)
  serve        run the study-as-a-service HTTP daemon (same server as
               cmd/pbld: /v1/run, /v1/sweep, /v1/cohort, /v1/spring2019,
               /metrics)
  instrument   print the full survey instrument (Fig. 2 for every element)
  spring2019   the planned Spring 2019 revision and its projected effect

run 'pblstudy <subcommand> -h' for the subcommand's flags
`)
}

// cmdRun executes one full study.
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("pblstudy run", flag.ExitOnError)
	seed := fs.Int64("seed", 0, "override the study seed (0 keeps the paper's)")
	students := fs.Int("students", 0, "override the cohort size (0 keeps the paper's 124; must be even and >= 10)")
	uncal := fs.Bool("uncalibrated", false, "use the uncalibrated response model (ablation)")
	asJSON := fs.Bool("json", false, "emit a machine-readable summary instead of the report")
	obsCLI := obs.BindFlags(fs)
	fs.Parse(args)

	return withObs(obsCLI, func() error {
		opts := []core.Option{core.WithCalibration(!*uncal)}
		if *seed != 0 {
			opts = append(opts, core.WithSeed(*seed))
		}
		if *students != 0 {
			opts = append(opts, core.WithCohortSize(*students))
		}
		// With a metrics sink requested, time the pipeline stages so the
		// exported exposition carries engine_stage_duration_seconds.
		if obsCLI.MetricsPath != "" || obsCLI.PprofAddr != "" {
			m := engine.NewMetrics()
			obs.Metrics().RegisterGatherer(m)
			opts = append(opts, core.WithStageObserver(m.ObserveStage))
		}
		study := core.NewStudy(opts...)
		outcome, err := study.Run(context.Background())
		if err != nil {
			return err
		}
		if *asJSON {
			cfg := study.Config()
			return emitJSON(serve.Summarize(cfg.Seed, cfg.Calibrate, outcome))
		}
		return outcome.Render(os.Stdout)
	})
}

// cmdSensitivity sweeps the study across seeds on the engine.
func cmdSensitivity(args []string) error {
	fs := flag.NewFlagSet("pblstudy sensitivity", flag.ExitOnError)
	seeds := fs.Int("seeds", 40, "number of seeds to sweep")
	start := fs.Int64("start", 20180800, "first seed of the sweep")
	workers := fs.Int("workers", 0, "engine worker pool size (0 = all CPUs)")
	asJSON := fs.Bool("json", false, "emit the distributions as JSON instead of the report")
	metrics := fs.Bool("metrics", false, "print engine metrics (per-stage histograms, throughput) to stderr after the sweep")
	obsCLI := obs.BindFlags(fs)
	fs.Parse(args)

	return withObs(obsCLI, func() error {
		opts := sensitivity.Options{Workers: *workers}
		if *metrics || obsCLI.MetricsPath != "" || obsCLI.PprofAddr != "" {
			opts.Metrics = engine.NewMetrics()
			obs.Metrics().RegisterGatherer(opts.Metrics)
		}
		// Ctrl-C cancels the sweep through the engine: in-flight runs stop
		// at their next stage boundary and the error reports the partial
		// completion count.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		r, err := sensitivity.RunSweep(ctx, *start, *seeds, opts)
		if err != nil {
			return err
		}
		if *asJSON {
			err = emitJSON(r)
		} else {
			_, err = fmt.Print(r.Render())
		}
		if err != nil || !*metrics {
			return err
		}
		// Diagnostics go to stderr: `pblstudy sensitivity -json -metrics`
		// keeps stdout pure JSON for piping into jq or a file.
		return opts.Metrics.Render(os.Stderr)
	})
}

// cmdInstrument prints the full Fig.-2 form.
func cmdInstrument(args []string) error {
	fs := flag.NewFlagSet("pblstudy instrument", flag.ExitOnError)
	fs.Parse(args)
	return survey.RenderInstrument(os.Stdout, survey.NewBeyerlein())
}

// cmdSpring2019 prints the revised module, what changed, and the
// projected effect of the teamwork reinforcement on the weakest
// correlation of Table 4.
func cmdSpring2019(args []string) error {
	fs := flag.NewFlagSet("pblstudy spring2019", flag.ExitOnError)
	n := fs.Int("n", 3000, "projection cohort size (large n stabilizes the projection)")
	seed := fs.Int64("seed", 42, "projection seed")
	obsCLI := obs.BindFlags(fs)
	fs.Parse(args)

	return withObs(obsCLI, func() error {
		fall := pbl.NewPaperModule()
		revised := pbl.NewSpring2019Module()
		if err := revised.RenderTimeline(os.Stdout); err != nil {
			return err
		}
		diff, err := pbl.Diff(fall, revised)
		if err != nil {
			return err
		}
		fmt.Printf("\nchanges vs Fall 2018: %d new assignment(s) %v, +%d questions, +%d materials\n\n",
			len(diff.AddedAssignments), diff.AddedAssignments,
			diff.AddedQuestionCount, diff.AddedMaterialCount)
		proj, err := whatif.Project(whatif.TeamworkReinforcement(), *n, *seed)
		if err != nil {
			return err
		}
		_, err = fmt.Print(proj.Render())
		return err
	})
}

func emitJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// parseList resolves a comma-separated list flag through parse; an
// empty flag selects all.
func parseList[T any](s string, all []T, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return all, nil
	}
	var out []T
	for _, tok := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(tok))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
