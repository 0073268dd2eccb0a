// Command perfbench is the repository benchmark. It drives a live pbld
// (built from the checkout) with one seeded workload and prints every
// metric by name and unit, then one JSON result line:
//
//	perfbench --workload hit-zipf|run-miss|sweep|cohort --seed N --seconds S --trace 0|1 \
//	          -pbld PATH [-work DIR]
//
// --trace 0 is the timed end-to-end run; --trace 1 is the separate
// in-process traced replay that produces the per-layer ledger. run.sh
// builds pbld and this command and runs it; README.md lists the
// workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"pblparallel/internal/core"
	"pblparallel/internal/serve"
)

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	correct, err := mainErr()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// mainErr runs the benchmark and reports whether every check passed;
// an error means no result could be measured.
func mainErr() (bool, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: hit-zipf, run-miss, sweep or cohort")
	seed := fs.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = in-process traced run (per-layer metrics), 0 = timed end-to-end run")
	pbld := fs.String("pbld", "", "pbld binary (end-to-end runs)")
	work := fs.String("work", filepath.Join(".bench_build", "perfbench", "work"), "scratch directory for cache tiers")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return false, err
	}
	newW, ok := workloads[*name]
	if !ok {
		return false, fmt.Errorf("unknown workload %q (want hit-zipf, run-miss, sweep or cohort)", *name)
	}
	if *seconds < 1 {
		return false, fmt.Errorf("--seconds %d: want >= 1", *seconds)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "run_paper_seed.json"))
	if err != nil {
		return false, fmt.Errorf("golden file (run from the checkout root): %w", err)
	}
	dir, err := filepath.Abs(filepath.Join(*work, strconv.Itoa(os.Getpid())))
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	e := &env{pbld: *pbld, work: dir, workers: runtime.NumCPU(), golden: golden,
		seed: *seed, seconds: time.Duration(*seconds) * time.Second}

	ctx := context.Background()
	rep := newReport()
	t := &tally{}
	var keys []string
	if *trace == 1 {
		if err := runTraced(ctx, e, rep, t); err != nil {
			return false, err
		}
		keys = perLayer
	} else {
		if e.pbld == "" {
			return false, fmt.Errorf("-pbld is required for an end-to-end run")
		}
		if err := runE2E(ctx, e, newW(), rep, t); err != nil {
			return false, err
		}
		keys = endToEnd
	}

	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d workers=%d\n", *name, *seed, *seconds, *trace, e.workers)
	for _, n := range rep.names {
		m := rep.all[n]
		fmt.Printf("%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, r := range t.reasons {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", r)
	}
	res := result{Attempted: t.attempted.Load(), Failed: t.failed.Load(), Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Printf("fail_ratio %d/%d\n", res.Failed, res.Attempted)
	for _, k := range keys {
		m, ok := rep.all[k]
		if !ok {
			return false, fmt.Errorf("internal: metric %s not measured", k)
		}
		res.Metrics[k] = m
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// computeRun computes a /v1/run response in this process: the study,
// then the summary encoded exactly as pbld encodes it.
func computeRun(ctx context.Context, q runReq) ([]byte, error) {
	out, err := core.NewStudy(core.WithSeed(q.Seed), core.WithCohortSize(q.Students)).Run(ctx)
	if err != nil {
		return nil, err
	}
	return encodeSummary(q.Seed, out)
}

// encodeSummary is pbld's /v1/run encoding: the summary, indented, with
// a trailing newline.
func encodeSummary(seed int64, o *core.Outcome) ([]byte, error) {
	b, err := json.MarshalIndent(serve.Summarize(seed, true, o), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
