package main

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"pblparallel/internal/cohort"
	"pblparallel/internal/cohort/mega"
	"pblparallel/internal/fault"
)

// sweepOf builds one producer sweep of n outputs, "out-<i>" each.
func sweepOf(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("out-%d", i))
	}
	return out
}

// TestCheckInvariancePasses pins which passes a check runs: one clean
// reference at the first count, then every count faulted when faults
// are armed, otherwise every count after the first.
func TestCheckInvariancePasses(t *testing.T) {
	for _, tc := range []struct {
		counts []int
		faults bool
		want   []pass
	}{
		{[]int{4}, false, []pass{{workers: 4}}},
		{[]int{1, 2, 8}, false, []pass{{workers: 1}, {workers: 2}, {workers: 8}}},
		{[]int{4}, true, []pass{{workers: 4}, {workers: 4, faults: true}}},
		{[]int{1, 2, 8}, true, []pass{{workers: 1}, {workers: 1, faults: true}, {workers: 2, faults: true}, {workers: 8, faults: true}}},
	} {
		var got []pass
		drifts, err := checkInvariance(tc.counts, tc.faults, func(p pass) ([][][]byte, error) {
			if p.rt == nil || p.rt.Workers() != p.workers {
				t.Errorf("pass %+v: want a dedicated runtime with %d workers", p, p.workers)
			}
			got = append(got, pass{workers: p.workers, faults: p.faults})
			return [][][]byte{sweepOf(3)}, nil
		})
		if err != nil || len(drifts) != 0 {
			t.Fatalf("counts %v faults %t: drifts %v, err %v", tc.counts, tc.faults, drifts, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("counts %v faults %t: passes %+v, want %+v", tc.counts, tc.faults, got, tc.want)
		}
	}
}

// TestCheckInvarianceReportsDrift feeds the comparison a pass that
// differs at one index for one worker count, in the second of its two
// sweeps (the restarted pass of chaos -serve): exactly that
// (workers, index) must come back, and only that count's report fails.
func TestCheckInvarianceReportsDrift(t *testing.T) {
	const seeds = 6
	drifts, err := checkInvariance([]int{1, 2, 8}, true, func(p pass) ([][][]byte, error) {
		if !p.faults {
			return [][][]byte{sweepOf(seeds)}, nil
		}
		second := sweepOf(seeds)
		if p.workers == 2 {
			second[4] = []byte("drifted")
		}
		return [][][]byte{sweepOf(seeds), second}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []drift{{workers: 2, index: 4}}; !reflect.DeepEqual(drifts, want) {
		t.Fatalf("drifts %+v, want %+v", drifts, want)
	}
	if got := seedsAt(drifts, 2, 100); !reflect.DeepEqual(got, []int64{104}) {
		t.Errorf("seedsAt(2) = %v, want [104]", got)
	}
	if got := seedsAt(drifts, 8, 100); got != nil {
		t.Errorf("seedsAt(8) = %v, want none", got)
	}
}

// TestCheckInvarianceFaultedAgainstClean is the case a faulted-only
// comparison cannot see: a fault that changes bytes changes them the
// same way at every worker count. Checked against the clean reference,
// every faulted pass drifts; a short or failed sweep drifts too.
func TestCheckInvarianceFaultedAgainstClean(t *testing.T) {
	drifts, err := checkInvariance([]int{1, 2}, true, func(p pass) ([][][]byte, error) {
		if p.faults {
			return [][][]byte{{[]byte(`{"gain":0.5}`)}}, nil
		}
		return [][][]byte{{[]byte(`{"gain":0.4}`)}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []drift{{workers: 1}, {workers: 2}}; !reflect.DeepEqual(drifts, want) {
		t.Fatalf("drifts %+v, want %+v", drifts, want)
	}

	drifts, err = checkInvariance([]int{1}, true, func(p pass) ([][][]byte, error) {
		s := sweepOf(3)
		if p.faults {
			s[1] = nil // a run that failed after its retries
		}
		return [][][]byte{s, sweepOf(2)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []drift{{workers: 1, index: 0}, {workers: 1, index: 1}, {workers: 1, index: 2}}; !reflect.DeepEqual(drifts, want) {
		t.Fatalf("short sweep: drifts %+v, want %+v", drifts, want)
	}
}

func TestWorkerCounts(t *testing.T) {
	for _, tc := range []struct {
		set     string
		workers int
		want    []int
	}{
		{"", 3, []int{3}},
		{"", 0, []int{runtime.NumCPU()}},
		{"1, 2,8", 3, []int{1, 2, 8}},
	} {
		got, err := workerCounts(tc.set, tc.workers)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("workerCounts(%q, %d) = %v, %v; want %v", tc.set, tc.workers, got, err, tc.want)
		}
	}
	for _, bad := range []string{"0", "1,x", "1,,2"} {
		if _, err := workerCounts(bad, 0); err == nil {
			t.Errorf("workerCounts(%q) accepted", bad)
		}
	}
}

// TestEngineChaosSmall runs the engine chaos sweep end to end on a few
// seeds: every faulted pass must match the clean baseline while faults
// actually fired.
func TestEngineChaosSmall(t *testing.T) {
	f := parseChaosFlags([]string{"-seeds", "3", "-workerset", "1,2"})
	counts, err := workerCounts(f.workerset, f.workers)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := engineChaos(context.Background(), f, counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("%d reports, want one per worker count", len(reports))
	}
	for i, r := range reports {
		if r.Workers != counts[i] || !r.Identical || r.FailedRuns != 0 {
			t.Errorf("workers=%d: identical=%t failed=%d drifted=%v", r.Workers, r.Identical, r.FailedRuns, r.DriftedSeeds)
		}
		if r.Faults.Injected == 0 {
			t.Errorf("workers=%d: no faults injected; the sweep proved nothing", r.Workers)
		}
	}
}

// TestServeChaosSmall runs chaos -serve with the restart phase and the
// flight recorder on a few seeds: one report per count, every count
// checked against the one clean baseline built at the first count,
// every response byte-identical to it, and the restarted pass served
// from disk.
func TestServeChaosSmall(t *testing.T) {
	f := parseChaosFlags([]string{"-serve", "-seeds", "4", "-workerset", "1,2", "-flightrec-dir", t.TempDir()})
	counts, err := workerCounts(f.workerset, f.workers)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := serveChaos(f, counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("%d reports, want one per worker count", len(reports))
	}
	for i, r := range reports {
		if r.Baseline != counts[0] {
			t.Errorf("workers=%d: checked against a baseline at workers=%d, want the one at %d", r.Workers, r.Baseline, counts[0])
		}
		if r.Workers != counts[i] || !r.OK {
			t.Errorf("workers=%d: ok=%t identical=%t drifted=%v disk hits=%d",
				r.Workers, r.OK, r.Identical, r.DriftedSeeds, r.RestartDiskHits)
		}
		if r.RestartDiskHits == 0 || r.Faults.Injected == 0 {
			t.Errorf("workers=%d: restart disk hits=%d, faults injected=%d; want both > 0",
				r.Workers, r.RestartDiskHits, r.Faults.Injected)
		}
	}
}

// TestServeChaosFailureCapture makes every persistent-tier read fail,
// so the restarted pass serves nothing from disk: the count must fail,
// and the flight-recorder bundle, the profiling ring and the TSDB
// snapshot must land in -flightrec-dir.
func TestServeChaosFailureCapture(t *testing.T) {
	dir := t.TempDir()
	f := parseChaosFlags([]string{"-serve", "-seeds", "2", "-workerset", "1", "-store-read", "1", "-flightrec-dir", dir})
	reports, err := serveChaos(f, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].OK || !reports[0].Identical || reports[0].RestartDiskHits != 0 {
		t.Fatalf("reports %+v: want one identical but failed count with 0 restart disk hits", reports)
	}
	for _, pattern := range []string{"flightrec-*-chaos-serve-drift.json", "prof-*.pb.gz", "tsdb-snapshot.json"} {
		if m, _ := filepath.Glob(filepath.Join(dir, pattern)); len(m) == 0 {
			t.Errorf("no %s in the flight-recorder directory", pattern)
		}
	}
}

func TestServeVerdict(t *testing.T) {
	for _, tc := range []struct {
		identical, restart bool
		diskHits           int64
		want               bool
	}{
		{true, true, 5, true},
		{true, true, 0, false}, // identical, but persistence never exercised
		{false, true, 5, false},
		{true, false, 0, true},
		{false, false, 0, false},
	} {
		if got := serveVerdict(tc.identical, tc.restart, tc.diskHits); got != tc.want {
			t.Errorf("serveVerdict(identical=%t, restart=%t, diskHits=%d) = %t, want %t",
				tc.identical, tc.restart, tc.diskHits, got, tc.want)
		}
	}
}

// TestRunCohort checks the cohort producer's pass shapes on a small
// population: a plain run runs once, a worker set once per count, and
// a faulted worker set adds one clean reference that every faulted
// pass matches.
func TestRunCohort(t *testing.T) {
	cfg := mega.Config{
		Students: 20000, Institutions: 3, Semesters: 2, Seed: 42,
		Policies:    cohort.AllFormationPolicies(),
		Assessments: cohort.AllAssessmentVariants(),
	}
	plan := &fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Site: fault.SiteCohortBatch, Kind: fault.RunFail, Prob: 0.3},
		{Site: fault.SiteCohortBatch, Kind: fault.ThreadStall, Prob: 0.3, Max: 200e-6},
	}}
	for _, tc := range []struct {
		counts []int
		plan   *fault.Plan
		passes int
	}{
		{[]int{2}, nil, 1},
		{[]int{1, 2}, nil, 2},
		{[]int{1, 2}, plan, 3},
	} {
		run, err := runCohort(context.Background(), cfg, tc.counts, tc.plan)
		if err != nil {
			t.Fatal(err)
		}
		if run.passes != tc.passes || len(run.drifts) != 0 {
			t.Errorf("counts %v faults %t: %d passes, drifts %+v; want %d passes, none",
				tc.counts, tc.plan != nil, run.passes, run.drifts, tc.passes)
		}
		if tc.plan != nil && run.inj.Stats().Injected == 0 {
			t.Errorf("counts %v: no faults injected", tc.counts)
		}
	}
}
