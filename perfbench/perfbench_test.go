package main

import (
	"context"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestInputsRepeatPerSeed(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		if a, b := poissonSchedule(seed, hitRate, time.Second), poissonSchedule(seed, hitRate, time.Second); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: schedules differ", seed)
		}
		if a, b := zipfRanks(seed, streamOpenKeys, 1000), zipfRanks(seed, streamOpenKeys, 1000); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: key sequences differ", seed)
		}
		if a, b := hitKeySet(seed), hitKeySet(seed); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: working sets differ", seed)
		}
		if a, b := warmOrder(seed), warmOrder(seed); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: warm orders differ", seed)
		}
		a, b := newMissStream(seed, 10), newMissStream(seed, 10)
		for i := 0; i < 100; i++ {
			if qa, qb := a.take(), b.take(); qa != qb {
				t.Fatalf("seed %d: miss stream request %d differs: %v vs %v", seed, i, qa, qb)
			}
		}
	}
	if reflect.DeepEqual(zipfRanks(1, streamOpenKeys, 1000), zipfRanks(2, streamOpenKeys, 1000)) {
		t.Error("seeds 1 and 2 drew the same key sequence")
	}
}

func TestInputShapes(t *testing.T) {
	due := poissonSchedule(7, hitRate, 10*time.Second)
	if n := len(due); n < 19000 || n > 21000 {
		t.Errorf("10s at %d/s offered %d requests", hitRate, n)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatalf("schedule not sorted at %d", i)
		}
	}
	seen := map[runReq]bool{}
	sizes := map[int]int{}
	for _, q := range hitKeySet(7) {
		if seen[q] || q.Seed == 0 {
			t.Fatalf("working-set key %v repeated or the paper default", q)
		}
		seen[q] = true
		sizes[q.Students]++
	}
	if len(seen) != hitKeys || sizes[124] < sizes[248] || sizes[248] < sizes[496] || sizes[496] == 0 {
		t.Errorf("working set: %d keys, size mix %v", len(seen), sizes)
	}
	hot := 0
	for _, r := range zipfRanks(7, streamOpenKeys, 10000) {
		if r < 0 || r >= hitKeys {
			t.Fatalf("rank %d outside the working set", r)
		}
		if r < memEntries {
			hot++
		}
	}
	if hot < 6000 {
		t.Errorf("only %d of 10000 draws fall in the memory tier's worth of hot keys", hot)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(ten, 0.9); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("p90 of 1..10 = %v, want 9.1", got)
	}
	if percentile(nil, 0.5) != 0 || percentile([]float64{7}, 0.99) != 7 {
		t.Error("degenerate inputs")
	}
}

func TestOpenLoopAccounting(t *testing.T) {
	ms := time.Millisecond
	// Four requests due every 10ms; the third is sent 5ms late and
	// takes 2ms; the rest are on time and take 1ms.
	ss := []sample{
		{due: 0, sent: 0, done: 1 * ms},
		{due: 10 * ms, sent: 10 * ms, done: 11 * ms},
		{due: 20 * ms, sent: 25 * ms, done: 27 * ms},
		{due: 30 * ms, sent: 30 * ms, done: 31 * ms},
	}
	if got := ss[2].latency(); got != 7*ms {
		t.Errorf("latency from due = %v, want 7ms (5ms late + 2ms service)", got)
	}
	st := summarizeOpen(ss)
	if st.n != 4 {
		t.Errorf("n=%d", st.n)
	}
	if st.p50 != 1*ms {
		t.Errorf("p50 = %v, want 1ms", st.p50)
	}
	if st.lateP50 != 0 || st.lateP99 <= 4*ms || st.lateP99 > 5*ms {
		t.Errorf("lateness p50=%v p99=%v", st.lateP50, st.lateP99)
	}
	if math.Abs(st.offered-100) > 1e-9 || math.Abs(st.achieved-3/0.031) > 1e-9 {
		t.Errorf("offered %v achieved %v", st.offered, st.achieved)
	}

	// A live loop whose requests take longer than the gap falls
	// behind: lateness grows and achieved < offered.
	due := make([]time.Duration, 20)
	for i := range due {
		due[i] = time.Duration(i) * ms
	}
	got := summarizeOpen(openLoop(due, 1, func(int) { time.Sleep(3 * ms) }))
	if got.n != 20 || got.lateP99 < 20*ms || got.achievedOverOffered > 0.5 || got.p50 < got.lateP50 {
		t.Errorf("overloaded loop: n=%d late p99=%v achieved/offered=%.2f p50=%v", got.n, got.lateP99, got.achievedOverOffered, got.p50)
	}
	// A loop with headroom keeps up and sends close to on time.
	for i := range due {
		due[i] = time.Duration(i) * 5 * ms
	}
	got = summarizeOpen(openLoop(due, 2, func(int) {}))
	if got.achievedOverOffered < 0.95 || got.lateP50 > ms {
		t.Errorf("idle loop: achieved/offered=%.3f late p50=%v", got.achievedOverOffered, got.lateP50)
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100] with children [10,30] and [20,50] (overlapping, one
	// grandchild [25,28]) and [90,120] (half outside the root).
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},
		{ID: 3, Parent: 2, Name: "c", Start: 25, End: 28},
		{ID: 4, Parent: 0, Name: "d", Start: 90, End: 120},
	}
	want := map[int]time.Duration{0: 100 - 40 - 10, 1: 20, 2: 30 - 3, 3: 3, 4: 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestLedger(t *testing.T) {
	spans := []span{
		// live: a 100 round trip around a 70 handler
		{ID: 0, Parent: -1, Workload: "w", Req: 1, Name: rootHTTP, Start: 0, End: 100},
		{ID: 1, Parent: 0, Workload: "w", Req: 1, Name: spanServe, Start: 20, End: 90},
		// replay: 10 + 40 of layers under a 60 root (10 of glue)
		{ID: 2, Parent: -1, Workload: "w", Req: 1, Name: rootReplay, Start: 200, End: 260},
		{ID: 3, Parent: 2, Workload: "w", Req: 1, Name: "cache.get", Start: 200, End: 210},
		{ID: 4, Parent: 2, Workload: "w", Req: 1, Name: "store.get", Start: 220, End: 260},
		// off the request's path
		{ID: 5, Parent: -1, Workload: "w", Req: 1, Name: "store.put", Start: 270, End: 370},
	}
	row := ledger(spans)["w"]
	want := ledgerRow{requests: 1, total: 100, layers: 30 + 10 + 40, unattributed: 20}
	if row != want {
		t.Errorf("ledger %+v, want %+v", row, want)
	}
}

// TestSmoke runs every workload end to end for one second against a
// pbld built from the module above, then the traced run, and requires
// every check to pass and every metric to be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pbld and starts daemons")
	}
	dir := t.TempDir()
	pbld := filepath.Join(dir, "pbld")
	build := exec.Command("go", "build", "-o", pbld, "./cmd/pbld")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pbld: %v\n%s", err, out)
	}
	golden, err := os.ReadFile(filepath.Join("..", "testdata", "golden", "run_paper_seed.json"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			e := &env{pbld: pbld, work: t.TempDir(), workers: runtime.NumCPU(), golden: golden, seed: 5, seconds: time.Second}
			rep, tl := newReport(), &tally{}
			if err := runE2E(ctx, e, workloads[name](), rep, tl); err != nil {
				t.Fatal(err)
			}
			checkRun(t, rep, tl, endToEnd)
		})
	}
	t.Run("traced", func(t *testing.T) {
		e := &env{work: filepath.Join(t.TempDir(), "work"), workers: runtime.NumCPU(), golden: golden, seed: 5, seconds: time.Second}
		if err := os.MkdirAll(e.work, 0o755); err != nil {
			t.Fatal(err)
		}
		rep, tl := newReport(), &tally{}
		if err := runTraced(ctx, e, rep, tl); err != nil {
			t.Fatal(err)
		}
		checkRun(t, rep, tl, perLayer)
	})
}

func checkRun(t *testing.T, rep *report, tl *tally, names []string) {
	t.Helper()
	if tl.attempted.Load() == 0 || tl.failed.Load() != 0 {
		t.Errorf("fail ratio %d/%d: %v", tl.failed.Load(), tl.attempted.Load(), tl.reasons)
	}
	for _, n := range names {
		m, ok := rep.all[n]
		if !ok {
			t.Errorf("metric %s not reported", n)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", n, m.Value)
		}
	}
}
