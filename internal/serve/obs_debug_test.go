package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
	"pblparallel/internal/obs/flightrec"
	"pblparallel/internal/obs/prof"
	"pblparallel/internal/sched"
)

// getHdr fetches ts.URL+path with extra headers (get in trace_test.go
// covers the headerless case) and returns the response and body.
func getHdr(t testing.TB, ts *httptest.Server, path string, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestDebugSchedSnapshot checks GET /debug/sched returns a well-formed
// scheduler introspection snapshot after real work went through the
// pool.
func TestDebugSchedSnapshot(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	post(t, ts, "/v1/run", `{"seed": 1}`, nil)
	// A worker counts its job completed only after the job has handed
	// the response over. Draining the pool waits for the workers to
	// exit, so the snapshot below cannot race that increment.
	s.Close()

	resp, body := get(t, ts, ts.URL+"/debug/sched")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var snap sched.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	if snap.Workers < 1 {
		t.Errorf("workers = %d, want >= 1", snap.Workers)
	}
	if len(snap.PerWorker) != snap.Workers {
		t.Errorf("per_worker has %d entries, want %d", len(snap.PerWorker), snap.Workers)
	}
	if snap.External.ID != -1 {
		t.Errorf("external participant ID = %d, want -1", snap.External.ID)
	}
	if snap.Completed < 1 {
		t.Errorf("completed = %d after a run, want >= 1", snap.Completed)
	}
}

// TestDebugSchedConcurrentHammer reads /debug/sched from 8 goroutines
// while the scheduler churns under real sweeps; the race detector is
// the assertion.
func TestDebugSchedConcurrentHammer(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			post(t, ts, "/v1/sweep", fmt.Sprintf(`{"start": %d, "seeds": 3}`, i*10), nil)
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, body := get(t, ts, ts.URL+"/debug/sched")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
				var snap sched.Snapshot
				if err := json.Unmarshal(body, &snap); err != nil {
					t.Errorf("unmarshal: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// expositionLine matches one sample line of the Prometheus/OpenMetrics
// text formats, with an optional OpenMetrics exemplar clause.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? ` +
		`(-?[0-9.e+-]+|\+Inf|NaN)( [0-9.e+-]+)?( # \{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"\} (-?[0-9.e+-]+|\+Inf)( [0-9.]+)?)?$`)

// checkExposition validates every line of a metrics exposition against
// the shared sample grammar and returns the full text.
func checkExposition(t *testing.T, body []byte, openMetrics bool) string {
	t.Helper()
	text := string(body)
	sawEOF := false
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "# EOF" {
			sawEOF = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("bad exposition line: %q", line)
		}
		if !openMetrics && strings.Contains(line, " # {") {
			t.Errorf("Prometheus format leaked an exemplar: %q", line)
		}
	}
	if openMetrics != sawEOF {
		t.Errorf("openMetrics=%v but sawEOF=%v", openMetrics, sawEOF)
	}
	return text
}

// TestMetricsContentNegotiation drives real traffic, then checks both
// /metrics formats: classic Prometheus by default, OpenMetrics with
// exemplars (bucket → trace links) when the scraper asks, and the
// queue-wait histogram attributed per route in both.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	post(t, ts, "/v1/run", `{"seed": 1}`, nil)
	post(t, ts, "/v1/sweep", `{"start": 1, "seeds": 3}`, nil)

	resp, body := get(t, ts, ts.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Errorf("default content type %q", ct)
	}
	text := checkExposition(t, body, false)
	if !strings.Contains(text, `serve_queue_wait_seconds_bucket{route="/v1/run"`) {
		t.Error("Prometheus exposition missing per-route queue-wait buckets")
	}
	if !strings.Contains(text, `serve_queue_wait_seconds_count{route="/v1/sweep"} 1`) {
		t.Error("queue-wait count for /v1/sweep missing or not 1")
	}

	resp, body = getHdr(t, ts, "/metrics", map[string]string{"Accept": obs.OpenMetricsContentType})
	if ct := resp.Header.Get("Content-Type"); ct != obs.OpenMetricsContentType {
		t.Errorf("negotiated content type %q", ct)
	}
	text = checkExposition(t, body, true)
	// Every request carries a minted trace ID, so the duration and
	// queue-wait histograms must expose at least one exemplar linking a
	// bucket to a trace.
	if !strings.Contains(text, ` # {trace_id="`) {
		t.Error("OpenMetrics exposition has no exemplars")
	}
	for _, fam := range []string{"http_request_duration_seconds_bucket", "serve_queue_wait_seconds_bucket"} {
		found := false
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, fam) && strings.Contains(line, ` # {trace_id="`) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s has no exemplared bucket", fam)
		}
	}
	if !strings.Contains(text, "sched_worker_grain_claims_total") {
		t.Error("scheduler gatherer families missing from exposition")
	}
}

// TestForced5xxBundleShipsProfile is the tentpole integration test: a
// forced 5xx (injected slow backend under a tight Request-Timeout)
// must trigger a flight-recorder postmortem whose bundle embeds
// capturable pprof profiles, fetchable via /debug/flightrec?last=1.
func TestForced5xxBundleShipsProfile(t *testing.T) {
	p := prof.New(prof.Config{Capacity: 16, Registry: obs.NewRegistry()})
	prof.Install(p)
	defer prof.Install(nil)
	rec := flightrec.New(flightrec.Config{Registry: obs.NewRegistry(), MinGap: time.Nanosecond})
	flightrec.Install(rec)
	defer flightrec.Install(nil)

	inj, err := fault.New(ServiceFaultPlan(7, FaultProbs{BackendSlow: 1})) // every backend slowed
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 2, Injector: inj})

	resp, body := post(t, ts, "/v1/run", `{"seed": 42}`,
		map[string]string{"Request-Timeout": "0.001"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}

	resp, body = get(t, ts, ts.URL+"/debug/flightrec?last=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch last bundle: status %d: %s", resp.StatusCode, body)
	}
	var b flightrec.Bundle
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatalf("bundle unmarshal: %v", err)
	}
	if !strings.HasPrefix(b.Reason, "http-504-") {
		t.Errorf("bundle reason %q, want http-504-*", b.Reason)
	}
	if len(b.Profiles) == 0 {
		t.Fatal("postmortem bundle ships no profiles")
	}
	for _, pr := range b.Profiles {
		zr, err := gzip.NewReader(bytes.NewReader(pr.Data))
		if err != nil {
			t.Fatalf("%s: profile data is not gzip: %v", pr.Kind, err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("%s: decompress: %v", pr.Kind, err)
		}
		if len(raw) == 0 {
			t.Fatalf("%s: empty profile", pr.Kind)
		}
	}
}

// TestDebugProfRoutes covers the profiling-ring endpoint: 503 while
// disabled, a JSON index when installed, and per-snapshot .pb.gz
// downloads by sequence number.
func TestDebugProfRoutes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, _ := get(t, ts, ts.URL+"/debug/prof")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("disabled status %d, want 503", resp.StatusCode)
	}

	p := prof.New(prof.Config{Capacity: 16, Registry: obs.NewRegistry()})
	prof.Install(p)
	defer prof.Install(nil)
	p.CaptureTrigger("route-test")

	resp, body := get(t, ts, ts.URL+"/debug/prof")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status %d: %s", resp.StatusCode, body)
	}
	var index struct {
		Captures  int64 `json:"captures_total"`
		Snapshots []struct {
			Seq   uint64 `json:"seq"`
			Kind  string `json:"kind"`
			Bytes int    `json:"bytes"`
		} `json:"snapshots"`
	}
	if err := json.Unmarshal(body, &index); err != nil {
		t.Fatalf("index unmarshal: %v", err)
	}
	if len(index.Snapshots) == 0 || index.Captures == 0 {
		t.Fatalf("empty index after a capture: %s", body)
	}

	first := index.Snapshots[0]
	resp, data := get(t, ts, fmt.Sprintf("%s/debug/prof?seq=%d", ts.URL, first.Seq))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("download status %d", resp.StatusCode)
	}
	if len(data) != first.Bytes {
		t.Errorf("downloaded %d bytes, index said %d", len(data), first.Bytes)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Error("downloaded snapshot is not gzip")
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, first.Kind) {
		t.Errorf("Content-Disposition %q does not name the kind", cd)
	}

	if resp, _ := get(t, ts, ts.URL+"/debug/prof?seq=abc"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed seq status %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, ts, ts.URL+"/debug/prof?seq=999999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing seq status %d, want 404", resp.StatusCode)
	}
}
