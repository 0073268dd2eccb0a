package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"pblparallel/internal/obs"
	"pblparallel/internal/obs/flightrec"
	"pblparallel/internal/obs/slo"
	"pblparallel/internal/obs/tsdb"
)

// newTSDBServer wires a Server and a TSDB onto one private registry —
// the daemon shape, but with the sampler driven by hand (SampleOnce)
// so the tests control exactly when history accrues.
func newTSDBServer(t testing.TB, cfg Config) (*Server, *tsdb.DB, *httptest.Server) {
	t.Helper()
	reg := obs.NewRegistry()
	db := tsdb.New(tsdb.Config{Registry: reg})
	cfg.Registry = reg
	cfg.TSDB = db
	s, ts := newTestServer(t, cfg)
	return s, db, ts
}

// TestDebugTSDBRateQuery is the tentpole acceptance path: real traffic
// lands in http_requests_total, the store samples it, and GET
// /debug/tsdb answers a rate() range query over the window.
func TestDebugTSDBRateQuery(t *testing.T) {
	_, db, ts := newTSDBServer(t, Config{Workers: 1})

	t0 := time.Now().Add(-time.Second) // backdated: samples must land inside [now-range, now]
	if r, _ := get(t, ts, ts.URL+"/healthz"); r.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", r.StatusCode)
	}
	db.SampleOnce(t0)
	for i := 0; i < 3; i++ {
		get(t, ts, ts.URL+"/healthz")
	}
	db.SampleOnce(t0.Add(2 * time.Millisecond))

	resp, body := get(t, ts, ts.URL+"/debug/tsdb?series=http_requests_total&range=5m&fn=rate")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range query status %d: %s", resp.StatusCode, body)
	}
	var out tsdbResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("range query response not JSON: %v", err)
	}
	if out.Fn != "rate" || out.Series != "http_requests_total" {
		t.Fatalf("response echoes fn=%q series=%q", out.Fn, out.Series)
	}
	found := false
	for _, sd := range out.Results {
		if !strings.Contains(sd.Series, `route="/healthz"`) {
			continue
		}
		found = true
		if len(sd.Samples) != 2 {
			t.Fatalf("healthz series carries %d samples, want 2", len(sd.Samples))
		}
		if sd.Value == nil || *sd.Value <= 0 {
			t.Fatalf("healthz rate = %v, want > 0", sd.Value)
		}
		// 3 requests across a 2ms observed span: 1500/s.
		if got := *sd.Value; got != 1500 {
			t.Fatalf("healthz rate = %g req/s, want 1500", got)
		}
	}
	if !found {
		t.Fatalf("no /healthz series in results: %s", body)
	}

	// Without ?series= the endpoint lists the store's contents.
	resp, body = get(t, ts, ts.URL+"/debug/tsdb")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status %d: %s", resp.StatusCode, body)
	}
	var index struct {
		IntervalMS  int64    `json:"interval_ms"`
		RetentionMS int64    `json:"retention_ms"`
		Series      []string `json:"series"`
	}
	if err := json.Unmarshal(body, &index); err != nil {
		t.Fatalf("index not JSON: %v", err)
	}
	if index.IntervalMS != 5000 || index.RetentionMS != 3_600_000 {
		t.Fatalf("index cadence %dms/%dms, want defaults 5000/3600000", index.IntervalMS, index.RetentionMS)
	}
	if len(index.Series) == 0 {
		t.Fatal("index lists no series after sampling")
	}

	// Malformed parameters answer 400, not 500.
	if r, _ := get(t, ts, ts.URL+"/debug/tsdb?series=x&range=bogus"); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad range status %d, want 400", r.StatusCode)
	}
	if r, _ := get(t, ts, ts.URL+"/debug/tsdb?series=x&fn=bogus"); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad fn status %d, want 400", r.StatusCode)
	}
	for _, q := range []string{"7", "NaN"} {
		if r, _ := get(t, ts, ts.URL+"/debug/tsdb?series=x&fn=quantile&q="+q); r.StatusCode != http.StatusBadRequest {
			t.Fatalf("quantile q=%s status %d, want 400", q, r.StatusCode)
		}
	}
}

// TestDebugTSDBQuantile: the latency histogram answers
// quantile-over-time with a value inside the observed bucket range.
func TestDebugTSDBQuantile(t *testing.T) {
	_, db, ts := newTSDBServer(t, Config{Workers: 1})
	t0 := time.Now().Add(-time.Second) // backdated: samples must land inside [now-range, now]
	db.SampleOnce(t0)
	for i := 0; i < 8; i++ {
		get(t, ts, ts.URL+"/healthz")
	}
	db.SampleOnce(t0.Add(2 * time.Millisecond))

	resp, body := get(t, ts,
		ts.URL+"/debug/tsdb?series=http_request_duration_seconds&fn=quantile&q=0.5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quantile status %d: %s", resp.StatusCode, body)
	}
	var out tsdbResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("quantile response not JSON: %v", err)
	}
	found := false
	for _, sd := range out.Results {
		if !strings.Contains(sd.Series, `route="/healthz"`) {
			continue
		}
		found = true
		if sd.Value == nil || *sd.Value < 0 || *sd.Value > 10 {
			t.Fatalf("healthz p50 = %v, want a finite latency", sd.Value)
		}
	}
	if !found {
		t.Fatalf("no /healthz quantile in results: %s", body)
	}
}

// TestDebugTSDBDisabled: without an attached store the endpoint says
// so instead of pretending.
func TestDebugTSDBDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if r, _ := get(t, ts, ts.URL+"/debug/tsdb"); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", r.StatusCode)
	}
	if r, _ := get(t, ts, ts.URL+"/debug/slo"); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("slo status %d, want 503", r.StatusCode)
	}
}

// TestDebugSLOEndpoint: an armed engine reports every objective's burn
// windows and budget over HTTP.
func TestDebugSLOEndpoint(t *testing.T) {
	_, db, ts := newTSDBServer(t, Config{
		Workers:     1,
		SLOs:        DefaultSLOs(),
		SLOInterval: time.Hour, // background cadence out of the way; the handler evaluates on demand
	})
	t0 := time.Now().Add(-time.Second) // backdated: samples must land inside [now-range, now]
	get(t, ts, ts.URL+"/healthz")
	db.SampleOnce(t0)
	get(t, ts, ts.URL+"/healthz")
	db.SampleOnce(t0.Add(2 * time.Millisecond))

	resp, body := get(t, ts, ts.URL+"/debug/slo")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slo status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Objectives []slo.Status `json:"objectives"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("slo response not JSON: %v", err)
	}
	if len(out.Objectives) != 2 {
		t.Fatalf("%d objectives, want the 2 defaults", len(out.Objectives))
	}
	for _, st := range out.Objectives {
		if len(st.Windows) != 2 {
			t.Fatalf("objective %s has %d window pairs, want 2", st.Objective.Name, len(st.Windows))
		}
		for _, w := range st.Windows {
			if w.Firing {
				t.Fatalf("objective %s window %s firing on healthy traffic", st.Objective.Name, w.Name)
			}
		}
		if st.BudgetRemaining != 1 {
			t.Fatalf("objective %s budget %g, want 1 (no errors observed)", st.Objective.Name, st.BudgetRemaining)
		}
	}
}

// TestForcedBurnTripEmbedsTSDBWindow closes the tentpole loop: forced
// 5xx traffic burns the availability budget, the rising-edge trip
// triggers a flight-recorder postmortem, and the bundle embeds the
// TSDB window around the incident.
func TestForcedBurnTripEmbedsTSDBWindow(t *testing.T) {
	rec := flightrec.New(flightrec.Config{Registry: obs.NewRegistry(), MinGap: time.Nanosecond})
	flightrec.Install(rec)
	defer flightrec.Install(nil)

	s, db, ts := newTSDBServer(t, Config{
		Workers: 1,
		SLOs:    []slo.Objective{{Name: "availability", Kind: "availability", Target: 0.999}},
		// One tight pair so a tiny test window can trip it: both spans
		// cover the sampled history, threshold 1x.
		SLOWindows:  []slo.WindowRule{{Name: "test", Short: time.Minute, Long: time.Minute, Threshold: 1}},
		SLOInterval: time.Hour,
	})
	rec.AttachTSDB(db)

	// Force one 504 (the Request-Timeout bound expires before any
	// compute finishes) so the error series exists, sample the
	// pre-incident state, then burn hard and sample again: the window
	// now shows the error counter jumping. Increase needs two samples
	// per series — a counter first seen mid-window contributes nothing.
	force504 := func(seed int) {
		resp, _ := post(t, ts, "/v1/run", `{"seed": `+strconv.Itoa(seed)+`}`,
			map[string]string{"Request-Timeout": "0.000001"})
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("forced request status %d, want 504", resp.StatusCode)
		}
	}
	t0 := time.Now().Add(-time.Second) // backdated: samples must land inside [now-range, now]
	get(t, ts, ts.URL+"/healthz")
	force504(99)
	db.SampleOnce(t0)
	for seed := 1; seed <= 4; seed++ {
		force504(seed)
	}
	db.SampleOnce(t0.Add(2 * time.Millisecond))

	statuses := s.sloEval.EvalNow()
	if len(statuses) != 1 {
		t.Fatalf("%d statuses, want 1", len(statuses))
	}
	if w := statuses[0].Windows[0]; !w.Firing {
		t.Fatalf("availability window not firing after forced 504s: short %gx long %gx", w.ShortBurn, w.LongBurn)
	}

	raw := rec.LastBundle()
	if raw == nil {
		t.Fatal("burn-rate trip did not trigger a flight-recorder bundle")
	}
	var b flightrec.Bundle
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("postmortem bundle not valid JSON: %v", err)
	}
	if !strings.HasPrefix(b.Reason, "slo-burn:availability:test") {
		t.Fatalf("bundle reason %q, want slo-burn:availability:test*", b.Reason)
	}
	if len(b.TSDB) == 0 {
		t.Fatal("postmortem bundle embeds no TSDB window")
	}
	var sawErrors bool
	for _, sd := range b.TSDB {
		if strings.HasPrefix(sd.Series, "http_requests_total") && strings.Contains(sd.Series, `code="504"`) {
			sawErrors = true
			if len(sd.Samples) == 0 {
				t.Fatal("embedded 504 series carries no samples")
			}
		}
	}
	if !sawErrors {
		t.Fatal("embedded TSDB window is missing the offending 504 series")
	}

	// A second evaluation over the same still-burning window must not
	// re-trip (rising edge only): the last bundle stays the trip's.
	before := string(raw)
	s.sloEval.EvalNow()
	if after := rec.LastBundle(); string(after) != before {
		t.Fatal("steady burn re-tripped; trips must be rising-edge only")
	}
}
