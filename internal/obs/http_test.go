package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHTTPMetricsMiddleware(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, nil)

	ok := m.Middleware("/v1/run", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(2 * time.Millisecond)
		w.Write([]byte("ok")) // implicit 200
	}))
	shed := m.Middleware("/v1/run", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		ok.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/run", nil))
		if rec.Code != 200 {
			t.Fatalf("status = %d", rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	shed.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/run", nil))
	if rec.Code != 429 {
		t.Fatalf("status = %d", rec.Code)
	}

	if got := m.InFlight(); got != 0 {
		t.Fatalf("in-flight after completion = %d, want 0", got)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	for _, want := range []string{
		`http_requests_total{route="/v1/run",code="200"} 3`,
		`http_requests_total{route="/v1/run",code="429"} 1`,
		`http_request_duration_seconds_count{route="/v1/run"} 4`,
		"http_in_flight_requests 0",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q:\n%s", want, expo)
		}
	}

	if q := m.Quantile("/v1/run", 0.5); q <= 0 {
		t.Errorf("median latency = %v, want > 0", q)
	}
	if q := m.Quantile("/missing", 0.5); q != 0 {
		t.Errorf("unknown route quantile = %v, want 0", q)
	}
}

func TestHTTPMetricsInFlightDuringRequest(t *testing.T) {
	m := NewHTTPMetrics(NewRegistry(), nil)
	entered := make(chan struct{})
	release := make(chan struct{})
	h := m.Middleware("/slow", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
	}))
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/slow", nil))
		close(done)
	}()
	<-entered
	if got := m.InFlight(); got != 1 {
		t.Fatalf("in-flight during request = %d, want 1", got)
	}
	close(release)
	<-done
	if got := m.InFlight(); got != 0 {
		t.Fatalf("in-flight after request = %d, want 0", got)
	}
}

// TestHTTPQuantileZeroIsMinimum: q=0 reads the route's observed
// minimum, not NaN.
func TestHTTPQuantileZeroIsMinimum(t *testing.T) {
	m := NewHTTPMetrics(NewRegistry(), nil)
	h := m.durations.With("/r")
	for i := 0; i < 3; i++ {
		m.record("/r", h, http.StatusOK, 0.003, TraceID{})
	}
	if got := m.Quantile("/r", 0); got != 0.003 {
		t.Errorf("Quantile(route, 0) = %v, want the observed minimum 0.003", got)
	}
}

// TestHTTPRecordAllocs: recording a request for a route and code the
// middleware has already seen allocates nothing — it runs on every
// cached hit.
func TestHTTPRecordAllocs(t *testing.T) {
	m := NewHTTPMetrics(NewRegistry(), nil)
	h := m.durations.With("/v1/run")
	trace := NewTraceID()
	m.record("/v1/run", h, http.StatusOK, 0.002, trace)
	if n := testing.AllocsPerRun(1000, func() {
		m.record("/v1/run", h, http.StatusOK, 0.002, trace)
	}); n != 0 {
		t.Fatalf("record allocates %v per call, want 0", n)
	}
}
