package obs

import (
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// httpBounds are the route latency bucket upper bounds (seconds): the
// shared ladder from 1ms to 10s — wide enough for a cache hit (µs–ms)
// and a cold 124-student study run.
var httpBounds = LatencyBuckets[3:]

// routeCode keys the request counters.
type routeCode struct {
	route string
	code  int
}

// HTTPMetrics instruments HTTP handlers: per-route latency histograms
// (a registry HistVec, http_request_duration_seconds), per-route/status
// request counters (http_requests_total), and a process-wide in-flight
// gauge (http_in_flight_requests). Construct with NewHTTPMetrics, which
// also registers the counters and the gauge as a Gatherer.
type HTTPMetrics struct {
	durations     *HistVec
	onServerError func(route string, code int, tc TraceContext)
	mu            sync.Mutex
	requests      map[routeCode]uint64
	inFlight      atomic.Int64
}

// NewHTTPMetrics builds an HTTPMetrics on reg (the process registry
// when nil). onServerError, when non-nil, is called after any
// instrumented handler responds with a 5xx status; it runs on the
// request goroutine and must be fast and non-blocking. The serve layer
// passes its flight-recorder trigger here — a callback, not an import,
// so obs stays dependency-free and every subsystem can instrument
// through it.
func NewHTTPMetrics(reg *Registry, onServerError func(route string, code int, tc TraceContext)) *HTTPMetrics {
	if reg == nil {
		reg = Metrics()
	}
	m := &HTTPMetrics{
		durations: reg.HistogramVec("http_request_duration_seconds",
			"HTTP request latency, by route.", "route", httpBounds),
		onServerError: onServerError,
		requests:      make(map[routeCode]uint64),
	}
	reg.RegisterGatherer(m)
	return m
}

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the status before delegating.
func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Write defaults the status to 200 like net/http does.
func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Middleware wraps next, attributing its requests to route. Nil-safe:
// a nil receiver returns next unwrapped, so wiring is unconditional.
//
// Beyond metrics, the middleware is the trace ingress: it adopts the
// caller's W3C traceparent (or mints a fresh trace ID), exposes the ID
// on every response as X-Trace-Id — cache hits included, so a client
// holding an X-Study-Key can still fetch its span tree — stamps the
// request context, opens the root "request" span when a tracer is
// installed, and echoes a traceparent response header for downstream
// correlation.
func (m *HTTPMetrics) Middleware(route string, next http.Handler) http.Handler {
	if m == nil {
		return next
	}
	hist := m.durations.With(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tc, ok := ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			tc = TraceContext{Trace: NewTraceID()}
		}
		ctx := ContextWithTrace(r.Context(), tc)

		sp, ctx := Default().StartSpan(ctx, PIDServe, LaneFor(tc.Trace), "serve", "request")
		if sp.ID() != 0 {
			sp = sp.Str("route", route).Str("method", r.Method)
			// Children should parent under the request span, and the
			// response should advertise it as the remote parent.
			tc = sp.TraceCtx()
		}
		w.Header().Set("X-Trace-Id", tc.Trace.String())
		w.Header().Set("traceparent", tc.Traceparent())

		m.inFlight.Add(1)
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r.WithContext(ctx))
		elapsed := time.Since(start).Seconds()
		m.inFlight.Add(-1)
		code := rec.code
		if code == 0 {
			code = http.StatusOK
		}
		sp.Int("code", int64(code)).End()
		m.record(route, hist, code, elapsed, tc.Trace)
		if code >= 500 && m.onServerError != nil {
			m.onServerError(route, code, tc)
		}
	})
}

// record counts one completed request and observes its latency on
// the route's histogram; a non-zero trace becomes the landing bucket's
// exemplar.
func (m *HTTPMetrics) record(route string, hist *Hist, code int, seconds float64, trace TraceID) {
	hist.ObserveTrace(seconds, trace)
	m.mu.Lock()
	m.requests[routeCode{route, code}]++
	m.mu.Unlock()
}

// InFlight reports the requests currently inside instrumented handlers.
func (m *HTTPMetrics) InFlight() int64 { return m.inFlight.Load() }

// GatherMetrics implements Gatherer for the request counters and the
// in-flight gauge, sorted by route then code so the exposition is
// deterministic. The latency family is the registry's own HistVec.
func (m *HTTPMetrics) GatherMetrics() []Family {
	m.mu.Lock()
	keys := make([]routeCode, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].code < keys[j].code
	})
	reqs := Family{Name: "http_requests_total", Help: "HTTP requests served, by route and status code.", Type: "counter"}
	for _, k := range keys {
		reqs.Points = append(reqs.Points, Point{
			Labels: []Label{{Key: "route", Value: k.route}, {Key: "code", Value: strconv.Itoa(k.code)}},
			Value:  float64(m.requests[k]),
		})
	}
	m.mu.Unlock()
	return []Family{
		{Name: "http_in_flight_requests", Help: "Requests currently being served.", Type: "gauge",
			Points: []Point{{Value: float64(m.inFlight.Load())}}},
		reqs,
	}
}

// Quantile estimates the q-quantile (0..1) of a route's latency in
// seconds, for load reports; zero when the route has no observations.
func (m *HTTPMetrics) Quantile(route string, q float64) float64 {
	h := m.durations.lookup(route)
	if h == nil {
		return 0
	}
	return h.Snapshot().Quantile(q)
}
