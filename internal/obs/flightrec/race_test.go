package flightrec

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pblparallel/internal/obs"
)

// TestHammerMiddlewareDuringRotation is the concurrency torture test
// behind `go test -race`: 8 goroutines drive the instrumented HTTP
// middleware (minting trace IDs, opening request spans, recording
// incidents) while one goroutine keeps rotating the process tracer
// (Install/uninstall — the -trace session lifecycle) and another keeps
// dumping flight-recorder bundles. Every shared structure in the
// correlation path gets exercised mid-swap.
func TestHammerMiddlewareDuringRotation(t *testing.T) {
	prevRec := Active()
	defer Install(prevRec)
	prevTr := obs.Default()
	defer obs.Install(prevTr)

	rec := newTestRecorder(Config{Capacity: 256, Window: time.Minute, MinGap: 0})
	Install(rec)

	m := obs.NewHTTPMetrics(obs.NewRegistry(), nil)
	h := m.Middleware("/hammer", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace := obs.TraceIDFromContext(r.Context())
		Active().Event(KindShed, "hammer", 1, trace)
		sp, _ := obs.Default().StartSpan(r.Context(), obs.PIDEngine, 0, "engine", "work")
		sp.End()
		w.WriteHeader(http.StatusOK)
	}))

	stop := make(chan struct{})
	var bg, wg sync.WaitGroup

	// Tracer rotation: install a fresh ring, run a beat, uninstall.
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			obs.Install(obs.NewTracer(1 << 8))
			time.Sleep(100 * time.Microsecond)
			obs.Install(nil)
		}
	}()

	// Concurrent postmortems while events stream in.
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = rec.WriteBundle(io.Discard, "hammer", obs.NewTraceID())
			rec.Trigger("hammer", obs.TraceID{})
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const clients = 8
	const perClient = 200
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				rr := httptest.NewRecorder()
				req := httptest.NewRequest("GET", "/hammer", nil)
				if i%2 == 0 {
					req.Header.Set("traceparent",
						obs.TraceContext{Trace: obs.NewTraceID(), Parent: 1}.Traceparent())
				}
				h.ServeHTTP(rr, req)
				if rr.Code != http.StatusOK {
					t.Errorf("status %d", rr.Code)
					return
				}
				if rr.Header().Get("X-Trace-Id") == "" {
					t.Error("response missing X-Trace-Id")
					return
				}
			}
		}()
	}

	// The rotators overlap the full client run, then stop.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("hammer deadlocked")
	}
	close(stop)
	bg.Wait()
}
