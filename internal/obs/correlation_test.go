package obs

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestStartSpanParenting checks the correlation chain: each StartSpan
// joins the context's trace, adopts the context's span as parent, and
// re-derives the context so the next layer parents under it.
func TestStartSpanParenting(t *testing.T) {
	tr := NewTracer(1 << 10)
	root := TraceContext{Trace: NewTraceID()}
	ctx := ContextWithTrace(context.Background(), root)

	parent, ctx := tr.StartSpan(ctx, PIDCore, 0, "core", "outer")
	child, _ := tr.StartSpan(ctx, PIDEngine, 1, "engine", "inner")
	child.End()
	parent.End()

	recs := tr.TraceRecords(root.Trace)
	if len(recs) != 2 {
		t.Fatalf("TraceRecords returned %d records, want 2", len(recs))
	}
	byName := map[string]Record{}
	for _, r := range recs {
		byName[r.Name] = r
		if r.Trace != root.Trace {
			t.Errorf("%s: trace = %s, want %s", r.Name, r.Trace, root.Trace)
		}
		if r.SpanID == 0 {
			t.Errorf("%s: span ID unset", r.Name)
		}
	}
	if byName["inner"].Parent != byName["outer"].SpanID {
		t.Fatalf("inner.Parent = %s, want outer's span %s",
			byName["inner"].Parent, byName["outer"].SpanID)
	}
	if byName["outer"].Parent != 0 {
		t.Errorf("outer.Parent = %s, want 0", byName["outer"].Parent)
	}
}

// TestStartSpanWithoutTrace: an uncorrelated context still gets a span
// (subsystem timelines work without requests), just with no trace ID.
func TestStartSpanWithoutTrace(t *testing.T) {
	tr := NewTracer(1 << 10)
	sp, ctx := tr.StartSpan(context.Background(), PIDCore, 0, "core", "solo")
	sp.End()
	if _, ok := TraceFromContext(ctx); ok {
		t.Fatal("context should stay uncorrelated")
	}
	recs := tr.Records()
	if len(recs) != 1 || !recs[0].Trace.IsZero() {
		t.Fatalf("recs = %+v, want one untraced record", recs)
	}
}

// TestStartSpanNilTracer: the disabled path is inert and leaves the
// context untouched.
func TestStartSpanNilTracer(t *testing.T) {
	var tr *Tracer
	ctx := ContextWithTrace(context.Background(), TraceContext{Trace: NewTraceID(), Parent: 9})
	sp, out := tr.StartSpan(ctx, PIDCore, 0, "core", "x")
	if sp.ID() != 0 {
		t.Fatal("nil tracer should yield an inert span")
	}
	if got, _ := TraceFromContext(out); got.Parent != 9 {
		t.Fatal("nil tracer must not rewrite the context")
	}
	sp.End() // must not panic
}

func TestBuildTraceTree(t *testing.T) {
	tr := NewTracer(1 << 10)
	root := TraceContext{Trace: NewTraceID()}
	ctx := ContextWithTrace(context.Background(), root)

	outer, ctx := tr.StartSpan(ctx, PIDServe, 3, "serve", "request")
	mid, ctx := tr.StartSpan(ctx, PIDEngine, 0, "engine", "run")
	leaf, _ := tr.StartSpan(ctx, PIDOMP, 1, "omp", "parallel")
	leaf.End()
	mid.End()
	// An instant event linking another trace (the coalescing shape).
	other := NewTraceID()
	tr.Span(PIDServe, 3, "serve", "coalesced.link").
		Trace(outer.TraceCtx()).Str("linked_trace", other.String()).Emit()
	outer.End()

	tree := BuildTraceTree(root.Trace, tr.TraceRecords(root.Trace))
	if tree == nil {
		t.Fatal("BuildTraceTree returned nil")
	}
	if tree.Trace != root.Trace.String() || tree.Spans != 4 {
		t.Fatalf("tree = trace %s spans %d, want %s / 4", tree.Trace, tree.Spans, root.Trace)
	}
	if len(tree.Roots) != 1 || tree.Roots[0].Name != "request" {
		t.Fatalf("roots = %+v, want the single request span", tree.Roots)
	}
	reqNode := tree.Roots[0]
	var names []string
	var linked []string
	var walk func(n *SpanNode)
	walk = func(n *SpanNode) {
		names = append(names, n.Cat+"/"+n.Name)
		linked = append(linked, n.Links...)
		for _, c := range n.Child {
			walk(c)
		}
	}
	walk(reqNode)
	want := map[string]bool{"serve/request": true, "engine/run": true, "omp/parallel": true, "serve/coalesced.link": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("tree missing spans %v (got %v)", want, names)
	}
	if len(linked) != 1 || linked[0] != other.String() {
		t.Fatalf("links = %v, want [%s]", linked, other)
	}
	for _, s := range []string{"serve http", "engine pool", "omp runtime"} {
		found := false
		for _, have := range tree.Subsys {
			if have == s {
				found = true
			}
		}
		if !found {
			t.Errorf("tree.Subsys = %v missing %q", tree.Subsys, s)
		}
	}

	if BuildTraceTree(root.Trace, nil) != nil {
		t.Error("empty records should yield a nil tree")
	}
}

// TestBuildTraceTreeOrphan: a child whose parent fell out of the ring
// surfaces as a root instead of vanishing.
func TestBuildTraceTreeOrphan(t *testing.T) {
	id := NewTraceID()
	recs := []Record{{Phase: 'X', PID: PIDEngine, Cat: "engine", Name: "orphan",
		Trace: id, SpanID: 5, Parent: 99999}}
	tree := BuildTraceTree(id, recs)
	if tree == nil || len(tree.Roots) != 1 || tree.Roots[0].Name != "orphan" {
		t.Fatalf("orphan not promoted to root: %+v", tree)
	}
}

// TestMiddlewareTraceHeaders: the middleware adopts a caller's
// traceparent, mints one otherwise, and exposes X-Trace-Id +
// traceparent on every response.
func TestMiddlewareTraceHeaders(t *testing.T) {
	tr := NewTracer(1 << 10)
	Install(tr)
	defer Install(nil)

	m := NewHTTPMetrics(NewRegistry(), nil)
	var gotCtx TraceContext
	h := m.Middleware("/t", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotCtx, _ = TraceFromContext(r.Context())
		w.WriteHeader(http.StatusOK)
	}))

	// Caller-supplied traceparent is adopted.
	supplied := TraceContext{Trace: NewTraceID(), Parent: 77}
	req := httptest.NewRequest("GET", "/t", nil)
	req.Header.Set("traceparent", supplied.Traceparent())
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Header().Get("X-Trace-Id") != supplied.Trace.String() {
		t.Fatalf("X-Trace-Id = %q, want %s", rr.Header().Get("X-Trace-Id"), supplied.Trace)
	}
	if gotCtx.Trace != supplied.Trace {
		t.Fatal("handler context should carry the supplied trace")
	}
	echoed, ok := ParseTraceparent(rr.Header().Get("traceparent"))
	if !ok || echoed.Trace != supplied.Trace {
		t.Fatalf("response traceparent %q does not carry the trace", rr.Header().Get("traceparent"))
	}
	// The request span exists, carries the trace, and parents under the
	// caller's span.
	recs := tr.TraceRecords(supplied.Trace)
	if len(recs) != 1 || recs[0].Name != "request" || recs[0].Parent != 77 {
		t.Fatalf("request span = %+v", recs)
	}

	// No traceparent: a fresh ID is minted.
	rr2 := httptest.NewRecorder()
	h.ServeHTTP(rr2, httptest.NewRequest("GET", "/t", nil))
	minted, ok := ParseTraceID(rr2.Header().Get("X-Trace-Id"))
	if !ok || minted == supplied.Trace {
		t.Fatalf("minted X-Trace-Id = %q", rr2.Header().Get("X-Trace-Id"))
	}
}

// TestMiddleware5xxHook: the server-error hook fires with the request's
// trace for any instrumented 5xx.
func TestMiddleware5xxHook(t *testing.T) {
	var hookRoute string
	var hookCode int
	var hookTrace TraceID
	m := NewHTTPMetrics(NewRegistry(), func(route string, code int, tc TraceContext) {
		hookRoute, hookCode, hookTrace = route, code, tc.Trace
	})
	h := m.Middleware("/boom", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/boom", nil))
	if hookRoute != "/boom" || hookCode != http.StatusBadGateway {
		t.Fatalf("hook saw (%q, %d)", hookRoute, hookCode)
	}
	if hookTrace.String() != rr.Header().Get("X-Trace-Id") {
		t.Fatal("hook trace differs from the response's X-Trace-Id")
	}

	// 2xx must not fire it.
	hookCode = 0
	ok := m.Middleware("/ok", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ok.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/ok", nil))
	if hookCode != 0 {
		t.Fatal("hook fired for a 2xx response")
	}
}
