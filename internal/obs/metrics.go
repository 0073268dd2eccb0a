package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pblparallel/internal/sched"
)

// nowUnixNano stamps exemplars; a var so tests can pin it.
var nowUnixNano = func() int64 { return time.Now().UnixNano() }

// Label is one metric dimension; Point labels are kept ordered so
// renderings are deterministic.
type Label struct {
	Key, Value string
}

// Bucket is one cumulative histogram bucket in a gathered Point.
type Bucket struct {
	UpperBound      float64 // seconds (or the metric's native unit); +Inf allowed
	CumulativeCount uint64
}

// bucketJSON is Bucket's wire form. Every histogram's last bucket has a
// +Inf upper bound, which JSON numbers cannot represent, so non-finite
// bounds cross as the exposition-format strings ("+Inf"/"-Inf"/"NaN").
type bucketJSON struct {
	UpperBound      any    `json:"upper_bound"`
	CumulativeCount uint64 `json:"cumulative_count"`
}

// MarshalJSON keeps gathered families JSON-encodable (the flight
// recorder embeds them in postmortem bundles).
func (b Bucket) MarshalJSON() ([]byte, error) {
	ub := any(b.UpperBound)
	switch {
	case math.IsInf(b.UpperBound, 1):
		ub = "+Inf"
	case math.IsInf(b.UpperBound, -1):
		ub = "-Inf"
	case math.IsNaN(b.UpperBound):
		ub = "NaN"
	}
	return json.Marshal(bucketJSON{UpperBound: ub, CumulativeCount: b.CumulativeCount})
}

// UnmarshalJSON reverses MarshalJSON for bundle round trips.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var w bucketJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	b.CumulativeCount = w.CumulativeCount
	switch v := w.UpperBound.(type) {
	case float64:
		b.UpperBound = v
	case string:
		switch v {
		case "+Inf":
			b.UpperBound = math.Inf(1)
		case "-Inf":
			b.UpperBound = math.Inf(-1)
		case "NaN":
			b.UpperBound = math.NaN()
		default:
			return fmt.Errorf("obs: bucket upper_bound %q is not a number", v)
		}
	default:
		return fmt.Errorf("obs: bucket upper_bound %v (%T) is not a number", v, v)
	}
	return nil
}

// Exemplar links one recorded observation to the trace that produced
// it: the raw value, the request's TraceID, and the observation time.
// A zero Trace means "no exemplar". Rendered only by the OpenMetrics
// exposition (`# {trace_id="..."} value ts` after a bucket count), so
// a p99 latency bucket points straight at /debug/trace/{id}.
type Exemplar struct {
	Value float64 `json:"value"`
	Trace TraceID `json:"trace"`
	AtNS  int64   `json:"at_ns"`
}

// Point is one sample of a metric family: a scalar for counters and
// gauges, buckets/sum/count for histograms. Exemplars, when present,
// parallels Buckets (index i is bucket i's most recent traced
// observation; a zero Trace marks an empty slot).
type Point struct {
	Labels    []Label
	Value     float64
	Buckets   []Bucket
	Sum       float64
	Count     uint64
	Exemplars []Exemplar
}

// Family is one named metric with its samples — the exchange format
// between sources (the registry's own instruments, external Gatherers
// like engine.Metrics) and the renderers.
type Family struct {
	Name   string
	Help   string
	Type   string // "counter", "gauge", or "histogram"
	Points []Point
}

// Gatherer contributes metric families at render time. It is how
// subsystems with their own sinks (the engine's per-stage histograms)
// unify into the registry without giving up their native types.
type Gatherer interface {
	GatherMetrics() []Family
}

// GathererFunc adapts a function to the Gatherer interface.
type GathererFunc func() []Family

// GatherMetrics implements Gatherer.
func (f GathererFunc) GatherMetrics() []Family { return f() }

// Counter is a monotonically increasing named value. The count is
// cache-line padded: counters registered together allocate together,
// and hot ones (cache hits, sheds, region forks) are bumped from every
// worker — without padding they false-share lines with their
// registry neighbors (see BenchmarkCounterInc in internal/sched).
type Counter struct {
	help string
	v    sched.PaddedInt64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are a programming error and ignored.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a named value that can go up and down.
type Gauge struct {
	help string
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// LatencyBuckets are the shared latency bucket upper bounds in seconds:
// 100µs to 10s on a 1–2.5–5 ladder. The engine's stage and run
// histograms use all sixteen; the HTTP route histograms start at 1ms.
var LatencyBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Hist is a fixed-bucket histogram over float64 observations (by
// convention, seconds). It keeps the exact count, sum, min and max
// beside the buckets, so means are exact and only quantiles are
// bucket-resolution estimates. Each bucket additionally keeps the most
// recent exemplar — an observation stamped with the trace that
// produced it — so the exposition can link latency outliers to their
// span trees.
type Hist struct {
	help      string
	bounds    []float64
	mu        sync.Mutex
	counts    []uint64
	sum       float64
	n         uint64
	min, max  float64
	exemplars []Exemplar
}

// Observe records one value with no exemplar.
func (h *Hist) Observe(v float64) { h.ObserveTrace(v, TraceID{}) }

// ObserveTrace records one value and, when trace is set, stores it as
// the landing bucket's exemplar. The untraced path is byte-for-byte
// Observe: no time lookup, no allocation — the call sites on hot paths
// pass the request's TraceID, which is zero whenever no trace context
// flowed in.
func (h *Hist) ObserveTrace(v float64, trace TraceID) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	if !trace.IsZero() {
		h.exemplars[i] = Exemplar{Value: v, Trace: trace, AtNS: nowUnixNano()}
	}
	h.mu.Unlock()
}

// HistSnapshot is a read-only copy of a Hist. Counts holds one count
// per bound plus the overflow bucket above the last bound (not
// cumulative); Min and Max are exact, and zero when Count is.
type HistSnapshot struct {
	Bounds   []float64 // shared with the Hist; do not modify
	Counts   []uint64
	Sum      float64
	Count    uint64
	Min, Max float64
}

// Snapshot copies the histogram's state.
func (h *Hist) Snapshot() HistSnapshot {
	s, _ := h.copyState()
	return s
}

// copyState copies the state and, when any bucket holds one, the
// exemplars, under one lock.
func (h *Hist) copyState() (HistSnapshot, []Exemplar) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{Bounds: h.bounds, Counts: append([]uint64(nil), h.counts...),
		Sum: h.sum, Count: h.n, Min: h.min, Max: h.max}
	for _, e := range h.exemplars {
		if !e.Trace.IsZero() {
			return s, append([]Exemplar(nil), h.exemplars...)
		}
	}
	return s, nil
}

// Mean is the exact average of the observations; zero when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile with BucketQuantile, narrowed to
// the exact observed [Min, Max].
func (s HistSnapshot) Quantile(q float64) float64 {
	counts := make([]float64, len(s.Counts))
	for i, c := range s.Counts {
		counts[i] = float64(c)
	}
	return BucketQuantile(q, s.Bounds, counts, s.Min, s.Max)
}

// snapshot renders the histogram as a gathered Point: cumulative
// buckets ending in +Inf, sum, count and exemplars.
func (h *Hist) snapshot() Point {
	s, ex := h.copyState()
	p := Point{Sum: s.Sum, Count: s.Count, Buckets: make([]Bucket, 0, len(s.Counts)), Exemplars: ex}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		ub := math.Inf(1)
		if i < len(s.Bounds) {
			ub = s.Bounds[i]
		}
		p.Buckets = append(p.Buckets, Bucket{UpperBound: ub, CumulativeCount: cum})
	}
	return p
}

// BucketQuantile is the one histogram quantile estimator: every
// reader — Hist snapshots, the engine's stage report, HTTP load
// reports and the TSDB's quantile-over-time — calls it.
//
// bounds are the finite bucket upper bounds, ascending; counts are the
// per-bucket (not cumulative) observation counts, one per bound plus a
// final overflow bucket above the last bound. lo and hi are the exact
// observed minimum and maximum; pass NaN for both when they are
// unknown, as for a histogram rebuilt from bucket series.
//
// The contract:
//   - no observations: 0;
//   - q is clamped into [0, 1], NaN reading as 0, so the result is
//     never NaN or ±Inf;
//   - empty buckets are skipped; the rank q·total falls in the first
//     non-empty bucket whose cumulative count reaches it;
//   - inside that bucket the estimate interpolates linearly from the
//     previous bound (0 for the first bucket) to the bucket's bound;
//   - the overflow bucket's upper edge is hi when known, otherwise the
//     last finite bound;
//   - when lo and hi are known, the bucket's edges are first narrowed
//     to [lo, hi], so the result lies inside the observed range and a
//     single observation is reported exactly.
func BucketQuantile(q float64, bounds, counts []float64, lo, hi float64) float64 {
	var total float64
	for _, c := range counts {
		if c > 0 {
			total += c
		}
	}
	if !(total > 0) || math.IsInf(total, 1) {
		return 0
	}
	known := !math.IsNaN(lo) && !math.IsNaN(hi)
	switch {
	case q > 1:
		q = 1
	case !(q > 0):
		q = 0
	}
	rank := q * total
	var cum float64
	for i, c := range counts {
		if !(c > 0) {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		var lower float64
		if i > 0 {
			lower = bounds[i-1]
		}
		upper := lower // overflow bucket with unknown hi: the last finite bound
		switch {
		case i < len(bounds):
			upper = bounds[i]
		case known:
			upper = hi
		}
		if known {
			lower, upper = math.Max(lower, lo), math.Min(upper, hi)
		}
		frac := (rank - cum) / c
		return math.Min(lower+frac*(upper-lower), upper) // rounding must not step past the edge
	}
	return 0
}

// Registry holds named instruments and render-time Gatherers. All
// methods are safe for concurrent use; instrument getters are
// idempotent (the same name always returns the same instrument), so
// packages can cache them in variables at init.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Hist
	histvecs  map[string]*HistVec
	gatherers []Gatherer
	published bool
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Hist),
		histvecs: make(map[string]*HistVec),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{help: help}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{help: help}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with the given bucket upper
// bounds (ascending; an implicit +Inf bucket is appended), creating it
// on first use. Bounds are fixed at creation; later calls ignore the
// argument.
func (r *Registry) Histogram(name, help string, bounds []float64) *Hist {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHist(help, bounds)
		r.hists[name] = h
	}
	return h
}

func newHist(help string, bounds []float64) *Hist {
	return &Hist{help: help, bounds: append([]float64(nil), bounds...),
		counts:    make([]uint64, len(bounds)+1),
		exemplars: make([]Exemplar, len(bounds)+1)}
}

// HistVec is one histogram family fanned out over the values of a
// single label (e.g. serve_queue_wait_seconds by route). All member
// histograms share bounds; the family renders one labeled Point per
// member, label values sorted, so the exposition is deterministic.
type HistVec struct {
	help     string
	labelKey string
	bounds   []float64
	mu       sync.Mutex
	m        map[string]*Hist
}

// HistogramVec returns the named labeled-histogram family, creating it
// on first use. Like Histogram, bounds and the label key are fixed at
// creation; later calls ignore the arguments.
func (r *Registry) HistogramVec(name, help, labelKey string, bounds []float64) *HistVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.histvecs[name]
	if !ok {
		v = &HistVec{help: help, labelKey: labelKey,
			bounds: append([]float64(nil), bounds...), m: make(map[string]*Hist)}
		r.histvecs[name] = v
	}
	return v
}

// With returns the member histogram for one label value, creating it
// on first use. Call sites with a static label set should cache the
// result; the lookup is a mutex + map hit otherwise.
func (v *HistVec) With(labelValue string) *Hist {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.m[labelValue]
	if !ok {
		h = newHist(v.help, v.bounds)
		v.m[labelValue] = h
	}
	return h
}

// lookup returns the member histogram for one label value, or nil when
// that value has never been seen; unlike With it never creates one.
func (v *HistVec) lookup(labelValue string) *Hist {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.m[labelValue]
}

// Snapshots copies every member histogram, keyed by label value.
func (v *HistVec) Snapshots() map[string]HistSnapshot {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]HistSnapshot, len(v.m))
	for val, h := range v.m {
		out[val] = h.Snapshot()
	}
	return out
}

// snapshotFamily renders the vec as one family under name. Members
// resolved ahead of use (HTTP routes, at wiring time) but never
// observed are left out, so a label value appears with its first
// observation.
func (v *HistVec) snapshotFamily(name string) Family {
	v.mu.Lock()
	vals := make([]string, 0, len(v.m))
	for val := range v.m {
		vals = append(vals, val)
	}
	members := make([]*Hist, 0, len(vals))
	sort.Strings(vals)
	for _, val := range vals {
		members = append(members, v.m[val])
	}
	v.mu.Unlock()
	f := Family{Name: name, Help: v.help, Type: "histogram"}
	for i, h := range members {
		p := h.snapshot()
		if p.Count == 0 {
			continue
		}
		p.Labels = []Label{{Key: v.labelKey, Value: vals[i]}}
		f.Points = append(f.Points, p)
	}
	return f
}

// RegisterGatherer adds a render-time metrics source.
func (r *Registry) RegisterGatherer(g Gatherer) {
	if g == nil {
		return
	}
	r.mu.Lock()
	r.gatherers = append(r.gatherers, g)
	r.mu.Unlock()
}

// Gather snapshots every instrument and gatherer into families sorted
// by name.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	fams := make([]Family, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		fams = append(fams, Family{Name: name, Help: c.help, Type: "counter",
			Points: []Point{{Value: float64(c.Value())}}})
	}
	for name, g := range r.gauges {
		fams = append(fams, Family{Name: name, Help: g.help, Type: "gauge",
			Points: []Point{{Value: g.Value()}}})
	}
	for name, h := range r.hists {
		fams = append(fams, Family{Name: name, Help: h.help, Type: "histogram",
			Points: []Point{h.snapshot()}})
	}
	for name, v := range r.histvecs {
		fams = append(fams, v.snapshotFamily(name))
	}
	gatherers := append([]Gatherer(nil), r.gatherers...)
	r.mu.Unlock()
	for _, g := range gatherers {
		fams = append(fams, g.GatherMetrics()...)
	}
	sort.SliceStable(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	return fams
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// labelString renders {k="v",...} with an optional extra label appended
// (the histogram "le").
func labelString(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	writePair := func(k, v string) {
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		writePair(l.Key, l.Value)
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		writePair(extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

// formatBound renders a bucket upper bound the way Prometheus does.
func formatBound(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.Gather() {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
			return err
		}
		for _, p := range f.Points {
			if f.Type == "histogram" {
				for _, b := range p.Buckets {
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
						f.Name, labelString(p.Labels, "le", formatBound(b.UpperBound)), b.CumulativeCount); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
					f.Name, labelString(p.Labels, "", ""), formatFloat(p.Sum),
					f.Name, labelString(p.Labels, "", ""), p.Count); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				f.Name, labelString(p.Labels, "", ""), formatFloat(p.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatFloat renders a sample value (shortest round-trip form).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// OpenMetricsContentType is the content type WriteOpenMetrics renders;
// the /metrics handler serves it when the client's Accept header asks
// for application/openmetrics-text.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// exemplarSuffix renders one OpenMetrics exemplar clause
// (" # {trace_id=\"...\"} value timestamp") or "" when e is unset.
func exemplarSuffix(e Exemplar) string {
	if e.Trace.IsZero() {
		return ""
	}
	ts := strconv.FormatFloat(float64(e.AtNS)/1e9, 'f', 3, 64)
	return " # {trace_id=\"" + e.Trace.String() + "\"} " + formatFloat(e.Value) + " " + ts
}

// WriteOpenMetrics renders every family in the OpenMetrics text format
// (the successor of the Prometheus 0.0.4 exposition): counter metadata
// drops the _total suffix per the spec, histogram buckets carry
// exemplar clauses linking latency outliers to /debug/trace/{id}, and
// the stream is terminated by the mandatory # EOF marker.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	for _, f := range r.Gather() {
		meta := f.Name
		if f.Type == "counter" {
			meta = strings.TrimSuffix(meta, "_total")
		}
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", meta, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", meta, f.Type); err != nil {
			return err
		}
		for _, p := range f.Points {
			if f.Type == "histogram" {
				for i, b := range p.Buckets {
					var ex string
					if i < len(p.Exemplars) {
						ex = exemplarSuffix(p.Exemplars[i])
					}
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n",
						f.Name, labelString(p.Labels, "le", formatBound(b.UpperBound)), b.CumulativeCount, ex); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
					f.Name, labelString(p.Labels, "", ""), formatFloat(p.Sum),
					f.Name, labelString(p.Labels, "", ""), p.Count); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				f.Name, labelString(p.Labels, "", ""), formatFloat(p.Value)); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

// ExpvarFunc returns an expvar.Func whose JSON value is the gathered
// families — the expvar renderer of the registry.
func (r *Registry) ExpvarFunc() expvar.Func {
	return func() any {
		type jsonPoint struct {
			Labels  map[string]string `json:"labels,omitempty"`
			Value   *float64          `json:"value,omitempty"`
			Sum     *float64          `json:"sum,omitempty"`
			Count   *uint64           `json:"count,omitempty"`
			Buckets map[string]uint64 `json:"buckets,omitempty"`
		}
		out := make(map[string]any)
		for _, f := range r.Gather() {
			pts := make([]jsonPoint, 0, len(f.Points))
			for _, p := range f.Points {
				jp := jsonPoint{}
				if len(p.Labels) > 0 {
					jp.Labels = make(map[string]string, len(p.Labels))
					for _, l := range p.Labels {
						jp.Labels[l.Key] = l.Value
					}
				}
				if f.Type == "histogram" {
					sum, count := p.Sum, p.Count
					jp.Sum, jp.Count = &sum, &count
					jp.Buckets = make(map[string]uint64, len(p.Buckets))
					for _, b := range p.Buckets {
						jp.Buckets[formatBound(b.UpperBound)] = b.CumulativeCount
					}
				} else {
					v := p.Value
					jp.Value = &v
				}
				pts = append(pts, jp)
			}
			out[f.Name] = pts
		}
		return out
	}
}

// PublishExpvar publishes the registry under the given expvar name
// (idempotent per registry; expvar itself panics on duplicate names, so
// the guard matters for repeated CLI sessions in one process).
func (r *Registry) PublishExpvar(name string) {
	r.mu.Lock()
	already := r.published
	r.published = true
	r.mu.Unlock()
	if already || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, r.ExpvarFunc())
}
