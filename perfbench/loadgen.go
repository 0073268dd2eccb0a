package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client sends requests over at most conns keep-alive connections: the
// load generator never opens more connections than it has I/O
// goroutines, and never more I/O goroutines than CPUs.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 150 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one response as the benchmark checks it.
type reply struct {
	status int
	cache  string // X-Cache
	key    string // X-Study-Key
	body   []byte
}

// post sends one JSON request.
func (c *client) post(ctx context.Context, path string, v any) (reply, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return reply{}, err
	}
	return c.postRaw(ctx, path, b)
}

// postRaw sends an encoded request body with optional header
// name/value pairs.
func (c *client) postRaw(ctx context.Context, path string, b []byte, hdr ...string) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(b))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"),
		key: resp.Header.Get("X-Study-Key"), body: body}, nil
}

// get fetches a path's body.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// sample is one open-loop request's timeline, as offsets from the
// loop's start: when it was due, when the generator sent it, and when
// its response was fully read.
type sample struct {
	due, sent, done time.Duration
}

// latency is the request's time from its due time: it includes any
// wait the generator imposed, so a stall is charged to every request
// it delayed.
func (s sample) latency() time.Duration { return s.done - s.due }

// late is how far behind schedule the generator sent the request.
func (s sample) late() time.Duration { return s.sent - s.due }

// spinWindow is how much of each wait is spent spinning instead of
// sleeping: nanosleep overshoots by ~80µs at the median, time.Sleep by
// ~800µs (it rounds to the netpoller's millisecond), and both would
// dominate a sub-millisecond hit if used alone.
const spinWindow = 100 * time.Microsecond

// sleepUntil blocks until t: a nanosleep for all but spinWindow of the
// wait, then a spin on the monotonic clock.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an EINTR wake only shortens the sleep; the spin covers it
	}
	for time.Now().Before(t) {
	}
}

// openLoop sends request i at due[i] after the start, from conns
// sender goroutines: each takes the next unsent index, waits for its
// due time (or sends at once when already late) and records the
// timeline. It returns when every request has completed.
func openLoop(due []time.Duration, conns int, do func(i int)) []sample {
	out := make([]sample, len(due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				sleepUntil(start.Add(due[i]))
				s := sample{due: due[i], sent: time.Since(start)}
				do(i)
				s.done = time.Since(start)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// loopStats summarizes an open loop.
type loopStats struct {
	n                   int
	p50, p99            time.Duration // latency from due
	lateP50, lateP99    time.Duration
	offered, achieved   float64 // requests/s
	achievedOverOffered float64
}

// summarizeOpen computes the open-loop statistics. Offered rate is the
// schedule's (requests over the span of due times); achieved is
// completions over the span from the first due time to the last
// completion, so a backlog that grows lowers it.
func summarizeOpen(ss []sample) loopStats {
	st := loopStats{n: len(ss)}
	if len(ss) == 0 {
		return st
	}
	lat := make([]float64, len(ss))
	late := make([]float64, len(ss))
	var lastDone time.Duration
	for i, s := range ss {
		lat[i] = float64(s.latency())
		late[i] = float64(s.late())
		if s.done > lastDone {
			lastDone = s.done
		}
	}
	st.p50 = time.Duration(percentile(lat, 0.5))
	st.p99 = time.Duration(percentile(lat, 0.99))
	st.lateP50 = time.Duration(percentile(late, 0.5))
	st.lateP99 = time.Duration(percentile(late, 0.99))
	first, last := ss[0].due, ss[len(ss)-1].due
	if span := (last - first).Seconds(); span > 0 && len(ss) > 1 {
		st.offered = float64(len(ss)-1) / span
	}
	if span := (lastDone - first).Seconds(); span > 0 && len(ss) > 1 {
		st.achieved = float64(len(ss)-1) / span
	}
	if st.offered > 0 {
		st.achievedOverOffered = st.achieved / st.offered
	}
	return st
}

// closedLoop runs conns clients until d elapses, each sending its next
// request as soon as the previous one completes. do sends one request
// and reports success. It returns the latencies and completion offsets
// (from the start) of successful requests, in no particular order.
func closedLoop(conns int, d time.Duration, do func() bool) (lat, done []time.Duration) {
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine, fin []time.Duration
			for time.Now().Before(deadline) {
				t := time.Now()
				if do() {
					mine = append(mine, time.Since(t))
					fin = append(fin, time.Since(start))
				}
			}
			mu.Lock()
			lat = append(lat, mine...)
			done = append(done, fin...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return lat, done
}

// rateWindow is the window closed-loop throughput is counted in.
const rateWindow = 500 * time.Millisecond

// windowRate is a closed loop's throughput as the median of its
// per-window rates over the whole windows of d, each window's rate
// being its completions over the span they cover: a burst of
// interference from outside the benchmark moves one window, not the
// result.
func windowRate(done []time.Duration, d time.Duration) float64 {
	n := int(d / rateWindow)
	if n < 1 || len(done) < 2 {
		return float64(len(done)) / d.Seconds()
	}
	sorted := append([]time.Duration(nil), done...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var rates []float64
	lo := 0
	for w := 0; w < n; w++ {
		end := time.Duration(w+1) * rateWindow
		hi := lo
		for hi < len(sorted) && sorted[hi] < end {
			hi++
		}
		if hi-lo >= 2 {
			rates = append(rates, float64(hi-lo-1)/(sorted[hi-1]-sorted[lo]).Seconds())
		}
		lo = hi
	}
	if len(rates) == 0 {
		return float64(len(done)) / d.Seconds()
	}
	return percentile(rates, 0.5)
}

// durationsMS converts latencies to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
