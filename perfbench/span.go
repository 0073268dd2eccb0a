package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call in the traced run. Spans of one request share
// Req; Parent is the ID of the enclosing span, or -1 for a root.
type span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent"`
	Workload string        `json:"workload"`
	Req      int           `json:"req"`
	Name     string        `json:"name"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps every span in memory; write dumps them at the end.
// Times are offsets from the recorder's epoch on the monotonic clock.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(workload string, req, parent int, name string) int {
	at := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Workload: workload, Req: req, Name: name, Start: at, End: -1})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	at := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = at
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (a stage
// observer reports a stage's elapsed time when it ends).
func (r *recorder) add(workload string, req, parent int, name string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Workload: workload, Req: req, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return id
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children are
// counted once; a child's part outside the parent is ignored).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	curLo, curHi := time.Duration(0), time.Duration(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// Span names with a role in the ledger. A traced request has two
// trees: the live one, rootHTTP (the client's round trip) around
// spanServe (pbld's handler, wrapped), and the replay one, rootReplay
// around the direct calls into each layer for the same input. Work
// pbld does off the request's path (the write-behind to the disk tier)
// is replayed as a root of its own, outside both trees.
const (
	rootHTTP   = "http"
	spanServe  = "serve"
	rootReplay = "replay"
)

// ledgerRow is one workload's ledger: the mean traced request total,
// the mean sum of layer self times, and the remainder no layer
// accounts for.
type ledgerRow struct {
	requests     int
	total        time.Duration
	layers       time.Duration
	unattributed time.Duration
}

// ledger computes each workload's row. A request's total is its http
// span; its layers are the http span's own self time (the transport)
// plus the self time of every span below its replay root. The serve
// span is not a layer: the replay decomposes it, and what the replay
// does not explain is the unattributed remainder (middleware, routing,
// handler glue). Spans outside both trees are off the request's path
// and excluded.
func ledger(spans []span) map[string]ledgerRow {
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootName := func(s span) string {
		for s.Parent >= 0 {
			s = byID[s.Parent]
		}
		return s.Name
	}
	type key struct {
		w   string
		req int
	}
	totals := map[key]time.Duration{}
	layers := map[key]time.Duration{}
	for _, s := range spans {
		k := key{s.Workload, s.Req}
		switch {
		case s.Parent < 0 && s.Name == rootHTTP:
			totals[k] = s.dur()
			layers[k] += self[s.ID]
		case s.Parent >= 0 && rootName(s) == rootReplay:
			layers[k] += self[s.ID]
		}
	}
	rows := map[string]ledgerRow{}
	for k, tot := range totals {
		r := rows[k.w]
		r.requests++
		r.total += tot
		r.layers += layers[k]
		rows[k.w] = r
	}
	for w, r := range rows {
		n := time.Duration(r.requests)
		r.total /= n
		r.layers /= n
		r.unattributed = r.total - r.layers
		rows[w] = r
	}
	return rows
}
