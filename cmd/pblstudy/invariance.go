package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"

	"pblparallel/internal/sched"
)

// The repo's top invariant: a computation's bytes do not depend on the
// worker count, and recoverable faults never change them. Every
// pblstudy checker (chaos, chaos -serve, cohort) is a producer for the
// one comparison below, so they all agree on what the reference is.

// A pass is one configuration an invariance check runs.
type pass struct {
	workers int
	faults  bool           // fault injection armed
	rt      *sched.Runtime // dedicated to this pass, closed after it
}

// A drift is one output of a compared pass whose bytes differ from the
// clean reference.
type drift struct {
	workers int
	index   int
}

// checkInvariance runs one clean reference pass at counts[0], then one
// compared pass per remaining configuration: every count with faults
// armed when faults is set, otherwise every count after the first. Each
// pass gets a dedicated runtime. run returns one or more sweeps per
// pass, each index-aligned with the reference, which is the clean
// pass's first sweep. The result lists every (workers, index) that
// differs from the reference in any sweep, in pass order, then index
// order; a run error aborts the check.
func checkInvariance(counts []int, faults bool, run func(pass) ([][][]byte, error)) ([]drift, error) {
	passes := []pass{{workers: counts[0]}}
	for i, w := range counts {
		if faults || i > 0 {
			passes = append(passes, pass{workers: w, faults: faults})
		}
	}
	var (
		ref    [][]byte
		drifts []drift
	)
	for pi, p := range passes {
		p.rt = sched.New(sched.WithWorkers(p.workers))
		sweeps, err := run(p)
		p.rt.Close()
		if err != nil {
			return nil, err
		}
		if pi == 0 {
			ref = sweeps[0]
			continue
		}
		for i := 0; i < len(ref); i++ {
			for _, s := range sweeps {
				if len(s) != len(ref) || !bytes.Equal(s[i], ref[i]) {
					drifts = append(drifts, drift{workers: p.workers, index: i})
					break
				}
			}
		}
	}
	return drifts, nil
}

// seedsAt returns the seeds of a sweep starting at start that drifted
// at one worker count.
func seedsAt(drifts []drift, workers int, start int64) []int64 {
	var out []int64
	for _, d := range drifts {
		if d.workers == workers {
			out = append(out, start+int64(d.index))
		}
	}
	return out
}

// workerCounts resolves the -workerset and -workers flags into the
// counts a check runs at: the comma-separated set, or else the single
// -workers count, where 0 means all CPUs.
func workerCounts(set string, workers int) ([]int, error) {
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	return parseList(set, []int{workers}, func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			return 0, fmt.Errorf("bad -workerset entry %q (want positive integers)", s)
		}
		return n, nil
	})
}
