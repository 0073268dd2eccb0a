package main

import (
	"sort"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between the two nearest ranks; xs need not be sorted
// and is not modified. An empty input yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// mean is the arithmetic mean (0 for an empty input).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms and us convert a duration to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics in insertion order for the human
// listing, plus the subset that goes into the result line.
type report struct {
	names []string
	all   map[string]metric
}

func newReport() *report { return &report{all: map[string]metric{}} }

// add records a metric; a repeated name overwrites the value.
func (r *report) add(name string, v float64, unit string) {
	if _, ok := r.all[name]; !ok {
		r.names = append(r.names, name)
	}
	r.all[name] = metric{Value: v, Unit: unit}
}
