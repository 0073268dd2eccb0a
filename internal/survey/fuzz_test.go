package survey

import (
	"math"
	"testing"

	"pblparallel/internal/stats"
)

// FuzzSurveyScores drives the Beyerlein composite with arbitrary
// response bytes mapped onto the 1–5 Likert scale: the composite of
// any valid response must be a finite value inside the scale, bit-equal
// to the stats reference over the same scores, and a response with no
// component items must error rather than produce NaN.
func FuzzSurveyScores(f *testing.F) {
	f.Add(byte(3), []byte{1, 2, 3})
	f.Add(byte(5), []byte{5, 5, 5, 5})
	f.Add(byte(1), []byte{})
	f.Fuzz(func(t *testing.T, def byte, comps []byte) {
		er := ElementResponse{Definition: Likert(def%5 + 1)}
		for _, c := range comps {
			er.Components = append(er.Components, Likert(c%5+1))
		}
		if !er.Definition.Valid() {
			t.Fatalf("constructed invalid definition %d", er.Definition)
		}
		got, err := er.Composite()
		if len(er.Components) == 0 {
			if err == nil {
				t.Fatal("componentless response: want error, got nil")
			}
			return
		}
		if err != nil {
			t.Fatalf("valid response errored: %v", err)
		}
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("composite not finite: %v", got)
		}
		if got < 1 || got > 5 {
			t.Fatalf("composite %v outside the 1-5 scale", got)
		}
		if avg := er.Average(); math.IsNaN(avg) || avg < 1 || avg > 5 {
			t.Fatalf("average %v outside the 1-5 scale", avg)
		}
		// The integer-sum averages must be bit-equal to the Kahan
		// reference over the same scores as float64s.
		ref := make([]float64, len(er.Components))
		for i, c := range er.Components {
			ref[i] = float64(c)
		}
		wantComp, err := stats.CompositeScore(float64(er.Definition), ref)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(wantComp) {
			t.Fatalf("Composite = %v, reference %v", got, wantComp)
		}
		if avg, want := er.Average(), stats.MustMean(er.Scores()); math.Float64bits(avg) != math.Float64bits(want) {
			t.Fatalf("Average = %v, reference %v", avg, want)
		}
	})
}
