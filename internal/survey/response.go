package survey

import (
	"fmt"

	"pblparallel/internal/stats"
)

// Likert is a single item score on the 1–5 scale. Zero marks an item a
// sheet has not (yet) answered. One byte holds it, so a sheet's dense
// scores are a byte per item.
type Likert int8

// Valid reports whether the score is on the scale.
func (l Likert) Valid() bool { return l >= 1 && l <= 5 }

// The averages below are integer sums over a float64 count. Every
// partial sum of on-scale scores is a small integer, exactly
// representable in a float64, so each result is bit-identical to the
// Kahan mean (stats.MustMean, stats.CompositeScore) over the same
// scores as float64s, in any summation order, without building that
// slice.

// sumOf adds item scores.
func sumOf(items []Likert) int {
	sum := 0
	for _, x := range items {
		sum += int(x)
	}
	return sum
}

// meanOf is the mean of a non-empty run of item scores.
func meanOf(items []Likert) float64 {
	return float64(sumOf(items)) / float64(len(items))
}

// composite is the Beyerlein composite: the mean of the definition
// score and the average of the component scores.
func composite(definition Likert, components []Likert) (float64, error) {
	if len(components) == 0 {
		return 0, stats.ErrInsufficientData
	}
	return (float64(definition) + meanOf(components)) / 2, nil
}

// ElementResponse holds one student's scores for one element under one
// category: the definition item plus each component item. It is the
// name-keyed exchange shape of Sheet.Get and Sheet.Set; the analysis
// reads sheets through their dense accessors instead.
type ElementResponse struct {
	Definition Likert
	Components []Likert
}

// Scores flattens the response to float64s, definition first — the order
// the analysis averages over ("averaging all question scores").
func (er ElementResponse) Scores() []float64 {
	out := make([]float64, 0, 1+len(er.Components))
	out = append(out, float64(er.Definition))
	for _, c := range er.Components {
		out = append(out, float64(c))
	}
	return out
}

// Average is the mean of all item scores in the element response.
func (er ElementResponse) Average() float64 {
	return float64(int(er.Definition)+sumOf(er.Components)) / float64(1+len(er.Components))
}

// Composite is the Beyerlein composite: the mean of the definition score
// and the average of the component scores.
func (er ElementResponse) Composite() (float64, error) {
	return composite(er.Definition, er.Components)
}

// Sheet is one student's completed survey form for one wave. Scores are
// stored densely, one Likert per item: the Class Emphasis block, then
// the Personal Growth block, each holding the instrument's elements in
// order with the definition item first. Element ordinals index the
// instrument's Elements; the item offsets are the instrument's, computed
// once when it was built. A zero score is an unanswered item.
type Sheet struct {
	StudentID int
	Wave      Wave
	ins       *Instrument
	offsets   []int
	items     []Likert
}

// NewSheet allocates an unanswered sheet laid out for the instrument.
func NewSheet(ins *Instrument, studentID int, wave Wave) *Sheet {
	offsets := ins.layout()
	return &Sheet{StudentID: studentID, Wave: wave, ins: ins, offsets: offsets,
		items: make([]Likert, len(Categories)*offsets[len(offsets)-1])}
}

// NewWave allocates n unanswered sheets for one administration, student
// IDs 0..n-1, in three allocations: the sheets, their pointers, and one
// shared score array.
func NewWave(ins *Instrument, wave Wave, n int) WaveData {
	offsets := ins.layout()
	per := len(Categories) * offsets[len(offsets)-1]
	items := make([]Likert, n*per)
	sheets := make([]Sheet, n)
	wd := WaveData{Wave: wave, Sheets: make([]*Sheet, n)}
	for i := range sheets {
		sheets[i] = Sheet{StudentID: i, Wave: wave, ins: ins, offsets: offsets,
			items: items[i*per : (i+1)*per : (i+1)*per]}
		wd.Sheets[i] = &sheets[i]
	}
	return wd
}

// Items returns the scores of element ordinal e under the category,
// definition first. The slice aliases the sheet: writing to it answers
// the items.
func (s *Sheet) Items(c Category, e int) []Likert {
	base := int(c) * s.offsets[len(s.offsets)-1]
	lo, hi := base+s.offsets[e], base+s.offsets[e+1]
	return s.items[lo:hi:hi]
}

// category returns every score under the category.
func (s *Sheet) category(c Category) []Likert {
	n := s.offsets[len(s.offsets)-1]
	return s.items[int(c)*n : (int(c)+1)*n]
}

// element resolves an element name to its ordinal on the sheet's
// instrument.
func (s *Sheet) element(c Category, name string) (int, error) {
	e, ok := s.ins.index(name)
	if !ok {
		return 0, fmt.Errorf("survey: no %v response for %q on sheet %d", c, name, s.StudentID)
	}
	return e, nil
}

// Set records the response for an element under a category. The
// element must be on the sheet's instrument and the response must carry
// exactly its component count.
func (s *Sheet) Set(c Category, element string, r ElementResponse) error {
	e, err := s.element(c, element)
	if err != nil {
		return err
	}
	items := s.Items(c, e)
	if len(r.Components) != len(items)-1 {
		return fmt.Errorf("survey: sheet %d %v %q response has %d components, want %d",
			s.StudentID, c, element, len(r.Components), len(items)-1)
	}
	items[0] = r.Definition
	copy(items[1:], r.Components)
	return nil
}

// Get returns the response for an element under a category; ok is false
// when the element is not on the sheet's instrument. The components
// alias the sheet's scores.
func (s *Sheet) Get(c Category, element string) (ElementResponse, bool) {
	e, ok := s.ins.index(element)
	if !ok {
		return ElementResponse{}, false
	}
	items := s.Items(c, e)
	return ElementResponse{Definition: items[0], Components: items[1:]}, true
}

// Validate checks the sheet is complete and on-scale against the
// instrument: laid out for it, every element answered under both
// categories, all scores in 1..5.
func (s *Sheet) Validate(ins *Instrument) error {
	if !s.ins.sameLayout(ins) {
		return fmt.Errorf("survey: sheet %d is laid out for a different instrument", s.StudentID)
	}
	for _, c := range Categories {
		for ei, e := range ins.Elements {
			items := s.Items(c, ei)
			if unanswered(items) {
				return fmt.Errorf("survey: sheet %d missing %v response for %q", s.StudentID, c, e.Name)
			}
			if !items[0].Valid() {
				return fmt.Errorf("survey: sheet %d %v %q definition score %d off scale",
					s.StudentID, c, e.Name, items[0])
			}
			for i, comp := range items[1:] {
				if !comp.Valid() {
					return fmt.Errorf("survey: sheet %d %v %q component %d score %d off scale",
						s.StudentID, c, e.Name, i, comp)
				}
			}
		}
	}
	return nil
}

// unanswered reports whether no item of an element has a score.
func unanswered(items []Likert) bool {
	for _, x := range items {
		if x != 0 {
			return false
		}
	}
	return true
}

// CategoryAverage is the mean of every item score under the category —
// the per-student variable Table 1's t-tests compare ("created by
// averaging all class emphasis question scores").
func (s *Sheet) CategoryAverage(c Category) float64 {
	return meanOf(s.category(c))
}

// SkillAverage is the mean of all item scores for one element under one
// category — the per-student per-skill variable Table 4 correlates.
func (s *Sheet) SkillAverage(c Category, element string) (float64, error) {
	e, err := s.element(c, element)
	if err != nil {
		return 0, err
	}
	return meanOf(s.Items(c, e)), nil
}

// WaveData is the set of all sheets collected in one administration.
type WaveData struct {
	Wave   Wave
	Sheets []*Sheet
}

// CategoryAverages returns one value per student: their category average.
func (w WaveData) CategoryAverages(c Category) []float64 {
	out := make([]float64, len(w.Sheets))
	for i, s := range w.Sheets {
		out[i] = s.CategoryAverage(c)
	}
	return out
}

// SkillAverages returns one value per student for the element/category.
func (w WaveData) SkillAverages(c Category, element string) ([]float64, error) {
	out := make([]float64, len(w.Sheets))
	for i, s := range w.Sheets {
		v, err := s.SkillAverage(c, element)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// CompositeMean returns the across-students mean of the Beyerlein
// composite for the element/category — one cell of Tables 5/6.
func (w WaveData) CompositeMean(c Category, element string) (float64, error) {
	if len(w.Sheets) == 0 {
		return 0, stats.ErrInsufficientData
	}
	vals := make([]float64, len(w.Sheets))
	for i, s := range w.Sheets {
		e, ok := s.ins.index(element)
		if !ok {
			return 0, fmt.Errorf("survey: sheet %d missing %q", s.StudentID, element)
		}
		items := s.Items(c, e)
		comp, err := composite(items[0], items[1:])
		if err != nil {
			return 0, err
		}
		vals[i] = comp
	}
	return stats.MustMean(vals), nil
}

// CompositeTable builds the element → composite-mean map for a category —
// a whole column of Table 5 (emphasis) or Table 6 (growth).
func (w WaveData) CompositeTable(ins *Instrument, c Category) (map[string]float64, error) {
	out := make(map[string]float64, len(ins.Elements))
	for _, e := range ins.Elements {
		m, err := w.CompositeMean(c, e.Name)
		if err != nil {
			return nil, err
		}
		out[e.Name] = m
	}
	return out, nil
}

// Validate validates every sheet and checks wave tags agree.
func (w WaveData) Validate(ins *Instrument) error {
	for _, s := range w.Sheets {
		if s.Wave != w.Wave {
			return fmt.Errorf("survey: sheet %d tagged %v inside %v wave data", s.StudentID, s.Wave, w.Wave)
		}
		if err := s.Validate(ins); err != nil {
			return err
		}
	}
	return nil
}
