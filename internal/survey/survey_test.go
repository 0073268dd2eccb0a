package survey

import (
	"math"
	"strings"
	"testing"

	"pblparallel/internal/paperdata"
)

func TestNewBeyerleinStructure(t *testing.T) {
	ins := NewBeyerlein()
	if len(ins.Elements) != 7 {
		t.Fatalf("got %d elements, want 7", len(ins.Elements))
	}
	for i, want := range paperdata.Skills {
		if ins.Elements[i].Name != want {
			t.Fatalf("element %d = %q, want %q", i, ins.Elements[i].Name, want)
		}
	}
	for _, e := range ins.Elements {
		if e.Definition == "" {
			t.Fatalf("%q has empty definition", e.Name)
		}
		if len(e.Components) < 3 {
			t.Fatalf("%q has %d components, want >= 3", e.Name, len(e.Components))
		}
		if e.NItems() != 1+len(e.Components) {
			t.Fatalf("%q NItems = %d", e.Name, e.NItems())
		}
	}
}

func TestTeamworkMatchesFig2(t *testing.T) {
	ins := NewBeyerlein()
	tw, err := ins.Element(paperdata.Teamwork)
	if err != nil {
		t.Fatal(err)
	}
	if tw.Definition != "Individuals participate effectively in groups or teams." {
		t.Fatalf("definition = %q", tw.Definition)
	}
	if len(tw.Components) != 4 {
		t.Fatalf("teamwork has %d components, Fig. 2 shows 4", len(tw.Components))
	}
	if !strings.Contains(tw.Components[2], "listening, speaking, visual communication") {
		t.Fatalf("component 3 = %q", tw.Components[2])
	}
}

func TestElementLookupError(t *testing.T) {
	ins := NewBeyerlein()
	if _, err := ins.Element("Nonexistent"); err == nil {
		t.Fatal("expected error for unknown element")
	}
}

func TestElementNamesAndTotalItems(t *testing.T) {
	ins := NewBeyerlein()
	names := ins.ElementNames()
	if len(names) != 7 {
		t.Fatalf("names = %v", names)
	}
	want := 0
	for _, e := range ins.Elements {
		want += e.NItems()
	}
	if got := ins.TotalItems(); got != want || got < 7*4 {
		t.Fatalf("TotalItems = %d, want %d (>= 28)", got, want)
	}
}

func TestCategoryStringsAndAnchors(t *testing.T) {
	if ClassEmphasis.String() != "Class Emphasis" || PersonalGrowth.String() != "Personal Growth" {
		t.Fatal("category names wrong")
	}
	if Category(9).String() == "" || Wave(9).String() == "" {
		t.Fatal("out-of-range stringers should still produce text")
	}
	if ClassEmphasis.Anchors()[3] != "Significant emphasis" {
		t.Fatalf("anchor = %q", ClassEmphasis.Anchors()[3])
	}
	if PersonalGrowth.Anchors()[0] != "I did not use this skill within this class" {
		t.Fatalf("anchor = %q", PersonalGrowth.Anchors()[0])
	}
}

func TestWaveStrings(t *testing.T) {
	if MidSemester.String() != "First Half Survey" || EndOfTerm.String() != "Second Half Survey" {
		t.Fatal("wave names must match the paper's table headers")
	}
}

func TestLikertValid(t *testing.T) {
	for _, l := range []Likert{1, 2, 3, 4, 5} {
		if !l.Valid() {
			t.Fatalf("%d should be valid", l)
		}
	}
	for _, l := range []Likert{0, 6, -1} {
		if l.Valid() {
			t.Fatalf("%d should be invalid", l)
		}
	}
}

func TestElementResponseAverages(t *testing.T) {
	er := ElementResponse{Definition: 4, Components: []Likert{4, 5, 3, 4}}
	if got := er.Average(); math.Abs(got-4.0) > 1e-12 {
		t.Fatalf("Average = %v", got)
	}
	comp, err := er.Composite()
	if err != nil {
		t.Fatal(err)
	}
	if want := (4.0 + 4.0) / 2; math.Abs(comp-want) > 1e-12 {
		t.Fatalf("Composite = %v, want %v", comp, want)
	}
}

func TestCompositeVsAverageDiffer(t *testing.T) {
	// Composite weights the definition at 1/2; the plain average does not.
	er := ElementResponse{Definition: 5, Components: []Likert{1, 1, 1}}
	avg := er.Average()       // (5+1+1+1)/4 = 2
	comp, _ := er.Composite() // (5 + 1)/2 = 3
	if !(comp > avg) {
		t.Fatalf("composite %v should exceed average %v here", comp, avg)
	}
}

func TestCompositeEmptyComponents(t *testing.T) {
	er := ElementResponse{Definition: 4}
	if _, err := er.Composite(); err == nil {
		t.Fatal("expected error on empty components")
	}
}

func fullSheet(t *testing.T, ins *Instrument, id int, wave Wave, score Likert) *Sheet {
	t.Helper()
	s := NewSheet(ins, id, wave)
	for _, e := range ins.Elements {
		comps := make([]Likert, len(e.Components))
		for i := range comps {
			comps[i] = score
		}
		s.Set(ClassEmphasis, e.Name, ElementResponse{Definition: score, Components: comps})
		s.Set(PersonalGrowth, e.Name, ElementResponse{Definition: score, Components: comps})
	}
	return s
}

func TestSheetValidateComplete(t *testing.T) {
	ins := NewBeyerlein()
	s := fullSheet(t, ins, 1, MidSemester, 4)
	if err := s.Validate(ins); err != nil {
		t.Fatal(err)
	}
}

func TestSheetValidateCatchesMissingElement(t *testing.T) {
	ins := NewBeyerlein()
	s := fullSheet(t, ins, 1, MidSemester, 4)
	// A dense sheet marks a missing element as all-unanswered items.
	if err := s.Set(ClassEmphasis, paperdata.Teamwork, ElementResponse{Components: make([]Likert, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(ins); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("expected missing-element error, got %v", err)
	}
}

func TestSheetValidateCatchesOffScale(t *testing.T) {
	ins := NewBeyerlein()
	s := fullSheet(t, ins, 1, MidSemester, 4)
	r, _ := s.Get(ClassEmphasis, paperdata.Teamwork)
	r.Definition = 6
	if err := s.Set(ClassEmphasis, paperdata.Teamwork, r); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(ins); err == nil {
		t.Fatal("expected off-scale error")
	}
	r.Definition = 4
	r.Components = append([]Likert(nil), r.Components...)
	r.Components[0] = 0
	if err := s.Set(ClassEmphasis, paperdata.Teamwork, r); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(ins); err == nil {
		t.Fatal("expected off-scale component error")
	}
}

func TestSheetValidateCatchesWrongComponentCount(t *testing.T) {
	ins := NewBeyerlein()
	s := fullSheet(t, ins, 1, MidSemester, 4)
	// A dense sheet cannot hold a short response: Set rejects it and
	// leaves the sheet as it was.
	r, _ := s.Get(PersonalGrowth, paperdata.Communication)
	r.Components = r.Components[:1]
	if err := s.Set(PersonalGrowth, paperdata.Communication, r); err == nil {
		t.Fatal("Set accepted a short response")
	}
	if err := s.Validate(ins); err != nil {
		t.Fatal(err)
	}
	// Validating against an instrument whose element has a different
	// component count is a layout mismatch.
	elems := append([]Element(nil), ins.Elements...)
	last := len(elems) - 1
	elems[last].Components = elems[last].Components[:1]
	if err := s.Validate(NewInstrument(ins.Title, elems)); err == nil {
		t.Fatal("expected component-count error")
	}
}

func TestCategoryAndSkillAverages(t *testing.T) {
	ins := NewBeyerlein()
	s := fullSheet(t, ins, 7, EndOfTerm, 4)
	if got := s.CategoryAverage(ClassEmphasis); math.Abs(got-4) > 1e-12 {
		t.Fatalf("CategoryAverage = %v", got)
	}
	v, err := s.SkillAverage(PersonalGrowth, paperdata.Implementation)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-4) > 1e-12 {
		t.Fatalf("SkillAverage = %v", v)
	}
	if _, err := s.SkillAverage(PersonalGrowth, "nope"); err == nil {
		t.Fatal("expected unknown-skill error")
	}
}

func TestWaveDataAggregation(t *testing.T) {
	ins := NewBeyerlein()
	wd := WaveData{Wave: MidSemester, Sheets: []*Sheet{
		fullSheet(t, ins, 0, MidSemester, 3),
		fullSheet(t, ins, 1, MidSemester, 5),
	}}
	if err := wd.Validate(ins); err != nil {
		t.Fatal(err)
	}
	avgs := wd.CategoryAverages(ClassEmphasis)
	if len(avgs) != 2 || avgs[0] != 3 || avgs[1] != 5 {
		t.Fatalf("avgs = %v", avgs)
	}
	sk, err := wd.SkillAverages(PersonalGrowth, paperdata.Teamwork)
	if err != nil {
		t.Fatal(err)
	}
	if sk[0] != 3 || sk[1] != 5 {
		t.Fatalf("skill avgs = %v", sk)
	}
	cm, err := wd.CompositeMean(ClassEmphasis, paperdata.Teamwork)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cm-4) > 1e-12 {
		t.Fatalf("composite mean = %v", cm)
	}
	tbl, err := wd.CompositeTable(ins, ClassEmphasis)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl) != 7 {
		t.Fatalf("table size = %d", len(tbl))
	}
}

func TestWaveDataValidateWaveTag(t *testing.T) {
	ins := NewBeyerlein()
	wd := WaveData{Wave: MidSemester, Sheets: []*Sheet{fullSheet(t, ins, 0, EndOfTerm, 3)}}
	if err := wd.Validate(ins); err == nil {
		t.Fatal("expected wave-tag error")
	}
}

func TestWaveDataEmptyCompositeMean(t *testing.T) {
	wd := WaveData{Wave: MidSemester}
	if _, err := wd.CompositeMean(ClassEmphasis, paperdata.Teamwork); err == nil {
		t.Fatal("expected error on empty wave")
	}
}

func TestRenderElementFig2(t *testing.T) {
	ins := NewBeyerlein()
	tw, _ := ins.Element(paperdata.Teamwork)
	var b strings.Builder
	if err := RenderElement(&b, tw); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Element: Teamwork",
		"participate effectively in groups or teams",
		"Class Emphasis scale:",
		"Personal Growth scale:",
		"5: Major emphasis",
		"1: I did not use this skill within this class",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestRenderInstrument(t *testing.T) {
	var b strings.Builder
	if err := RenderInstrument(&b, NewBeyerlein()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, skill := range paperdata.Skills {
		if !strings.Contains(out, "Element: "+skill) {
			t.Fatalf("instrument rendering missing %q", skill)
		}
	}
}

func TestGetSetRoundTrip(t *testing.T) {
	s := NewSheet(NewBeyerlein(), 3, MidSemester)
	er := ElementResponse{Definition: 2, Components: []Likert{3, 4, 5, 1}}
	if err := s.Set(PersonalGrowth, paperdata.Teamwork, er); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(PersonalGrowth, paperdata.Teamwork)
	if !ok || got.Definition != 2 || len(got.Components) != 4 || got.Components[3] != 1 {
		t.Fatalf("roundtrip = %+v ok=%v", got, ok)
	}
	if other, _ := s.Get(ClassEmphasis, paperdata.Teamwork); other.Definition != 0 {
		t.Fatal("category bleed-through")
	}
	if err := s.Set(PersonalGrowth, "X", er); err == nil {
		t.Fatal("Set accepted an element not on the instrument")
	}
	if _, ok := s.Get(PersonalGrowth, "X"); ok {
		t.Fatal("Get found an element not on the instrument")
	}
}
