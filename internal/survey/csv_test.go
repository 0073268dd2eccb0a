package survey

import (
	"strings"
	"testing"
)

func csvWave(t testing.TB) WaveData {
	t.Helper()
	ins := NewBeyerlein()
	wd := WaveData{Wave: MidSemester}
	for id := 0; id < 3; id++ {
		s := NewSheet(ins, id, MidSemester)
		for ei, e := range ins.Elements {
			comps := make([]Likert, len(e.Components))
			for i := range comps {
				comps[i] = Likert(1 + (id+ei+i)%5)
			}
			s.Set(ClassEmphasis, e.Name, ElementResponse{Definition: Likert(1 + (id+ei)%5), Components: comps})
			s.Set(PersonalGrowth, e.Name, ElementResponse{Definition: Likert(1 + (id+ei+1)%5), Components: comps})
		}
		wd.Sheets = append(wd.Sheets, s)
	}
	return wd
}

func TestCSVRoundTrip(t *testing.T) {
	ins := NewBeyerlein()
	wd := csvWave(t)
	var b strings.Builder
	if err := WriteCSV(&b, ins, wd); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(b.String()), ins, MidSemester)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Sheets) != len(wd.Sheets) {
		t.Fatalf("%d sheets back", len(back.Sheets))
	}
	for i, orig := range wd.Sheets {
		got := back.Sheets[i]
		if got.StudentID != orig.StudentID {
			t.Fatalf("sheet %d id %d", i, got.StudentID)
		}
		for _, e := range ins.Elements {
			for _, c := range Categories {
				ro, _ := orig.Get(c, e.Name)
				rg, ok := got.Get(c, e.Name)
				if !ok || rg.Definition != ro.Definition {
					t.Fatalf("sheet %d %s/%v definition mismatch", i, e.Name, c)
				}
				for k := range ro.Components {
					if rg.Components[k] != ro.Components[k] {
						t.Fatalf("sheet %d %s/%v component %d mismatch", i, e.Name, c, k)
					}
				}
			}
		}
	}
}

func TestCSVHasHeaderAndRowCount(t *testing.T) {
	ins := NewBeyerlein()
	wd := csvWave(t)
	var b strings.Builder
	if err := WriteCSV(&b, ins, wd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	// header + 3 students × 2 categories × TotalItems.
	want := 1 + 3*2*ins.TotalItems()
	if len(lines) != want {
		t.Fatalf("%d lines, want %d", len(lines), want)
	}
	if lines[0] != "student,wave,category,element,item,score" {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestWriteCSVValidates(t *testing.T) {
	ins := NewBeyerlein()
	bad := WaveData{Wave: MidSemester, Sheets: []*Sheet{NewSheet(ins, 0, MidSemester)}}
	var b strings.Builder
	if err := WriteCSV(&b, ins, bad); err == nil {
		t.Fatal("incomplete sheet accepted")
	}
}

func TestReadCSVErrors(t *testing.T) {
	ins := NewBeyerlein()
	cases := map[string]string{
		"bad header":    "a,b,c\n",
		"short header":  "student,wave\n",
		"bad student":   "student,wave,category,element,item,score\nx,0,0,Teamwork,0,4\n",
		"wrong wave":    "student,wave,category,element,item,score\n0,1,0,Teamwork,0,4\n",
		"bad category":  "student,wave,category,element,item,score\n0,0,7,Teamwork,0,4\n",
		"bad element":   "student,wave,category,element,item,score\n0,0,0,Nope,0,4\n",
		"item range":    "student,wave,category,element,item,score\n0,0,0,Teamwork,9,4\n",
		"incomplete":    "student,wave,category,element,item,score\n0,0,0,Teamwork,0,4\n",
		"ragged record": "student,wave,category,element,item,score\n0,0,0\n",
	}
	for name, src := range cases {
		if _, err := ReadCSV(strings.NewReader(src), ins, MidSemester); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestReadCSVOffScaleScoreRejected(t *testing.T) {
	// A structurally complete file with one off-scale score must fail
	// final validation. Build it by exporting then corrupting.
	ins := NewBeyerlein()
	wd := csvWave(t)
	var b strings.Builder
	if err := WriteCSV(&b, ins, wd); err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(b.String(), ",0,4\n", ",0,9\n", 1)
	if corrupted == b.String() {
		corrupted = strings.Replace(b.String(), ",0,1\n", ",0,9\n", 1)
	}
	if _, err := ReadCSV(strings.NewReader(corrupted), ins, MidSemester); err == nil {
		t.Fatal("off-scale score accepted")
	}
}

func TestReadCSVRejectsUnansweredItem(t *testing.T) {
	// Dropping one row leaves a single unanswered (zero) item on an
	// otherwise complete dense sheet; the import must still fail.
	ins := NewBeyerlein()
	var b strings.Builder
	if err := WriteCSV(&b, ins, csvWave(t)); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(b.String(), "\n")
	for _, drop := range []int{1, len(lines) / 2, len(lines) - 2} {
		src := strings.Join(append(append([]string(nil), lines[:drop]...), lines[drop+1:]...), "")
		if _, err := ReadCSV(strings.NewReader(src), ins, MidSemester); err == nil {
			t.Fatalf("import without line %d accepted", drop+1)
		}
	}
}
