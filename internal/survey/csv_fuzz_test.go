package survey

import (
	"bytes"
	"math"
	"testing"

	"pblparallel/internal/stats"
)

// FuzzReadCSV feeds arbitrary bytes to the CSV importer. It must never
// panic; whatever it accepts must be complete and on-scale, survive a
// WriteCSV → ReadCSV round trip unchanged, and read the same through
// the name-keyed Get as through the dense accessors.
func FuzzReadCSV(f *testing.F) {
	ins := NewBeyerlein()
	var valid bytes.Buffer
	if err := WriteCSV(&valid, ins, csvWave(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("student,wave,category,element,item,score\n0,0,0,Teamwork,0,4\n"))
	f.Add([]byte("student,wave,category,element,item,score\n0,0,0,Teamwork,0,0\n"))
	f.Add([]byte("student,wave,category,element,item,score\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		wd, err := ReadCSV(bytes.NewReader(data), ins, MidSemester)
		if err != nil {
			return
		}
		if err := wd.Validate(ins); err != nil {
			t.Fatalf("accepted an invalid wave: %v", err)
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, ins, wd); err != nil {
			t.Fatalf("accepted wave does not export: %v", err)
		}
		back, err := ReadCSV(bytes.NewReader(out.Bytes()), ins, MidSemester)
		if err != nil {
			t.Fatalf("exported wave does not import: %v", err)
		}
		if len(back.Sheets) != len(wd.Sheets) {
			t.Fatalf("round trip: %d sheets, want %d", len(back.Sheets), len(wd.Sheets))
		}
		for i, s := range wd.Sheets {
			got := back.Sheets[i]
			if got.StudentID != s.StudentID || got.Wave != s.Wave || !bytes.Equal(likertBytes(got.items), likertBytes(s.items)) {
				t.Fatalf("round trip changed sheet %d", s.StudentID)
			}
			checkNameKeyedAgrees(t, ins, s)
		}
	})
}

// likertBytes views scores as bytes for comparison.
func likertBytes(items []Likert) []byte {
	out := make([]byte, len(items))
	for i, x := range items {
		out[i] = byte(x)
	}
	return out
}

// checkNameKeyedAgrees asserts Get returns the dense items and that the
// dense averages are bit-equal to the stats reference over Get's scores.
func checkNameKeyedAgrees(t *testing.T, ins *Instrument, s *Sheet) {
	t.Helper()
	for _, c := range Categories {
		var all []float64
		for ei, e := range ins.Elements {
			r, ok := s.Get(c, e.Name)
			if !ok {
				t.Fatalf("sheet %d: Get(%v, %q) missing", s.StudentID, c, e.Name)
			}
			items := s.Items(c, ei)
			if r.Definition != items[0] || !bytes.Equal(likertBytes(r.Components), likertBytes(items[1:])) {
				t.Fatalf("sheet %d %v %q: Get %+v, dense %v", s.StudentID, c, e.Name, r, items)
			}
			avg, err := s.SkillAverage(c, e.Name)
			if err != nil {
				t.Fatal(err)
			}
			if want := stats.MustMean(r.Scores()); math.Float64bits(avg) != math.Float64bits(want) {
				t.Fatalf("sheet %d %v %q: SkillAverage %v, reference %v", s.StudentID, c, e.Name, avg, want)
			}
			all = append(all, r.Scores()...)
		}
		if got, want := s.CategoryAverage(c), stats.MustMean(all); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sheet %d %v: CategoryAverage %v, reference %v", s.StudentID, c, got, want)
		}
	}
}
