package survey

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV interchange for survey data, so the synthetic sheets can be
// analyzed in external tools (or real collected sheets imported). The
// layout is long-form, one row per item score:
//
//	student,wave,category,element,item,score
//
// where item 0 is the definition and items 1..k the components.

// csvHeader is the fixed column set.
var csvHeader = []string{"student", "wave", "category", "element", "item", "score"}

// WriteCSV writes a wave's sheets in long form.
func WriteCSV(w io.Writer, ins *Instrument, wd WaveData) error {
	if err := wd.Validate(ins); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, sheet := range wd.Sheets {
		for ei, e := range ins.Elements {
			for _, c := range Categories {
				for i, score := range sheet.Items(c, ei) {
					rec := []string{
						strconv.Itoa(sheet.StudentID),
						strconv.Itoa(int(sheet.Wave)),
						strconv.Itoa(int(c)),
						e.Name,
						strconv.Itoa(i),
						strconv.Itoa(int(score)),
					}
					if err := cw.Write(rec); err != nil {
						return err
					}
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses long-form rows back into a WaveData for the given
// wave, validating against the instrument. Rows belonging to other
// waves are rejected (export one wave per file).
func ReadCSV(r io.Reader, ins *Instrument, wave Wave) (WaveData, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return WaveData{}, fmt.Errorf("survey: csv header: %w", err)
	}
	if len(header) != len(csvHeader) {
		return WaveData{}, fmt.Errorf("survey: csv header has %d columns, want %d", len(header), len(csvHeader))
	}
	for i, want := range csvHeader {
		if header[i] != want {
			return WaveData{}, fmt.Errorf("survey: csv column %d is %q, want %q", i, header[i], want)
		}
	}
	sheets := map[int]*Sheet{}
	var order []int
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return WaveData{}, fmt.Errorf("survey: csv line %d: %w", line, err)
		}
		student, err1 := strconv.Atoi(rec[0])
		waveN, err2 := strconv.Atoi(rec[1])
		catN, err3 := strconv.Atoi(rec[2])
		element := rec[3]
		item, err4 := strconv.Atoi(rec[4])
		score, err5 := strconv.Atoi(rec[5])
		for _, e := range []error{err1, err2, err3, err4, err5} {
			if e != nil {
				return WaveData{}, fmt.Errorf("survey: csv line %d: %v", line, e)
			}
		}
		if Wave(waveN) != wave {
			return WaveData{}, fmt.Errorf("survey: csv line %d: wave %d, reading wave %d", line, waveN, int(wave))
		}
		if catN != int(ClassEmphasis) && catN != int(PersonalGrowth) {
			return WaveData{}, fmt.Errorf("survey: csv line %d: bad category %d", line, catN)
		}
		ei, err := ins.ordinal(element)
		if err != nil {
			return WaveData{}, fmt.Errorf("survey: csv line %d: %w", line, err)
		}
		if item < 0 || item >= ins.Elements[ei].NItems() {
			return WaveData{}, fmt.Errorf("survey: csv line %d: item %d of %q out of range", line, item, element)
		}
		if score < 1 || score > 5 {
			return WaveData{}, fmt.Errorf("survey: csv line %d: score %d off the 1-5 scale", line, score)
		}
		sheet, ok := sheets[student]
		if !ok {
			// A new sheet starts unanswered, so items can land in any
			// order and Validate rejects any left out.
			sheet = NewSheet(ins, student, wave)
			sheets[student] = sheet
			order = append(order, student)
		}
		sheet.Items(Category(catN), ei)[item] = Likert(score)
	}
	wd := WaveData{Wave: wave}
	for _, id := range order {
		wd.Sheets = append(wd.Sheets, sheets[id])
	}
	if err := wd.Validate(ins); err != nil {
		return WaveData{}, fmt.Errorf("survey: csv import incomplete: %w", err)
	}
	return wd, nil
}
