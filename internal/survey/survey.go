// Package survey models the Beyerlein et al. Team Design Skills Growth
// Survey the paper uses for assessment: seven skill elements, each with a
// definition item and several component (performance-indicator) items,
// rated on two five-point categories — Class Emphasis and Personal
// Growth — and administered in two waves (mid-semester and end of term).
package survey

import (
	"fmt"
	"strings"

	"pblparallel/internal/paperdata"
)

// Category selects which of the survey's two rating scales a score
// belongs to.
type Category int

const (
	// ClassEmphasis asks how much the class stressed the skill
	// (1 "Did not discuss" … 5 "Major emphasis").
	ClassEmphasis Category = iota
	// PersonalGrowth asks how much the respondent's own skill grew
	// (1 "I did not use this skill" … 5 "tremendous growth").
	PersonalGrowth
)

// String names the category as the paper does.
func (c Category) String() string {
	switch c {
	case ClassEmphasis:
		return "Class Emphasis"
	case PersonalGrowth:
		return "Personal Growth"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Anchors returns the five Likert anchor texts for the category.
func (c Category) Anchors() [5]string {
	if c == ClassEmphasis {
		return paperdata.EmphasisScaleAnchors
	}
	return paperdata.GrowthScaleAnchors
}

// Categories lists both scales in presentation order.
var Categories = []Category{ClassEmphasis, PersonalGrowth}

// Wave identifies which administration of the survey a response belongs to.
type Wave int

const (
	// MidSemester is the first administration (week 8, Fig. 1).
	MidSemester Wave = iota
	// EndOfTerm is the second administration (week 15).
	EndOfTerm
)

// String names the wave as the paper's tables do.
func (w Wave) String() string {
	switch w {
	case MidSemester:
		return "First Half Survey"
	case EndOfTerm:
		return "Second Half Survey"
	default:
		return fmt.Sprintf("Wave(%d)", int(w))
	}
}

// Waves lists both administrations in chronological order.
var Waves = []Wave{MidSemester, EndOfTerm}

// Element is one of the seven survey skills: a definition item plus its
// component performance indicators.
type Element struct {
	Name       string
	Definition string
	Components []string
}

// NItems returns the number of scored items in the element (definition
// plus components).
func (e Element) NItems() int { return 1 + len(e.Components) }

// Instrument is a full survey form. Build one with NewInstrument; its
// elements are fixed from then on, because sheets lay their scores out
// by the item offsets computed there.
type Instrument struct {
	Title    string
	Elements []Element
	// offsets[e] is element e's first item within one category's block
	// of a sheet; the final entry is the item count per category.
	offsets []int
}

// NewInstrument builds an instrument and computes its sheet layout.
func NewInstrument(title string, elements []Element) *Instrument {
	return &Instrument{Title: title, Elements: elements, offsets: itemOffsets(elements)}
}

// itemOffsets computes the per-category item offset of each element.
func itemOffsets(elements []Element) []int {
	offsets := make([]int, len(elements)+1)
	for i, e := range elements {
		offsets[i+1] = offsets[i] + e.NItems()
	}
	return offsets
}

// layout returns the item offsets, computing them for an instrument
// built as a literal rather than by NewInstrument.
func (ins *Instrument) layout() []int {
	if len(ins.offsets) == len(ins.Elements)+1 {
		return ins.offsets
	}
	return itemOffsets(ins.Elements)
}

// index resolves an element name to its ordinal.
func (ins *Instrument) index(name string) (int, bool) {
	for i, e := range ins.Elements {
		if e.Name == name {
			return i, true
		}
	}
	return 0, false
}

// sameLayout reports whether sheets laid out for ins and for other
// place every item at the same offset under the same element name.
func (ins *Instrument) sameLayout(other *Instrument) bool {
	if ins == other {
		return true
	}
	if len(ins.Elements) != len(other.Elements) {
		return false
	}
	for i, e := range ins.Elements {
		o := other.Elements[i]
		if e.Name != o.Name || e.NItems() != o.NItems() {
			return false
		}
	}
	return true
}

// NewBeyerlein constructs the instrument the paper administered. The
// Teamwork element reproduces Fig. 2 verbatim; the remaining elements
// follow the Beyerlein et al. (ASEE 2005) design of a definition item and
// three to four performance indicators.
func NewBeyerlein() *Instrument {
	return NewInstrument("Team Design Skills Growth Survey",
		[]Element{
			{
				Name:       paperdata.Teamwork,
				Definition: "Individuals participate effectively in groups or teams.",
				Components: []string{
					"Individuals understand their own and other member's styles of thinking and how they affect teamwork.",
					"Individuals understand the different roles included in effective teamwork and responsibilities of each role.",
					"Individuals use effective group communication skills: listening, speaking, visual communication.",
					"Individuals cooperate to support effective teamwork.",
				},
			},
			{
				Name:       paperdata.InformationGathering,
				Definition: "Individuals collect and organize information relevant to an open-ended problem.",
				Components: []string{
					"Individuals identify what information is needed to address a problem.",
					"Individuals locate and retrieve information from appropriate sources.",
					"Individuals evaluate the quality and relevance of gathered information.",
				},
			},
			{
				Name:       paperdata.ProblemDefinition,
				Definition: "Individuals formulate clear statements of open-ended problems.",
				Components: []string{
					"Individuals identify customer needs and translate them into requirements.",
					"Individuals state constraints and success criteria for a problem.",
					"Individuals decompose a complex problem into tractable sub-problems.",
				},
			},
			{
				Name:       paperdata.IdeaGeneration,
				Definition: "Individuals generate a wide range of candidate solutions.",
				Components: []string{
					"Individuals use brainstorming and other divergent-thinking techniques.",
					"Individuals build on and combine the ideas of others.",
					"Individuals defer judgment while generating alternatives.",
				},
			},
			{
				Name:       paperdata.EvaluationDecision,
				Definition: "Individuals evaluate alternatives and make sound, justified decisions.",
				Components: []string{
					"Individuals establish criteria for comparing alternative solutions.",
					"Individuals analyze trade-offs among alternatives.",
					"Individuals justify and document the rationale for a decision.",
				},
			},
			{
				Name:       paperdata.Implementation,
				Definition: "Individuals carry a chosen solution through to a working result.",
				Components: []string{
					"Individuals plan and schedule implementation tasks.",
					"Individuals build, code, and integrate components of the solution.",
					"Individuals test the solution and correct defects systematically.",
					"Individuals measure and report on the behaviour of the implemented solution.",
				},
			},
			{
				Name:       paperdata.Communication,
				Definition: "Individuals communicate technical work clearly in written, oral, and visual forms.",
				Components: []string{
					"Individuals produce clear, well-organized written reports.",
					"Individuals deliver effective oral and video presentations.",
					"Individuals use figures, code excerpts, and data to support explanations.",
				},
			},
		})
}

// Element returns the named element, or an error naming the valid set.
func (ins *Instrument) Element(name string) (Element, error) {
	i, err := ins.ordinal(name)
	if err != nil {
		return Element{}, err
	}
	return ins.Elements[i], nil
}

// ordinal resolves an element name to its ordinal, or an error naming
// the valid set.
func (ins *Instrument) ordinal(name string) (int, error) {
	if i, ok := ins.index(name); ok {
		return i, nil
	}
	return 0, fmt.Errorf("survey: unknown element %q (have %s)", name, strings.Join(ins.ElementNames(), ", "))
}

// ElementNames lists the element names in presentation order.
func (ins *Instrument) ElementNames() []string {
	names := make([]string, len(ins.Elements))
	for i, e := range ins.Elements {
		names[i] = e.Name
	}
	return names
}

// TotalItems returns the number of scored items on the whole form for one
// category (each item is scored once per category).
func (ins *Instrument) TotalItems() int {
	offsets := ins.layout()
	return offsets[len(offsets)-1]
}
