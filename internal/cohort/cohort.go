// Package cohort generates the student population of the study: 124
// computer-science students (98 male, 26 female) split across two
// sections of CSc 3210, each with the attributes the instructor used to
// form balanced teams — gender, GPA, programming/system experience,
// group-work experience, and technical-writing experience.
package cohort

import (
	"fmt"
	"math/rand"

	"pblparallel/internal/paperdata"
	"pblparallel/internal/rngpool"
)

// Gender is recorded because team formation balances it.
type Gender int

const (
	Male Gender = iota
	Female
)

// String names the gender.
func (g Gender) String() string {
	if g == Female {
		return "F"
	}
	return "M"
}

// ExperienceLevel grades a self-reported skill on the 0–4 rubric the
// team-formation questionnaire used (0 none … 4 extensive).
type ExperienceLevel int

// Valid reports whether the level is on the rubric.
func (e ExperienceLevel) Valid() bool { return e >= 0 && e <= 4 }

// Student is one member of the cohort.
type Student struct {
	ID      int
	Section int // 1 or 2
	Gender  Gender
	GPA     float64 // 0.0 – 4.0
	// Self-reported experience grades from the intake questionnaire.
	Programming      ExperienceLevel
	Systems          ExperienceLevel
	GroupWork        ExperienceLevel
	TechnicalWriting ExperienceLevel
	// Friends lists IDs of prior acquaintances (used to verify the
	// formation criterion "avoid predetermined groups of friends").
	Friends []int
	// Aptitude is the latent skill variable (mean 0, unit scale) that
	// drives the response model; it is never observed by the instructor.
	Aptitude float64
}

// Ability is the scalar the team balancer uses: a weighted blend of GPA
// and experience, mirroring "a balance in ability".
func (s Student) Ability() float64 {
	exp := float64(s.Programming+s.Systems+s.GroupWork+s.TechnicalWriting) / 16 // 0..1
	return 0.6*(s.GPA/4) + 0.4*exp
}

// Validate checks the student record is internally consistent.
func (s Student) Validate() error {
	if s.Section != 1 && s.Section != 2 {
		return fmt.Errorf("cohort: student %d has section %d", s.ID, s.Section)
	}
	if s.GPA < 0 || s.GPA > 4 {
		return fmt.Errorf("cohort: student %d has GPA %v", s.ID, s.GPA)
	}
	for _, e := range []ExperienceLevel{s.Programming, s.Systems, s.GroupWork, s.TechnicalWriting} {
		if !e.Valid() {
			return fmt.Errorf("cohort: student %d has off-rubric experience %d", s.ID, e)
		}
	}
	for _, f := range s.Friends {
		if f == s.ID {
			return fmt.Errorf("cohort: student %d lists self as friend", s.ID)
		}
	}
	return nil
}

// Cohort is the full enrolled population.
type Cohort struct {
	Students []Student
}

// Config controls cohort generation. The zero value is not useful; use
// PaperConfig for the study's published composition.
type Config struct {
	NStudents       int
	NFemale         int
	Sections        int
	Section1Females int // females placed in section 1; rest go to section 2
	// FriendCliqueRate is the fraction of students who arrive with 1–3
	// prior friends in the same section.
	FriendCliqueRate float64
}

// PaperConfig reproduces the published cohort: 124 students, 26 female
// (16 in section 1, 10 in section 2), two sections of 62.
func PaperConfig() Config {
	return Config{
		NStudents:        paperdata.NStudents,
		NFemale:          paperdata.NFemale,
		Sections:         paperdata.NSections,
		Section1Females:  paperdata.Section1Females,
		FriendCliqueRate: 0.25,
	}
}

// Validate rejects impossible configurations.
func (c Config) Validate() error {
	if c.NStudents <= 0 {
		return fmt.Errorf("cohort: NStudents %d", c.NStudents)
	}
	if c.NFemale < 0 || c.NFemale > c.NStudents {
		return fmt.Errorf("cohort: NFemale %d of %d", c.NFemale, c.NStudents)
	}
	if c.Sections != 1 && c.Sections != 2 {
		return fmt.Errorf("cohort: Sections %d (want 1 or 2)", c.Sections)
	}
	if c.Section1Females < 0 || c.Section1Females > c.NFemale {
		return fmt.Errorf("cohort: Section1Females %d of %d", c.Section1Females, c.NFemale)
	}
	if c.FriendCliqueRate < 0 || c.FriendCliqueRate > 1 {
		return fmt.Errorf("cohort: FriendCliqueRate %v", c.FriendCliqueRate)
	}
	return nil
}

// Generate builds a deterministic cohort from the config and seed.
func Generate(cfg Config, seed int64) (*Cohort, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rngpool.Get(seed)
	defer rngpool.Put(rng)
	students := make([]Student, cfg.NStudents)
	half := cfg.NStudents
	if cfg.Sections == 2 {
		half = cfg.NStudents / 2
	}
	// Assign sections round-robin within gender so the per-section
	// female counts match the configuration.
	femalesPlaced := 0
	for i := range students {
		s := &students[i]
		s.ID = i
		s.Gender = Male
		if femalesPlaced < cfg.NFemale {
			// Spread females across the roster deterministically.
			stride := cfg.NStudents / cfg.NFemale
			if stride == 0 {
				stride = 1
			}
			if i%stride == 0 {
				s.Gender = Female
				femalesPlaced++
			}
		}
		s.GPA = clampF(2.0+rng.NormFloat64()*0.55+1.0*rng.Float64(), 0, 4)
		s.Programming = ExperienceLevel(boundedInt(rng, 4))
		s.Systems = ExperienceLevel(boundedInt(rng, 4))
		s.GroupWork = ExperienceLevel(boundedInt(rng, 4))
		s.TechnicalWriting = ExperienceLevel(boundedInt(rng, 4))
		s.Aptitude = rng.NormFloat64()
	}
	// Top up females if striding under-filled (possible when NFemale
	// does not divide NStudents evenly).
	for i := 0; femalesPlaced < cfg.NFemale && i < len(students); i++ {
		if students[i].Gender == Male {
			students[i].Gender = Female
			femalesPlaced++
		}
	}
	// Section assignment honouring Section1Females.
	if cfg.Sections == 2 {
		f1, m1 := 0, 0
		males1 := half - cfg.Section1Females
		for i := range students {
			s := &students[i]
			if s.Gender == Female && f1 < cfg.Section1Females {
				s.Section = 1
				f1++
			} else if s.Gender == Male && m1 < males1 {
				s.Section = 1
				m1++
			} else {
				s.Section = 2
			}
		}
	} else {
		for i := range students {
			students[i].Section = 1
		}
	}
	c := &Cohort{Students: students}
	c.seedFriendships(rng, cfg.FriendCliqueRate)
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// seedFriendships wires symmetric friend links within sections.
// Sections are visited in fixed order: iterating a map here would vary
// the RNG consumption order between runs and break determinism.
func (c *Cohort) seedFriendships(rng *rand.Rand, rate float64) {
	bySection := map[int][]int{}
	for _, s := range c.Students {
		bySection[s.Section] = append(bySection[s.Section], s.ID)
	}
	for _, sec := range []int{1, 2} {
		ids := bySection[sec]
		for _, id := range ids {
			if rng.Float64() >= rate {
				continue
			}
			nFriends := 1 + rng.Intn(3)
			for k := 0; k < nFriends; k++ {
				other := ids[rng.Intn(len(ids))]
				if other == id || hasFriend(c.Students[id].Friends, other) {
					continue
				}
				c.Students[id].Friends = append(c.Students[id].Friends, other)
				c.Students[other].Friends = append(c.Students[other].Friends, id)
			}
		}
	}
}

func hasFriend(fs []int, id int) bool {
	for _, f := range fs {
		if f == id {
			return true
		}
	}
	return false
}

// Validate checks every student and the aggregate composition.
func (c *Cohort) Validate() error {
	for _, s := range c.Students {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CountGender returns (males, females).
func (c *Cohort) CountGender() (males, females int) {
	for _, s := range c.Students {
		if s.Gender == Female {
			females++
		} else {
			males++
		}
	}
	return males, females
}

// Section returns the students enrolled in the given section.
func (c *Cohort) Section(n int) []Student {
	var out []Student
	for _, s := range c.Students {
		if s.Section == n {
			out = append(out, s)
		}
	}
	return out
}

// ByID returns the student with the given ID.
func (c *Cohort) ByID(id int) (Student, error) {
	if id < 0 || id >= len(c.Students) || c.Students[id].ID != id {
		for _, s := range c.Students {
			if s.ID == id {
				return s, nil
			}
		}
		return Student{}, fmt.Errorf("cohort: no student %d", id)
	}
	return c.Students[id], nil
}

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// boundedInt returns a value in [0, max] with a centre-weighted
// distribution (sum of two dice halves), matching self-report clustering.
func boundedInt(rng *rand.Rand, max int) int {
	v := (rng.Intn(max+1) + rng.Intn(max+1)) / 2
	if v > max {
		v = max
	}
	return v
}
