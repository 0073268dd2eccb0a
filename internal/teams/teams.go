// Package teams implements the instructor-driven team formation the
// paper describes: each section's students are organized into diverse
// groups of four or five balanced on gender, GPA, experience, and
// technical-writing ability, while avoiding predetermined groups of
// friends. A naive self-selection baseline is provided for the ablation
// comparing instructor-formed to student-formed teams (Oakley et al.).
package teams

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"pblparallel/internal/cohort"
	"pblparallel/internal/rngpool"
	"pblparallel/internal/stats"
)

// Team is one project group.
type Team struct {
	ID      int
	Section int
	Members []cohort.Student
	// CoordinatorRotation holds member IDs in the order they serve as
	// team coordinator, one per assignment (rotated, per the paper).
	CoordinatorRotation []int
}

// Size returns the number of members.
func (t Team) Size() int { return len(t.Members) }

// Females counts female members.
func (t Team) Females() int {
	n := 0
	for _, m := range t.Members {
		if m.Gender == cohort.Female {
			n++
		}
	}
	return n
}

// MeanAbility is the team's average ability score.
func (t Team) MeanAbility() float64 {
	if len(t.Members) == 0 {
		return 0
	}
	sum := 0.0
	for _, m := range t.Members {
		sum += m.Ability()
	}
	return sum / float64(len(t.Members))
}

// FriendPairs counts within-team pairs of prior friends.
func (t Team) FriendPairs() int {
	idSet := map[int]bool{}
	for _, m := range t.Members {
		idSet[m.ID] = true
	}
	pairs := 0
	for _, m := range t.Members {
		for _, f := range m.Friends {
			if idSet[f] && f > m.ID {
				pairs++
			}
		}
	}
	return pairs
}

// Coordinator returns the member ID coordinating the given assignment
// (0-based), rotating through the roster.
func (t Team) Coordinator(assignment int) (int, error) {
	if len(t.CoordinatorRotation) == 0 {
		return 0, fmt.Errorf("teams: team %d has no coordinator rotation", t.ID)
	}
	if assignment < 0 {
		return 0, fmt.Errorf("teams: negative assignment %d", assignment)
	}
	return t.CoordinatorRotation[assignment%len(t.CoordinatorRotation)], nil
}

// Formation is a complete partition of the cohort into teams.
type Formation struct {
	Teams []Team
}

// Config bounds team sizes.
type Config struct {
	MinSize int
	MaxSize int
}

// PaperConfig is the published 4–5 member bound.
func PaperConfig() Config { return Config{MinSize: 4, MaxSize: 5} }

// FormBalanced partitions each section of the cohort into teams using
// the instructor's criteria: sort by ability and deal serpentine
// (snake-draft) so every team receives a spread of strong and weak
// students, then repair gender isolation (avoid exactly-one-female
// teams where possible, per Oakley et al.) and swap out friend pairs.
func FormBalanced(c *cohort.Cohort, cfg Config, seed int64) (*Formation, error) {
	if cfg.MinSize < 2 || cfg.MaxSize < cfg.MinSize {
		return nil, fmt.Errorf("teams: bad size bounds [%d,%d]", cfg.MinSize, cfg.MaxSize)
	}
	rng := rngpool.Get(seed)
	defer rngpool.Put(rng)
	var all []Team
	nextID := 0
	for _, sec := range []int{1, 2} {
		students := c.Section(sec)
		if len(students) == 0 {
			continue
		}
		nTeams := teamsFor(len(students), cfg)
		if nTeams == 0 {
			return nil, fmt.Errorf("teams: section %d with %d students cannot form teams of %d..%d",
				sec, len(students), cfg.MinSize, cfg.MaxSize)
		}
		teams := dealSerpentine(students, nTeams, sec)
		repairGenderIsolation(teams)
		breakFriendPairs(teams, rng)
		for i := range teams {
			teams[i].ID = nextID
			nextID++
			rotateCoordinators(&teams[i], rng)
		}
		all = append(all, teams...)
	}
	f := &Formation{Teams: all}
	if err := f.Validate(c, cfg); err != nil {
		return nil, err
	}
	return f, nil
}

// FormSelfSelected is the baseline: students cluster with friends first,
// then fill remaining seats arbitrarily — the formation style the cited
// literature finds less effective.
func FormSelfSelected(c *cohort.Cohort, cfg Config, seed int64) (*Formation, error) {
	if cfg.MinSize < 2 || cfg.MaxSize < cfg.MinSize {
		return nil, fmt.Errorf("teams: bad size bounds [%d,%d]", cfg.MinSize, cfg.MaxSize)
	}
	rng := rngpool.Get(seed)
	defer rngpool.Put(rng)
	var all []Team
	nextID := 0
	for _, sec := range []int{1, 2} {
		students := c.Section(sec)
		if len(students) == 0 {
			continue
		}
		nTeams := teamsFor(len(students), cfg)
		if nTeams == 0 {
			return nil, fmt.Errorf("teams: section %d cannot form teams", sec)
		}
		sizes := sizesFor(len(students), nTeams)
		// Friends first: traverse students, pulling friend groups into
		// the same team until it fills.
		unassigned := map[int]cohort.Student{}
		for _, s := range students {
			unassigned[s.ID] = s
		}
		order := make([]int, 0, len(students))
		for _, s := range students {
			order = append(order, s.ID)
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		teams := make([]Team, nTeams)
		ti := 0
		for _, id := range order {
			s, ok := unassigned[id]
			if !ok {
				continue
			}
			for ti < nTeams-1 && len(teams[ti].Members) >= sizes[ti] {
				ti++
			}
			t := &teams[ti]
			t.Section = sec
			t.Members = append(t.Members, s)
			delete(unassigned, id)
			for _, fid := range s.Friends {
				if len(t.Members) >= sizes[ti] {
					break
				}
				if fs, ok := unassigned[fid]; ok {
					t.Members = append(t.Members, fs)
					delete(unassigned, fid)
				}
			}
		}
		// Any leftovers (possible when friend pulls overfill early
		// teams' planned sizes) go to the emptiest teams.
		for _, s := range unassigned {
			best := 0
			for i := range teams {
				if len(teams[i].Members) < len(teams[best].Members) {
					best = i
				}
			}
			teams[best].Section = sec
			teams[best].Members = append(teams[best].Members, s)
		}
		for i := range teams {
			teams[i].ID = nextID
			nextID++
			rotateCoordinators(&teams[i], rng)
		}
		all = append(all, teams...)
	}
	return &Formation{Teams: all}, nil
}

// teamsFor picks a team count such that sizes stay within [min,max];
// returns 0 when impossible.
func teamsFor(n int, cfg Config) int {
	for k := (n + cfg.MaxSize - 1) / cfg.MaxSize; k <= n/cfg.MinSize; k++ {
		if k > 0 && n >= k*cfg.MinSize && n <= k*cfg.MaxSize {
			return k
		}
	}
	return 0
}

// sizesFor spreads n students over k teams as evenly as possible.
func sizesFor(n, k int) []int {
	base := n / k
	extra := n % k
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = base
		if i < extra {
			sizes[i]++
		}
	}
	return sizes
}

// dealSerpentine sorts by ability descending and snake-drafts into teams.
func dealSerpentine(students []cohort.Student, nTeams, section int) []Team {
	// Sort small (ability, ID, index) keys rather than the students
	// themselves, computing each ability once. Ability descending, then
	// ID ascending, is a strict total order over a cohort's unique IDs,
	// so the order does not depend on the sorting algorithm.
	keys := make([]serpentineKey, len(students))
	for i, s := range students {
		keys[i] = serpentineKey{ability: s.Ability(), id: s.ID, idx: i}
	}
	slices.SortFunc(keys, func(a, b serpentineKey) int {
		return cmp.Or(cmp.Compare(b.ability, a.ability), cmp.Compare(a.id, b.id))
	})
	// The deal gives every team at most ceil(n/nTeams) members, so one
	// backing array, capped per team, holds all the rosters.
	per := (len(students) + nTeams - 1) / nTeams
	seats := make([]cohort.Student, nTeams*per)
	teams := make([]Team, nTeams)
	for i := range teams {
		teams[i].Section = section
		teams[i].Members = seats[i*per : i*per : (i+1)*per]
	}
	idx, dir := 0, 1
	for _, k := range keys {
		teams[idx].Members = append(teams[idx].Members, students[k.idx])
		idx += dir
		if idx == nTeams {
			idx, dir = nTeams-1, -1
		} else if idx < 0 {
			idx, dir = 0, 1
		}
	}
	return teams
}

type serpentineKey struct {
	ability float64
	id, idx int
}

// repairGenderIsolation swaps members between teams so that no team has
// exactly one female while another has three or more (Oakley's "avoid
// isolating women" guideline), where a swap preserving sizes exists.
func repairGenderIsolation(teams []Team) {
	for pass := 0; pass < 8; pass++ {
		lone, rich := -1, -1
		for i := range teams {
			f := teams[i].Females()
			if f == 1 && lone == -1 {
				lone = i
			}
			if f >= 3 && rich == -1 {
				rich = i
			}
		}
		if lone == -1 || rich == -1 || lone == rich {
			return
		}
		// Move one female from rich to lone in exchange for a male of
		// the closest ability.
		fIdx := -1
		for i, m := range teams[rich].Members {
			if m.Gender == cohort.Female {
				fIdx = i
				break
			}
		}
		mIdx := -1
		bestGap := math.Inf(1)
		for i, m := range teams[lone].Members {
			if m.Gender == cohort.Male {
				gap := math.Abs(m.Ability() - teams[rich].Members[fIdx].Ability())
				if gap < bestGap {
					bestGap, mIdx = gap, i
				}
			}
		}
		if fIdx == -1 || mIdx == -1 {
			return
		}
		teams[lone].Members[mIdx], teams[rich].Members[fIdx] =
			teams[rich].Members[fIdx], teams[lone].Members[mIdx]
	}
}

// breakFriendPairs swaps one member of each within-team friend pair into
// another team of the same size-class when that does not create a new
// pair, honouring "avoid predetermined groups of friends".
func breakFriendPairs(teams []Team, rng *rand.Rand) {
	for i := range teams {
		for guard := 0; guard < 16 && teams[i].FriendPairs() > 0; guard++ {
			a, b := firstFriendPair(&teams[i])
			if a == -1 {
				break
			}
			_ = b
			// Try to place member a in another team via swap.
			swapped := false
			order := rng.Perm(len(teams))
			for _, j := range order {
				if j == i {
					continue
				}
				for k := range teams[j].Members {
					if wouldPair(&teams[j], teams[i].Members[a], k) || wouldPair(&teams[i], teams[j].Members[k], a) {
						continue
					}
					teams[i].Members[a], teams[j].Members[k] = teams[j].Members[k], teams[i].Members[a]
					swapped = true
					break
				}
				if swapped {
					break
				}
			}
			if !swapped {
				break
			}
		}
	}
}

// firstFriendPair returns member indices of one friend pair, or (-1,-1).
func firstFriendPair(t *Team) (int, int) {
	pos := map[int]int{}
	for i, m := range t.Members {
		pos[m.ID] = i
	}
	for i, m := range t.Members {
		for _, f := range m.Friends {
			if j, ok := pos[f]; ok && j != i {
				return i, j
			}
		}
	}
	return -1, -1
}

// wouldPair reports whether inserting s in place of t.Members[skip]
// creates a friend pair.
func wouldPair(t *Team, s cohort.Student, skip int) bool {
	for i, m := range t.Members {
		if i == skip {
			continue
		}
		if hasID(s.Friends, m.ID) || hasID(m.Friends, s.ID) {
			return true
		}
	}
	return false
}

func hasID(ids []int, id int) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// rotateCoordinators shuffles the member order into a rotation.
func rotateCoordinators(t *Team, rng *rand.Rand) {
	ids := make([]int, len(t.Members))
	for i, m := range t.Members {
		ids[i] = m.ID
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	t.CoordinatorRotation = ids
}

// Validate checks the formation is a partition of the cohort respecting
// the size bounds.
func (f *Formation) Validate(c *cohort.Cohort, cfg Config) error {
	seen := map[int]bool{}
	for _, t := range f.Teams {
		if t.Size() < cfg.MinSize || t.Size() > cfg.MaxSize {
			return fmt.Errorf("teams: team %d has size %d outside [%d,%d]",
				t.ID, t.Size(), cfg.MinSize, cfg.MaxSize)
		}
		for _, m := range t.Members {
			if seen[m.ID] {
				return fmt.Errorf("teams: student %d on multiple teams", m.ID)
			}
			seen[m.ID] = true
			if m.Section != t.Section {
				return fmt.Errorf("teams: student %d (section %d) on section-%d team",
					m.ID, m.Section, t.Section)
			}
		}
	}
	if len(seen) != len(c.Students) {
		return fmt.Errorf("teams: %d of %d students placed", len(seen), len(c.Students))
	}
	return nil
}

// BalanceReport quantifies a formation's quality, used by the ablation
// bench comparing instructor-formed to self-selected teams.
type BalanceReport struct {
	NTeams int
	// AbilitySpread is the standard deviation of team mean abilities;
	// lower means better balance.
	AbilitySpread float64
	// LoneFemaleTeams counts teams with exactly one female.
	LoneFemaleTeams int
	// FriendPairs counts within-team prior friendships.
	FriendPairs int
	// SizeHistogram maps team size → count.
	SizeHistogram map[int]int
}

// Report computes the balance metrics of a formation.
func (f *Formation) Report() (BalanceReport, error) {
	if len(f.Teams) < 2 {
		return BalanceReport{}, stats.ErrInsufficientData
	}
	means := make([]float64, len(f.Teams))
	rep := BalanceReport{NTeams: len(f.Teams), SizeHistogram: map[int]int{}}
	for i, t := range f.Teams {
		means[i] = t.MeanAbility()
		if t.Females() == 1 {
			rep.LoneFemaleTeams++
		}
		rep.FriendPairs += t.FriendPairs()
		rep.SizeHistogram[t.Size()]++
	}
	sd, err := stats.StdDev(means)
	if err != nil {
		return BalanceReport{}, err
	}
	rep.AbilitySpread = sd
	return rep, nil
}
