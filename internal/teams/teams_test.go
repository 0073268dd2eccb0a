package teams

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pblparallel/internal/cohort"
	"pblparallel/internal/paperdata"
)

func paperCohort(t testing.TB, seed int64) *cohort.Cohort {
	t.Helper()
	c, err := cohort.Generate(cohort.PaperConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFormBalancedPaperShape(t *testing.T) {
	c := paperCohort(t, 1)
	f, err := FormBalanced(c, PaperConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// 124 students in teams of 4-5: the paper reports 26 groups
	// (13 per section). Our per-section solver picks the smallest
	// feasible count, 13 teams of 62 = 13*4 + 10 extra... verify bounds
	// and partition rather than a hard count, then check the paper's
	// count is feasible.
	if err := f.Validate(c, PaperConfig()); err != nil {
		t.Fatal(err)
	}
	if len(f.Teams) != paperdata.NTeams {
		t.Fatalf("teams = %d, want %d", len(f.Teams), paperdata.NTeams)
	}
	for _, tm := range f.Teams {
		if tm.Size() < 4 || tm.Size() > 5 {
			t.Fatalf("team %d size %d", tm.ID, tm.Size())
		}
	}
}

func TestFormBalancedDeterministic(t *testing.T) {
	c := paperCohort(t, 2)
	a, err := FormBalanced(c, PaperConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FormBalanced(c, PaperConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Teams {
		if a.Teams[i].Size() != b.Teams[i].Size() {
			t.Fatal("nondeterministic formation")
		}
		for j := range a.Teams[i].Members {
			if a.Teams[i].Members[j].ID != b.Teams[i].Members[j].ID {
				t.Fatal("nondeterministic membership")
			}
		}
	}
}

func TestBalancedBeatsSelfSelected(t *testing.T) {
	c := paperCohort(t, 3)
	bal, err := FormBalanced(c, PaperConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	self, err := FormSelfSelected(c, PaperConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := bal.Report()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := self.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rb.AbilitySpread >= rs.AbilitySpread {
		t.Fatalf("balanced spread %v not below self-selected %v", rb.AbilitySpread, rs.AbilitySpread)
	}
	if rb.FriendPairs > rs.FriendPairs {
		t.Fatalf("balanced friend pairs %d exceed self-selected %d", rb.FriendPairs, rs.FriendPairs)
	}
}

func TestBalancedSuppressesFriendPairs(t *testing.T) {
	c := paperCohort(t, 4)
	f, err := FormBalanced(c, PaperConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Report()
	if err != nil {
		t.Fatal(err)
	}
	// The cohort seeds ~25% clique membership; balanced formation must
	// eliminate the bulk of in-team pairs.
	total := 0
	for _, s := range c.Students {
		total += len(s.Friends)
	}
	total /= 2
	if total == 0 {
		t.Skip("no friendships generated")
	}
	if rep.FriendPairs*4 > total {
		t.Fatalf("in-team pairs %d vs %d total friendships — break pass ineffective", rep.FriendPairs, total)
	}
}

func TestCoordinatorRotation(t *testing.T) {
	c := paperCohort(t, 5)
	f, err := FormBalanced(c, PaperConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	tm := f.Teams[0]
	seen := map[int]bool{}
	for a := 0; a < tm.Size(); a++ {
		id, err := tm.Coordinator(a)
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("coordinator %d repeated before full rotation", id)
		}
		seen[id] = true
	}
	// Assignment tm.Size() wraps to the first coordinator.
	id0, _ := tm.Coordinator(0)
	idN, _ := tm.Coordinator(tm.Size())
	if id0 != idN {
		t.Fatal("rotation does not wrap")
	}
	if _, err := tm.Coordinator(-1); err == nil {
		t.Fatal("expected error for negative assignment")
	}
	empty := Team{}
	if _, err := empty.Coordinator(0); err == nil {
		t.Fatal("expected error for empty rotation")
	}
}

func TestFormBalancedBadConfig(t *testing.T) {
	c := paperCohort(t, 1)
	if _, err := FormBalanced(c, Config{MinSize: 1, MaxSize: 0}, 1); err == nil {
		t.Fatal("expected config error")
	}
	if _, err := FormSelfSelected(c, Config{MinSize: 0, MaxSize: 0}, 1); err == nil {
		t.Fatal("expected config error")
	}
}

func TestTeamsForInfeasible(t *testing.T) {
	// 7 students cannot form teams of exactly 5..5.
	if got := teamsFor(7, Config{MinSize: 5, MaxSize: 5}); got != 0 {
		t.Fatalf("teamsFor = %d, want 0", got)
	}
	if got := teamsFor(10, Config{MinSize: 5, MaxSize: 5}); got != 2 {
		t.Fatalf("teamsFor = %d, want 2", got)
	}
	if got := teamsFor(62, PaperConfig()); got != 13 {
		t.Fatalf("teamsFor(62) = %d, want 13 (the paper's per-section count)", got)
	}
}

func TestSizesFor(t *testing.T) {
	sizes := sizesFor(62, 13)
	sum := 0
	for _, s := range sizes {
		sum += s
		if s < 4 || s > 5 {
			t.Fatalf("size %d", s)
		}
	}
	if sum != 62 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestReportHistogram(t *testing.T) {
	c := paperCohort(t, 6)
	f, err := FormBalanced(c, PaperConfig(), 6)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Report()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for size, count := range rep.SizeHistogram {
		n += size * count
	}
	if n != paperdata.NStudents {
		t.Fatalf("histogram covers %d students", n)
	}
	if rep.NTeams != len(f.Teams) {
		t.Fatal("NTeams mismatch")
	}
}

func TestReportInsufficient(t *testing.T) {
	f := &Formation{Teams: []Team{{}}}
	if _, err := f.Report(); err == nil {
		t.Fatal("expected error for single team")
	}
}

// Property: balanced formation is always a valid partition for feasible
// random cohorts, and every team's section is homogeneous.
func TestFormBalancedPartitionProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 40 + 2*(int(nRaw)%60) // even, 40..158
		cfg := cohort.Config{
			NStudents: n, NFemale: n / 5, Sections: 2,
			Section1Females:  n / 10,
			FriendCliqueRate: 0.3,
		}
		c, err := cohort.Generate(cfg, seed)
		if err != nil {
			return false
		}
		form, err := FormBalanced(c, PaperConfig(), seed)
		if err != nil {
			return false
		}
		return form.Validate(c, PaperConfig()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: self-selected formation also places everyone exactly once
// (sizes may drift outside [4,5], which is part of what makes it worse).
func TestFormSelfSelectedCoversEveryone(t *testing.T) {
	c := paperCohort(t, 8)
	f, err := FormSelfSelected(c, PaperConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, tm := range f.Teams {
		for _, m := range tm.Members {
			if seen[m.ID] {
				t.Fatalf("student %d placed twice", m.ID)
			}
			seen[m.ID] = true
		}
	}
	if len(seen) != paperdata.NStudents {
		t.Fatalf("placed %d of %d", len(seen), paperdata.NStudents)
	}
}

func TestGenderRepairReducesLoneFemales(t *testing.T) {
	c := paperCohort(t, 9)
	f, err := FormBalanced(c, PaperConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Report()
	if err != nil {
		t.Fatal(err)
	}
	// 26 females across 26 teams: without repair, serpentine tends to
	// isolate females. Repair cannot always eliminate isolation but must
	// keep it below half the teams.
	if rep.LoneFemaleTeams > len(f.Teams)/2 {
		t.Fatalf("%d of %d teams have a lone female", rep.LoneFemaleTeams, len(f.Teams))
	}
}

// referenceSerpentineOrder is the sort.Slice ordering the keyed sort
// replaced.
func referenceSerpentineOrder(students []cohort.Student) []cohort.Student {
	sorted := append([]cohort.Student(nil), students...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Ability() != sorted[j].Ability() {
			return sorted[i].Ability() > sorted[j].Ability()
		}
		return sorted[i].ID < sorted[j].ID
	})
	return sorted
}

// TestDealSerpentineMatchesSortSlice deals tie-heavy rosters — few
// distinct GPAs and experience levels, IDs in shuffled order — and the
// paper cohort, and requires every team to match a serpentine deal of
// the sort.Slice order member for member.
func TestDealSerpentineMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var rosters [][]cohort.Student
	for r := 0; r < 20; r++ {
		n := 10 + rng.Intn(60)
		roster := make([]cohort.Student, n)
		for i, id := range rng.Perm(n) {
			lvl := cohort.ExperienceLevel(rng.Intn(2))
			roster[i] = cohort.Student{ID: id, GPA: float64(2 + rng.Intn(3)), Programming: lvl, Systems: lvl}
		}
		rosters = append(rosters, roster)
	}
	rosters = append(rosters, paperCohort(t, 3).Section(1))
	for ri, roster := range rosters {
		ties := map[float64]int{}
		for _, s := range roster {
			ties[s.Ability()]++
		}
		if ri < 20 && len(ties) == len(roster) {
			t.Fatalf("roster %d has no ability ties", ri)
		}
		nTeams := len(roster) / 4
		got := dealSerpentine(roster, nTeams, 1)
		want := make([]Team, nTeams)
		idx, dir := 0, 1
		for _, s := range referenceSerpentineOrder(roster) {
			want[idx].Members = append(want[idx].Members, s)
			idx += dir
			if idx == nTeams {
				idx, dir = nTeams-1, -1
			} else if idx < 0 {
				idx, dir = 0, 1
			}
		}
		for ti := range want {
			if len(got[ti].Members) != len(want[ti].Members) {
				t.Fatalf("roster %d team %d: %d members, reference %d", ri, ti, len(got[ti].Members), len(want[ti].Members))
			}
			for mi, s := range want[ti].Members {
				if got[ti].Members[mi].ID != s.ID {
					t.Fatalf("roster %d team %d slot %d: student %d, reference %d", ri, ti, mi, got[ti].Members[mi].ID, s.ID)
				}
			}
		}
	}
}
