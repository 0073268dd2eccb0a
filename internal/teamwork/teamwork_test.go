package teamwork

import (
	"math"
	"math/rand"
	"testing"

	"pblparallel/internal/cohort"
	"pblparallel/internal/pbl"
	"pblparallel/internal/teams"
)

func sampleTeam(t testing.TB) teams.Team {
	t.Helper()
	c, err := cohort.Generate(cohort.PaperConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	f, err := teams.FormBalanced(c, teams.PaperConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	return f.Teams[0]
}

func TestChannelNamesAndRoles(t *testing.T) {
	if len(Channels) != 4 {
		t.Fatal("four technologies required")
	}
	for _, ch := range Channels {
		if ch.String() == "" || ch.Role() == "unknown" {
			t.Fatalf("channel %d incomplete", ch)
		}
	}
	if Channel(99).String() == "" || Channel(99).Role() != "unknown" {
		t.Fatal("out-of-range channel")
	}
	if Slack.String() != "Slack" || GoogleDocs.String() != "Google Docs" {
		t.Fatal("names")
	}
}

func TestSimulateTeamActivityDeterministic(t *testing.T) {
	tm := sampleTeam(t)
	a, err := SimulateTeamActivity(tm, 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateTeamActivity(tm, 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	ae, be := a.Events(), b.Events()
	if len(ae) != len(be) || len(ae) != a.Total() {
		t.Fatal("nondeterministic simulation")
	}
	if len(ae) == 0 {
		t.Fatal("no events generated")
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatal("event mismatch")
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	tm := sampleTeam(t)
	if _, err := SimulateTeamActivity(tm, 0, 1); err == nil {
		t.Fatal("0 weeks accepted")
	}
	if _, err := SimulateTeamActivity(teams.Team{}, 5, 1); err == nil {
		t.Fatal("empty team accepted")
	}
}

func TestLogAggregations(t *testing.T) {
	tm := sampleTeam(t)
	log, err := SimulateTeamActivity(tm, 15, 3)
	if err != nil {
		t.Fatal(err)
	}
	part := log.Participation()
	if len(part) == 0 {
		t.Fatal("no participation")
	}
	total := 0.0
	for _, p := range part {
		if p < 0 || p > 1 {
			t.Fatalf("share %v", p)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum to %v", total)
	}
	// Every member appears on every channel over 15 weeks.
	for _, ch := range Channels {
		counts := log.CountBy(ch)
		if ch == YouTube {
			continue // rare events: not guaranteed per member
		}
		if len(counts) != tm.Size() {
			t.Fatalf("%v activity covers %d of %d members", ch, len(counts), tm.Size())
		}
	}
	students := log.sortedStudents()
	if len(students) != tm.Size() {
		t.Fatalf("%d active students", len(students))
	}
}

func TestEmptyLogParticipation(t *testing.T) {
	l := &Log{}
	if l.Participation() != nil {
		t.Fatal("empty log should return nil")
	}
}

func TestPeerRatingFormValidate(t *testing.T) {
	tm := sampleTeam(t)
	ids := make([]int, tm.Size())
	for i, m := range tm.Members {
		ids[i] = m.ID
	}
	good := PeerRatingForm{Assignment: 1, Rater: ids[0], Ratings: map[int]int{}}
	for _, id := range ids[1:] {
		good.Ratings[id] = 4
	}
	if err := good.Validate(tm); err != nil {
		t.Fatal(err)
	}
	// Self-rating.
	bad := PeerRatingForm{Assignment: 1, Rater: ids[0], Ratings: map[int]int{ids[0]: 5}}
	for _, id := range ids[1 : len(ids)-1] {
		bad.Ratings[id] = 4
	}
	if err := bad.Validate(tm); err == nil {
		t.Fatal("self-rating accepted")
	}
	// Non-member rater.
	if err := (PeerRatingForm{Rater: -99}).Validate(tm); err == nil {
		t.Fatal("outsider rater accepted")
	}
	// Off-scale score.
	offScale := PeerRatingForm{Rater: ids[0], Ratings: map[int]int{}}
	for i, id := range ids[1:] {
		offScale.Ratings[id] = 4
		if i == 0 {
			offScale.Ratings[id] = 6
		}
	}
	if err := offScale.Validate(tm); err == nil {
		t.Fatal("off-scale rating accepted")
	}
	// Incomplete coverage.
	short := PeerRatingForm{Rater: ids[0], Ratings: map[int]int{ids[1]: 3}}
	if err := short.Validate(tm); err == nil && tm.Size() > 2 {
		t.Fatal("incomplete form accepted")
	}
	// Rating a non-member.
	outsider := PeerRatingForm{Rater: ids[0], Ratings: map[int]int{}}
	for _, id := range ids[1 : len(ids)-1] {
		outsider.Ratings[id] = 4
	}
	outsider.Ratings[-5] = 4
	if err := outsider.Validate(tm); err == nil {
		t.Fatal("non-member ratee accepted")
	}
}

func TestAggregateRatings(t *testing.T) {
	tm := sampleTeam(t)
	log, err := SimulateTeamActivity(tm, 15, 5)
	if err != nil {
		t.Fatal(err)
	}
	forms, err := RatingsFromActivity(tm, log, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(forms) != tm.Size() {
		t.Fatalf("%d forms", len(forms))
	}
	avgs, err := AggregateRatings(tm, forms)
	if err != nil {
		t.Fatal(err)
	}
	if len(avgs) != tm.Size() {
		t.Fatalf("%d members rated", len(avgs))
	}
	for id, avg := range avgs {
		if avg < 1 || avg > 5 {
			t.Fatalf("member %d average %v", id, avg)
		}
	}
}

func TestAggregateRejectsInvalidForm(t *testing.T) {
	tm := sampleTeam(t)
	if _, err := AggregateRatings(tm, []PeerRatingForm{{Rater: -1}}); err == nil {
		t.Fatal("invalid form accepted")
	}
}

func TestRatingsFromActivityValidation(t *testing.T) {
	tm := sampleTeam(t)
	if _, err := RatingsFromActivity(tm, nil, 1); err == nil {
		t.Fatal("nil log accepted")
	}
	if _, err := RatingsFromActivity(tm, &Log{}, 1); err == nil {
		t.Fatal("empty log accepted")
	}
}

func TestCooperationFromRating(t *testing.T) {
	cases := []struct {
		avg  float64
		want pbl.Cooperation
	}{
		{1.0, pbl.CoopNone}, {1.9, pbl.CoopNone},
		{2.0, pbl.CoopPartial}, {2.9, pbl.CoopPartial},
		{3.0, pbl.CoopFull}, {5.0, pbl.CoopFull},
	}
	for _, c := range cases {
		if got := CooperationFromRating(c.avg); got != c.want {
			t.Fatalf("CooperationFromRating(%v) = %v, want %v", c.avg, got, c.want)
		}
	}
}

func TestGroundRulesCoverNorms(t *testing.T) {
	rules := GroundRules()
	for _, key := range []string{
		"work norms", "facilitator norms", "communication norms",
		"meeting norms", "handling difficult behavior", "handling group problems",
	} {
		if len(rules[key]) == 0 {
			t.Fatalf("missing %q", key)
		}
	}
}

func TestHigherAptitudeEarnsMoreActivity(t *testing.T) {
	tm := sampleTeam(t)
	// Force a wide aptitude split for a deterministic check.
	for i := range tm.Members {
		tm.Members[i].Aptitude = -1.5
	}
	tm.Members[0].Aptitude = 2.0
	log, err := SimulateTeamActivity(tm, 15, 9)
	if err != nil {
		t.Fatal(err)
	}
	part := log.Participation()
	best := tm.Members[0].ID
	for _, m := range tm.Members[1:] {
		if part[best] <= part[m.ID] {
			t.Fatalf("high-aptitude member %d share %v not above member %d share %v",
				best, part[best], m.ID, part[m.ID])
		}
	}
}

// TestSimulateAllocationsIndependentOfEvents requires the activity log
// to be built at its exact size: the allocation count must not grow
// with the number of events simulated.
func TestSimulateAllocationsIndependentOfEvents(t *testing.T) {
	tm := sampleTeam(t)
	measure := func(weeks int) (allocs float64, events int) {
		log, err := SimulateTeamActivity(tm, weeks, 5)
		if err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(10, func() {
			if _, err := SimulateTeamActivity(tm, weeks, 5); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, log.Total()
	}
	baseAllocs, baseEvents := measure(1)
	for _, weeks := range []int{15, 150} {
		allocs, events := measure(weeks)
		if events <= baseEvents {
			t.Fatalf("%d weeks produced %d events, not more than 1 week's %d", weeks, events, baseEvents)
		}
		if allocs > baseAllocs {
			t.Fatalf("%d events took %.0f allocations, %d events took %.0f", events, allocs, baseEvents, baseAllocs)
		}
	}
}

func TestEventKindFollowsChannel(t *testing.T) {
	want := map[Channel]EventKind{Slack: EventMessage, GitHub: EventCommit, GoogleDocs: EventDocEdit, YouTube: EventVideoCut}
	for ch, kind := range want {
		if got := (Event{Channel: ch}).Kind(); got != kind {
			t.Fatalf("%v event kind %q, want %q", ch, got, kind)
		}
	}
}

// referenceEvents is the event-list simulation the count-based log
// replaced: a fresh generator per team and one Event per activity.
func referenceEvents(tm teams.Team, weeks int, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed ^ int64(tm.ID)<<17))
	var events []Event
	for week := 1; week <= weeks; week++ {
		for _, m := range tm.Members {
			rate := 1 + m.Aptitude/4
			if rate < 0.1 {
				rate = 0.1
			}
			for _, ch := range Channels {
				n := int(channelBase[ch]*rate + rng.Float64())
				for k := 0; k < n; k++ {
					events = append(events, Event{Week: int32(week), Channel: ch, Student: int32(m.ID)})
				}
			}
		}
	}
	return events
}

// TestLogMatchesEventReference pins the count-based log to the event
// list bit for bit: the expansion, the per-channel counts and every
// participation share (compared as float64 bits).
func TestLogMatchesEventReference(t *testing.T) {
	c, err := cohort.Generate(cohort.PaperConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	f, err := teams.FormBalanced(c, teams.PaperConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range f.Teams {
		for _, weeks := range []int{1, 15} {
			for _, seed := range []int64{0, 7, -3} {
				log, err := SimulateTeamActivity(tm, weeks, seed)
				if err != nil {
					t.Fatal(err)
				}
				ref := referenceEvents(tm, weeks, seed)
				got := log.Events()
				if len(got) != len(ref) || log.Total() != len(ref) {
					t.Fatalf("team %d: %d events (total %d), reference %d", tm.ID, len(got), log.Total(), len(ref))
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("team %d event %d: %+v, reference %+v", tm.ID, i, got[i], ref[i])
					}
				}
				all := map[int]int{}
				for _, e := range ref {
					all[int(e.Student)]++
				}
				for _, ch := range Channels {
					want := map[int]int{}
					for _, e := range ref {
						if e.Channel == ch {
							want[int(e.Student)]++
						}
					}
					gotCh := log.CountBy(ch)
					if len(gotCh) != len(want) {
						t.Fatalf("team %d %v: CountBy %v, reference %v", tm.ID, ch, gotCh, want)
					}
					for s, n := range want {
						if gotCh[s] != n {
							t.Fatalf("team %d %v: CountBy %v, reference %v", tm.ID, ch, gotCh, want)
						}
					}
				}
				part := log.Participation()
				if len(part) != len(all) {
					t.Fatalf("team %d: %d participants, reference %d", tm.ID, len(part), len(all))
				}
				for s, n := range all {
					want := float64(n) / float64(len(ref))
					if math.Float64bits(part[s]) != math.Float64bits(want) {
						t.Fatalf("team %d student %d: share %v, reference %v", tm.ID, s, part[s], want)
					}
				}
			}
		}
	}
}
