// Coursesim: a deep dive into the course machinery — team formation
// quality vs the self-selection baseline, the semester timeline, each
// team's collaboration-technology activity, peer ratings, and the
// grading policy applied to a problematic member.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"pblparallel/internal/cohort"
	"pblparallel/internal/pbl"
	"pblparallel/internal/teams"
	"pblparallel/internal/teamwork"
)

func main() {
	// The published cohort: 124 students, 98M/26F, two sections.
	coh, err := cohort.Generate(cohort.PaperConfig(), 2018)
	if err != nil {
		log.Fatal(err)
	}

	// Instructor-formed teams vs the self-selected baseline.
	balanced, err := teams.FormBalanced(coh, teams.PaperConfig(), 2018)
	if err != nil {
		log.Fatal(err)
	}
	selfSel, err := teams.FormSelfSelected(coh, teams.PaperConfig(), 2018)
	if err != nil {
		log.Fatal(err)
	}
	rb, err := balanced.Report()
	if err != nil {
		log.Fatal(err)
	}
	rs, err := selfSel.Report()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("team formation (criteria-based vs self-selected):")
	fmt.Printf("  ability spread:   %.4f vs %.4f (lower is better)\n", rb.AbilitySpread, rs.AbilitySpread)
	fmt.Printf("  friend pairs:     %d vs %d\n", rb.FriendPairs, rs.FriendPairs)
	fmt.Printf("  lone-female teams: %d vs %d\n\n", rb.LoneFemaleTeams, rs.LoneFemaleTeams)

	// The semester plan.
	module := pbl.NewPaperModule()
	if err := module.RenderTimeline(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// One team's semester of collaboration activity.
	tm := balanced.Teams[0]
	activity, err := teamwork.SimulateTeamActivity(tm, module.SemesterWeeks, 2018)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nteam %d activity over %d weeks (%d events):\n", tm.ID, module.SemesterWeeks, activity.Total())
	for _, ch := range teamwork.Channels {
		counts := activity.CountBy(ch)
		total := 0
		for _, c := range counts {
			total += c
		}
		fmt.Printf("  %-12s %4d events (%s)\n", ch, total, ch.Role())
	}

	// Peer ratings derived from participation.
	forms, err := teamwork.RatingsFromActivity(tm, activity, 2)
	if err != nil {
		log.Fatal(err)
	}
	avgs, err := teamwork.AggregateRatings(tm, forms)
	if err != nil {
		log.Fatal(err)
	}
	ids := make([]int, 0, len(avgs))
	for id := range avgs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fmt.Println("\npeer ratings (from participation):")
	for _, id := range ids {
		fmt.Printf("  student %3d: %.1f/5 -> cooperation %q\n",
			id, avgs[id], teamwork.CooperationFromRating(avgs[id]))
	}

	// Grading policy on a member who stopped cooperating after A2.
	grades := []pbl.AssignmentGrade{
		{Assignment: 1, TeamScore: 92},
		{Assignment: 2, TeamScore: 88},
		{Assignment: 3, TeamScore: 90, Cooperation: map[int]pbl.Cooperation{7: pbl.CoopPartial}},
		{Assignment: 4, TeamScore: 85, Cooperation: map[int]pbl.Cooperation{7: pbl.CoopNone}},
		{Assignment: 5, TeamScore: 91},
	}
	scores, err := pbl.MemberScores(pbl.PaperPolicy(), grades, 7, nil)
	if err != nil {
		log.Fatal(err)
	}
	grade, err := pbl.ModuleGrade(pbl.PaperPolicy(), scores)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nzero-grade policy for member 7: per-assignment %v -> module %.1f/25 points\n", scores, grade)
	fmt.Println("(persistent non-cooperation zeroes the remaining assignments, per Section II)")
}
