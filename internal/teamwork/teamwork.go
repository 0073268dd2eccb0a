// Package teamwork models the soft-skills infrastructure of Assignment 1:
// the four required teamwork technologies (Slack, GitHub, Google Docs,
// YouTube) as event logs feeding participation metrics, the peer rating
// form each assignment collects, and the Teamwork Basics ground rules.
// The study consumes only the participation and peer-rating signals from
// these tools, so that is what the models produce.
package teamwork

import (
	"fmt"
	"math"
	"sort"

	"pblparallel/internal/rngpool"
	"pblparallel/internal/teams"
)

// Channel is one of the four required technologies.
type Channel uint8

const (
	Slack Channel = iota
	GitHub
	GoogleDocs
	YouTube
)

// Channels lists all four in the paper's order.
var Channels = []Channel{Slack, GitHub, GoogleDocs, YouTube}

// String names the channel.
func (c Channel) String() string {
	switch c {
	case Slack:
		return "Slack"
	case GitHub:
		return "GitHub"
	case GoogleDocs:
		return "Google Docs"
	case YouTube:
		return "YouTube"
	default:
		return fmt.Sprintf("Channel(%d)", int(c))
	}
}

// Role describes what the course uses the channel for (Section I).
func (c Channel) Role() string {
	switch c {
	case Slack:
		return "a messaging application to communicate"
	case GitHub:
		return "collaborate, create customized workflows, and share code"
	case GoogleDocs:
		return "collaborate and produce project assignment reports"
	case YouTube:
		return "shoot, edit, and upload videos to present the results"
	default:
		return "unknown"
	}
}

// EventKind is the unit of activity on a channel.
type EventKind string

const (
	EventMessage  EventKind = "message"
	EventCommit   EventKind = "commit"
	EventDocEdit  EventKind = "doc-edit"
	EventVideoCut EventKind = "video-upload"
)

// Kind maps the channel to its activity unit.
func (c Channel) Kind() EventKind {
	switch c {
	case Slack:
		return EventMessage
	case GitHub:
		return EventCommit
	case GoogleDocs:
		return EventDocEdit
	default:
		return EventVideoCut
	}
}

// Event is one logged activity, as Log.Events expands it.
type Event struct {
	Week    int32
	Channel Channel
	Student int32
}

// Kind is the event's activity unit, derived from its channel.
func (e Event) Kind() EventKind { return e.Channel.Kind() }

// Log is a team's activity record for the semester. It holds counts,
// not events: one int32 per (week, member, channel), in the order the
// simulation draws them — week-major, then roster order, then Channels
// order — so a semester costs 16 bytes per member-week however active
// the team is. The study reads only totals and per-student shares,
// which integer sums give exactly; Events expands the log on demand.
type Log struct {
	TeamID  int
	members []int32 // student IDs in roster order
	counts  []int32 // len(counts) = weeks * len(members) * len(Channels)
	total   int     // sum of counts
}

// Total returns the number of events in the log.
func (l *Log) Total() int { return l.total }

// Events expands the log into one Event per logged activity, ordered by
// week, then roster order, then channel.
func (l *Log) Events() []Event {
	if l.total == 0 {
		return nil
	}
	out := make([]Event, 0, l.total)
	for i, n := range l.counts {
		ev := Event{
			Week:    int32(i/(len(l.members)*len(Channels))) + 1,
			Channel: Channels[i%len(Channels)],
			Student: l.members[i/len(Channels)%len(l.members)],
		}
		for k := int32(0); k < n; k++ {
			out = append(out, ev)
		}
	}
	return out
}

// byStudent sums the counts on the channels keep selects per student
// ID; students with none are absent.
func (l *Log) byStudent(keep func(Channel) bool) map[int]int {
	out := map[int]int{}
	for i, n := range l.counts {
		if n > 0 && keep(Channels[i%len(Channels)]) {
			out[int(l.members[i/len(Channels)%len(l.members)])] += int(n)
		}
	}
	return out
}

// CountBy returns events per student on one channel; students with no
// events on it are absent.
func (l *Log) CountBy(channel Channel) map[int]int {
	return l.byStudent(func(c Channel) bool { return c == channel })
}

// Participation returns each student's share of the team's total
// activity (all channels), in [0,1]; an empty log returns nil.
func (l *Log) Participation() map[int]float64 {
	if l.total == 0 {
		return nil
	}
	counts := l.byStudent(allChannels)
	out := make(map[int]float64, len(counts))
	for s, c := range counts {
		out[s] = float64(c) / float64(l.total)
	}
	return out
}

func allChannels(Channel) bool { return true }

// SimulateTeamActivity generates a deterministic semester of channel
// events for a team: each member's weekly activity rate scales with
// (1 + aptitude/4), so stronger engagement produces more events — the
// signal the peer ratings pick up.
func SimulateTeamActivity(tm teams.Team, weeks int, seed int64) (*Log, error) {
	if weeks < 1 || weeks > math.MaxInt32 {
		return nil, fmt.Errorf("teamwork: %d weeks", weeks)
	}
	if tm.Size() == 0 {
		return nil, fmt.Errorf("teamwork: empty team %d", tm.ID)
	}
	members := make([]int32, tm.Size())
	for i, m := range tm.Members {
		if m.ID < math.MinInt32 || m.ID > math.MaxInt32 {
			return nil, fmt.Errorf("teamwork: team %d member ID %d outside the event log's int32 range", tm.ID, m.ID)
		}
		members[i] = int32(m.ID)
	}
	rng := rngpool.Get(seed ^ int64(tm.ID)<<17)
	defer rngpool.Put(rng)
	log := &Log{TeamID: tm.ID, members: members, counts: make([]int32, 0, weeks*tm.Size()*len(Channels))}
	for week := 1; week <= weeks; week++ {
		for _, m := range tm.Members {
			rate := 1 + m.Aptitude/4
			if rate < 0.1 {
				rate = 0.1
			}
			for _, ch := range Channels {
				n := int(channelBase[ch]*rate + rng.Float64())
				log.counts = append(log.counts, int32(n))
				log.total += n
			}
		}
	}
	return log, nil
}

// channelBase is each channel's base weekly event count, indexed like
// Channels: Slack chatter is the most frequent, video uploads the
// rarest.
var channelBase = [...]float64{Slack: 6, GitHub: 3, GoogleDocs: 2, YouTube: 0.3}

// GroundRules returns the Teamwork Basics norms of Assignment 1.
func GroundRules() map[string][]string {
	return map[string][]string{
		"work norms": {
			"divide work fairly and set internal deadlines",
			"review each other's work before submission",
		},
		"facilitator norms": {
			"rotate the coordinator role every assignment",
			"the coordinator interfaces with the instructor and tracks tasks",
		},
		"communication norms": {
			"respond on Slack within 24 hours",
			"raise conflicts early and respectfully",
		},
		"meeting norms": {
			"agree on a weekly meeting time; attendance expected",
			"record decisions in the shared document",
		},
		"handling difficult behavior": {
			"name the behavior, not the person",
			"escalate to the instructor only after a team conversation",
		},
		"handling group problems": {
			"persistent non-cooperation leads to a zero grade per the policy",
		},
	}
}

// sortedStudents returns the log's distinct student IDs, ordered.
func (l *Log) sortedStudents() []int {
	counts := l.byStudent(allChannels)
	out := make([]int, 0, len(counts))
	for s := range counts {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}
