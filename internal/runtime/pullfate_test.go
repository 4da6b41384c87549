package runtime_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/topo"
	"repro/internal/trace"
)

// fateParams types the scripted payloads: protocol queries and votes, so
// they cross the socket codec like any protocol message.
var fateParams = core.MustParams(fateNodes, 2, 1)

// fateAgent is a scripted participant that drives every pull fate: it pulls
// a rotating peer each round, self-pulls every third round when self is set,
// pushes on even rounds when pusher is set (so push-loss draws precede the
// round's pull draws), and refuses every query when refuse is set. Its
// HandlePull answers from the agent's identity alone and never changes
// state, as the gossip.Agent contract requires: a vote carrying its ID. The
// handlers log what arrives, so two executions can be compared agent by
// agent.
type fateAgent struct {
	id, n                int
	refuse, self, pusher bool

	pushes  []int // senders of delivered pushes
	replies []int // per pull reply: the answering node's ID, or -1 for nil
}

func (a *fateAgent) Act(round int) gossip.Action {
	if a.self && round%3 == 0 {
		return gossip.PullFrom(a.id, core.IntentQuery{P: fateParams})
	}
	if a.pusher && round%2 == 0 {
		return gossip.PushTo((a.id+1+round)%a.n, core.Vote{P: fateParams, Value: uint64(a.id)})
	}
	to := (a.id + 1 + round%(a.n-1)) % a.n // never the agent itself
	return gossip.PullFrom(to, core.IntentQuery{P: fateParams})
}

func (a *fateAgent) HandlePush(round, from int, p gossip.Payload) {
	a.pushes = append(a.pushes, from)
}

func (a *fateAgent) HandlePull(round, from int, q gossip.Payload) gossip.Payload {
	if a.refuse {
		return nil
	}
	return core.Vote{P: fateParams, Value: uint64(a.id)}
}

func (a *fateAgent) HandlePullReply(round, from int, reply gossip.Payload) {
	if reply == nil {
		a.replies = append(a.replies, -1)
		return
	}
	a.replies = append(a.replies, int(reply.(core.Vote).Value))
}

const (
	fateNodes  = 8
	fateRounds = 40
	fateDrop   = 0.3
	fateSeed   = 11
)

// fateFaults silences nodes 6 and 7 on alternating two-round intervals, so
// pulls regularly address quiescent targets.
var fateFaults = gossip.ChurnSchedule{
	Mask:   []bool{false, false, false, false, false, false, true, true},
	Period: 2,
}

func fateAgents() ([]gossip.Agent, []*fateAgent) {
	agents := make([]gossip.Agent, fateNodes)
	scripted := make([]*fateAgent, fateNodes)
	for i := range agents {
		a := &fateAgent{id: i, n: fateNodes, refuse: i == 2 || i == 5, self: i == 0, pusher: i == 1}
		agents[i], scripted[i] = a, a
	}
	return agents, scripted
}

// TestPullFatesAtHeavyLoss pins every pull fate of the pipelined pull phase
// against the simulator at 30% message loss: query-lost (also against a
// quiescent target, where the query draw precedes the silence check),
// no-reply, refused, reply-lost, and success. The runtime's transcript,
// counters, and every agent's observations must match gossip.Engine byte for
// byte on each rung, and the live report must count exactly the queries the
// loss stream kept and the replies that landed.
func TestPullFatesAtHeavyLoss(t *testing.T) {
	engAgents, engScripted := fateAgents()
	engTrace := &trace.Memory{}
	engCounters := &metrics.Counters{}
	eng := gossip.NewEngine(gossip.Config{
		Topology: topo.NewComplete(fateNodes),
		Faults:   fateFaults,
		Counters: engCounters,
		Trace:    engTrace,
		Workers:  1,
		Drop:     fateDrop,
		DropRand: rng.New(fateSeed),
	}, engAgents)
	for r := 0; r < fateRounds; r++ {
		eng.Step()
	}
	events := engTrace.Events()
	want := transcriptBytes(events)

	notes := map[string]int{}
	lostToSilent, queries, replies := 0, int64(0), int64(0)
	for _, ev := range events {
		if ev.Kind != trace.KindPull {
			continue
		}
		notes[ev.Note]++
		switch ev.Note {
		case "query-lost":
			if fateFaults.Silent(ev.Round, ev.To) {
				lostToSilent++
			}
		case "":
			queries++
			replies++
		case "refused", "reply-lost":
			queries++
		}
	}
	for _, note := range []string{"query-lost", "no-reply", "refused", "reply-lost", ""} {
		if notes[note] == 0 {
			t.Fatalf("pull fate %q never occurred (%v) — the comparison proves nothing about it", note, notes)
		}
	}
	if lostToSilent == 0 {
		t.Fatalf("no query-lost against a quiescent target (%v)", notes)
	}

	rungs := []struct {
		name    string
		conduit func(t *testing.T) runtime.Conduit
	}{
		{"channel", func(*testing.T) runtime.Conduit { return runtime.ChannelConduit{} }},
		{"unix", func(t *testing.T) runtime.Conduit { return socketConduit(t, "unix") }},
	}
	for _, rung := range rungs {
		rung := rung
		t.Run(rung.name, func(t *testing.T) {
			agents, scripted := fateAgents()
			tr := &trace.Memory{}
			counters := &metrics.Counters{}
			rt := runtime.New(runtime.Config{
				Topology: topo.NewComplete(fateNodes),
				Faults:   fateFaults,
				Counters: counters,
				Trace:    tr,
				Drop:     fateDrop,
				DropRand: rng.New(fateSeed),
				Conduit:  rung.conduit(t),
			}, agents)
			rounds, err := rt.Run(context.Background(), fateRounds)
			rt.Shutdown()
			if err != nil || rounds != fateRounds {
				t.Fatalf("ran %d rounds (err %v), want %d", rounds, err, fateRounds)
			}
			if got := transcriptBytes(tr.Events()); !bytes.Equal(got, want) {
				t.Fatalf("transcripts differ (engine %d bytes, runtime %d bytes)\nfirst engine lines:\n%s\nfirst runtime lines:\n%s",
					len(want), len(got), head(want), head(got))
			}
			for i := range scripted {
				if !reflect.DeepEqual(scripted[i], engScripted[i]) {
					t.Fatalf("agent %d observed differently\nengine:  %+v\nruntime: %+v", i, engScripted[i], scripted[i])
				}
			}
			type tally struct{ Messages, Pushes, Pulls, Unanswered int }
			wantTally := tally{engCounters.Messages(), engCounters.Pushes(), engCounters.Pulls(), engCounters.UnansweredPulls()}
			gotTally := tally{counters.Messages(), counters.Pushes(), counters.Pulls(), counters.UnansweredPulls()}
			if gotTally != wantTally || counters.Bits() != engCounters.Bits() {
				t.Fatalf("counters differ\nengine:  %+v, %d bits\nruntime: %+v, %d bits", wantTally, engCounters.Bits(), gotTally, counters.Bits())
			}
			live := rt.Live(0)
			if live.Queries != queries || live.Replies != replies {
				t.Fatalf("live counts %d queries / %d replies, want %d / %d (only kept queries and landed replies count)",
					live.Queries, live.Replies, queries, replies)
			}
		})
	}
}
