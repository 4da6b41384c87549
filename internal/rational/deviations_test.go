package rational

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/rng"
	"repro/internal/topo"
)

// buildOne constructs a single-member coalition agent for mechanics tests.
func buildOne(t *testing.T, dev Deviation, n, member int) gossip.Agent {
	t.Helper()
	p := core.MustParams(n, 2, 1)
	ctx := &BuildContext{
		Params:    p,
		Topology:  topo.NewComplete(n),
		Colors:    core.UniformColors(n, 2),
		Coalition: NewCoalition([]int{member}),
		Rng:       rng.New(99),
	}
	agents := dev.Build(ctx)
	if len(agents) != 1 {
		t.Fatalf("Build returned %d agents", len(agents))
	}
	return agents[0]
}

func TestMinKLiarMechanics(t *testing.T) {
	p := core.MustParams(16, 2, 1)
	a := buildOne(t, MinKLiar{ForgedK: 3}, 16, 5).(*liarAgent)
	q := p.Q
	// During Find-Min the liar answers pulls with the forged certificate.
	reply := a.HandlePull(2*q, 1, core.CertQuery{P: p})
	cert, ok := reply.(*core.Certificate)
	if !ok || cert.K != 3 || cert.Owner != 5 {
		t.Fatalf("forged reply = %v", reply)
	}
	// The forged certificate passes the structural sum check by design...
	if got := core.SumVotesMod(cert.W, p.M); got != cert.K {
		t.Fatal("forged certificate fails its own sum check")
	}
	// ...but is rejected by a verifier holding the liar's real declaration.
	log := core.NewCommitmentLog()
	log.Record(5, a.Agent.Intentions())
	if err := core.VerifyCertificate(p, cert, log); err == nil {
		t.Fatal("forged certificate passed verification against the binding declaration")
	}
	// Coherence: the liar pushes the forgery.
	act := a.Act(3 * q)
	if act.Kind != gossip.ActPush {
		t.Fatalf("coherence action = %v", act.Kind)
	}
	if c, ok := act.Payload.(*core.Certificate); !ok || c.K != 3 {
		t.Fatal("liar does not push the forgery in coherence")
	}
	// The liar never self-fails and decides its own color when the forgery
	// is the minimum it saw.
	a.Act(4 * q)
	if !a.Decided() || a.Failed() {
		t.Fatal("liar participant state wrong")
	}
}

func TestVoteWithholderMechanics(t *testing.T) {
	a := buildOne(t, VoteWithholder{}, 16, 4).(*withholderAgent)
	p := a.P
	for r := p.Q; r < 2*p.Q; r++ {
		if act := a.Act(r); act.Kind != gossip.ActNone {
			t.Fatalf("withholder acted in voting round %d: %v", r, act.Kind)
		}
	}
	// Everything else follows the protocol.
	if act := a.Act(0); act.Kind != gossip.ActPull {
		t.Fatal("withholder skipped commitment")
	}
}

func TestEquivocatorAlternatesDeclarations(t *testing.T) {
	a := buildOne(t, Equivocator{}, 16, 4).(*equivocatorAgent)
	p := a.P
	r1 := a.HandlePull(0, 1, core.IntentQuery{P: p}).(core.Intentions)
	r2 := a.HandlePull(0, 2, core.IntentQuery{P: p}).(core.Intentions)
	same := true
	for i := range r1.Votes {
		if r1.Votes[i] != r2.Votes[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("equivocator gave identical declarations")
	}
	// Both declarations are well-formed (length q), so neither puller marks
	// it faulty — the lie only surfaces at verification.
	if len(r1.Votes) != p.Q || len(r2.Votes) != p.Q {
		t.Fatal("equivocator declaration malformed")
	}
}

// TestDeviationsHandlePullIsStateless pins the gossip.Agent contract for
// every deviation: answering a pull must not change the agent, so the same
// query asked twice in a row gets the same answer in every phase. The
// message-passing runtime answers queries the loss model then drops, and
// answers all of a round's queries before any reply lands; an agent whose
// answers drift with the number of queries would diverge from the simulator.
func TestDeviationsHandlePullIsStateless(t *testing.T) {
	const n, member = 16, 4
	p := core.MustParams(n, 2, 1)
	for _, dev := range AllDeviations() {
		a := buildOne(t, dev, n, member)
		for r := 0; r < p.TotalRounds(); r++ {
			for _, from := range []int{1, 2} {
				q := gossip.Payload(core.IntentQuery{P: p})
				if p.PhaseOf(r) != core.PhaseCommitment {
					q = core.CertQuery{P: p}
				}
				first := a.HandlePull(r, from, q)
				if second := a.HandlePull(r, from, q); !reflect.DeepEqual(first, second) {
					t.Fatalf("%s: round %d, puller %d: answers differ across repeated queries:\n%v\n%v",
						dev.Name(), r, from, first, second)
				}
			}
		}
	}
}

func TestAdaptiveSelfVoterLandsOnTarget(t *testing.T) {
	a := buildOne(t, AdaptiveSelfVoter{TargetK: 1}, 16, 4).(*adaptiveVoterAgent)
	p := a.P
	// Feed some honest votes during voting.
	a.HandlePush(p.Q, 2, core.Vote{P: p, Value: 1000})
	a.HandlePush(p.Q, 3, core.Vote{P: p, Value: 2000})
	// Final voting round: the adaptive self-vote.
	act := a.Act(2*p.Q - 1)
	if act.Kind != gossip.ActPush || act.To != 4 {
		t.Fatalf("final vote action = %+v", act)
	}
	v := act.Payload.(core.Vote)
	// Deliver it to itself as the engine would.
	a.HandlePush(2*p.Q-1, 4, v)
	if got := a.Agent.K(); got != 1 {
		t.Fatalf("adaptive k = %d, want 1", got)
	}
}

func TestVoteConcentratorTargetsRingleader(t *testing.T) {
	p := core.MustParams(16, 2, 1)
	ctx := &BuildContext{
		Params:    p,
		Topology:  topo.NewComplete(16),
		Colors:    core.UniformColors(16, 2),
		Coalition: NewCoalition([]int{7, 11}),
		Rng:       rng.New(1),
	}
	agents := VoteConcentrator{}.Build(ctx)
	for _, ag := range agents {
		ca := ag.(*concentratorAgent)
		for _, in := range ca.Agent.Intentions() {
			if in.Z != 7 {
				t.Fatalf("member %d intent targets %d, want ringleader 7", ca.ID(), in.Z)
			}
		}
		// The declaration it serves matches what it will vote (undetectable).
		decl := ca.HandlePull(0, 1, core.IntentQuery{P: p}).(core.Intentions)
		if len(decl.Votes) != p.Q || decl.Votes[0].Z != 7 {
			t.Fatal("declaration does not match rigged intentions")
		}
	}
}

func TestIntentSpammerMarkedFaulty(t *testing.T) {
	n := 16
	p := core.MustParams(n, 2, 1)
	spammer := buildOne(t, IntentSpammer{}, n, 4).(*spammerAgent)
	decl := spammer.HandlePull(0, 1, core.IntentQuery{P: p}).(core.Intentions)
	if len(decl.Votes) <= p.Q {
		t.Fatalf("spam declaration has only %d votes", len(decl.Votes))
	}
	// An honest agent receiving it marks the spammer faulty.
	honest := core.NewAgent(0, p, 0, topo.NewComplete(n), rng.New(2))
	honest.HandlePullReply(0, 4, decl)
	if !honest.Log().Faulty(4) {
		t.Fatal("oversized declaration accepted")
	}
}

func TestVoteConcentratorNoProfitEndToEnd(t *testing.T) {
	// The undetectable deviation must not raise the coalition win rate above
	// fair share, and must not cause failures (it is protocol-compliant).
	const n, trials = 48, 150
	fails, wins := countOutcomes(t, VoteConcentrator{}, []int{5, 11, 23}, n, trials)
	if fails > trials/10 {
		t.Fatalf("compliant deviation caused %d/%d failures", fails, trials)
	}
	// Coalition supports color 1 (IDs 5,11,23 are odd → color 1 under
	// UniformColors with 2 colors); fair share of color 1 is 50%.
	if float64(wins) > 0.65*float64(trials) {
		t.Fatalf("vote concentration won %d/%d — targeting should not matter", wins, trials)
	}
}

func TestIntentSpammerNoProfitEndToEnd(t *testing.T) {
	const n, trials = 48, 100
	_, wins := countOutcomes(t, IntentSpammer{}, []int{6}, n, trials)
	if float64(wins) > 0.65*float64(trials) {
		t.Fatalf("spammer colors won %d/%d", wins, trials)
	}
}

func TestPretendFaultyLearnsWinner(t *testing.T) {
	a := buildOne(t, PretendFaulty{}, 16, 4).(*pretendFaultyAgent)
	p := core.MustParams(16, 2, 1)
	cert := &core.Certificate{P: p, K: 9, Color: 1, Owner: 2, W: []core.WEntry{{Voter: 1, Value: 9}}}
	a.HandlePush(3*p.Q, 2, cert)
	worse := &core.Certificate{P: p, K: 20, Color: 0, Owner: 3, W: []core.WEntry{{Voter: 1, Value: 20}}}
	a.HandlePush(3*p.Q, 3, worse)
	for r := 0; r <= p.TotalRounds(); r++ {
		if act := a.Act(r); act.Kind != gossip.ActNone {
			t.Fatal("pretend-faulty acted")
		}
	}
	if !a.Decided() || a.FinalColor() != 1 {
		t.Fatalf("pretend-faulty output = %d, want winner color 1", a.FinalColor())
	}
	if a.HandlePull(0, 1, core.IntentQuery{P: p}) != nil {
		t.Fatal("pretend-faulty answered a pull")
	}
}

func TestDevCoreFallbackOutput(t *testing.T) {
	// A deviator that saw no certificate outputs its own color.
	a := buildOne(t, VoteWithholder{}, 16, 4).(*withholderAgent)
	if a.FinalColor() != a.Agent.InitialColor() {
		t.Fatal("fallback output wrong")
	}
}
