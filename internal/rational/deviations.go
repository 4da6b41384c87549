package rational

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/rng"
)

// devCore is the shared chassis of deviation agents: an embedded honest agent
// providing default protocol behaviour, plus a rational end-of-protocol
// decision. A rational deviator never makes itself fail — it outputs the
// color of the smallest certificate it believes the network converged on
// (whether the outcome is a consensus then depends on what the honest agents
// verified).
type devCore struct {
	*core.Agent
	P       core.Params
	decided bool
	best    *core.Certificate
}

func newDevCore(id int, ctx *BuildContext, r *rng.Source) *devCore {
	a := core.NewAgent(id, ctx.Params, ctx.Colors[id], ctx.Topology, r)
	return &devCore{Agent: a, P: ctx.Params}
}

// observe folds a certificate into the deviator's belief about the winner.
func (d *devCore) observe(c *core.Certificate) {
	if c == nil {
		return
	}
	if d.best == nil || c.Less(d.best) {
		d.best = c
	}
}

// decide fixes the deviator's output from everything observed so far.
func (d *devCore) decide() {
	d.observe(d.Agent.MinCertificate())
	d.decided = true
}

// Decided implements core.Participant.
func (d *devCore) Decided() bool { return d.decided }

// Failed implements core.Participant: a rational agent never self-fails.
func (d *devCore) Failed() bool { return false }

// FinalColor implements core.Participant.
func (d *devCore) FinalColor() core.Color {
	if d.best != nil {
		return d.best.Color
	}
	return d.Agent.InitialColor()
}

// buildWrapped is a helper running a per-member constructor.
func buildWrapped(ctx *BuildContext, mk func(i, id int, r *rng.Source) gossip.Agent) []gossip.Agent {
	out := make([]gossip.Agent, len(ctx.Coalition.Members))
	for i, id := range ctx.Coalition.Members {
		out[i] = mk(i, id, ctx.Rng.Split(uint64(id)))
	}
	return out
}

// Honest is the control "deviation": members follow Protocol P. Equilibrium
// experiments compare every real deviation's utilities against this profile.
type Honest struct{}

// Name implements Deviation.
func (Honest) Name() string { return "honest" }

// Build returns plain protocol agents.
func (Honest) Build(ctx *BuildContext) []gossip.Agent {
	return buildWrapped(ctx, func(i, id int, r *rng.Source) gossip.Agent {
		return core.NewAgent(id, ctx.Params, ctx.Colors[id], ctx.Topology, r)
	})
}

// MinKLiar has the coalition promote a forged certificate with a tiny k owned
// by the ringleader (the first member). The forged W is a single self-vote
// equal to k, so the sum check passes; the commitment consistency check is
// what must catch it (the ringleader's binding declaration does not contain
// that self-vote).
type MinKLiar struct {
	// ForgedK is the claimed k value; 0 means "use 1".
	ForgedK uint64
}

// Name implements Deviation.
func (d MinKLiar) Name() string { return "min-k-liar" }

// Build implements Deviation.
func (d MinKLiar) Build(ctx *BuildContext) []gossip.Agent {
	k := d.ForgedK
	if k == 0 {
		k = 1
	}
	ringleader := ctx.Coalition.Members[0]
	forged := &core.Certificate{
		P:     ctx.Params,
		K:     k,
		W:     []core.WEntry{{Voter: int32(ringleader), Value: k}},
		Color: ctx.Colors[ringleader],
		Owner: int32(ringleader),
	}
	return buildWrapped(ctx, func(i, id int, r *rng.Source) gossip.Agent {
		return &liarAgent{devCore: newDevCore(id, ctx, r), forged: forged}
	})
}

type liarAgent struct {
	*devCore
	forged *core.Certificate
}

func (a *liarAgent) Act(round int) gossip.Action {
	switch a.P.PhaseOf(round) {
	case core.PhaseFindMin:
		a.Agent.EnsureCertificate()
		// Keep pulling like an honest agent to learn the true minimum (for
		// the end-of-protocol output), while answering pulls with the forgery.
		return a.Agent.Act(round)
	case core.PhaseCoherence:
		return gossip.PushTo(a.Topology().SamplePeer(a.ID(), a.Rand()), a.forged)
	case core.PhaseVerification:
		if !a.decided {
			a.observe(a.forged)
			a.decide()
		}
		return gossip.NoAction()
	default:
		return a.Agent.Act(round)
	}
}

func (a *liarAgent) HandlePull(round, from int, q gossip.Payload) gossip.Payload {
	switch a.P.PhaseOf(round) {
	case core.PhaseFindMin, core.PhaseCoherence:
		return a.forged
	default:
		return a.Agent.HandlePull(round, from, q)
	}
}

func (a *liarAgent) HandlePush(round, from int, p gossip.Payload) {
	if a.P.PhaseOf(round) == core.PhaseCoherence {
		if c, ok := p.(*core.Certificate); ok {
			a.observe(c) // never fail; just learn
		}
		return
	}
	a.Agent.HandlePush(round, from, p)
}

// CertForger is the information-maximizing forgery: the coalition harvests
// commitment declarations during the Commitment phase, then forges a
// certificate for the ringleader containing every *known* real vote for the
// ringleader plus one fabricated vote from an agent outside the harvested
// set, tuned so the sum lands on a tiny k. It is caught (w.h.p.) either by a
// verifier who pulled the fabricated voter, or by one who pulled a real
// voter whose vote the forgery necessarily omits (Definition 5, property 3).
type CertForger struct {
	TargetK uint64 // claimed k; 0 means 1
}

// Name implements Deviation.
func (d CertForger) Name() string { return "cert-forger" }

// Build implements Deviation.
func (d CertForger) Build(ctx *BuildContext) []gossip.Agent {
	k := d.TargetK
	if k == 0 {
		k = 1
	}
	shared := &forgerShared{target: k, ctx: ctx}
	return buildWrapped(ctx, func(i, id int, r *rng.Source) gossip.Agent {
		a := &forgerAgent{devCore: newDevCore(id, ctx, r), shared: shared}
		// Members contribute their own binding declarations to the intel
		// pool so the forgery stays consistent with them.
		ctx.Coalition.ShareIntel(int32(id), a.Agent.Intentions())
		return a
	})
}

type forgerShared struct {
	target uint64
	ctx    *BuildContext

	mu     sync.Mutex
	forged *core.Certificate // built lazily at the start of Find-Min
}

// build assembles the forged certificate from the harvested intel. The first
// caller (any member's first Find-Min Act, possibly concurrent under a
// parallel engine) freezes it.
func (s *forgerShared) build() *core.Certificate {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.forged != nil {
		return s.forged
	}
	p := s.ctx.Params
	ringleader := int32(s.ctx.Coalition.Members[0])
	var w []core.WEntry
	var sum uint64
	for voter := int32(0); int(voter) < p.N; voter++ {
		intents, ok := s.ctx.Coalition.Intel(voter)
		if !ok {
			continue
		}
		for _, in := range intents {
			if in.Z == ringleader {
				w = append(w, core.WEntry{Voter: voter, Value: in.H})
				sum = (sum + in.H) % p.M
			}
		}
	}
	// Fabricate one balancing vote from an agent the coalition has no
	// information about (so no binding declaration contradicts it directly).
	fab := int32(-1)
	for cand := int32(0); int(cand) < p.N; cand++ {
		if _, known := s.ctx.Coalition.Intel(cand); known {
			continue
		}
		if s.ctx.Coalition.Contains(int(cand)) {
			continue
		}
		fab = cand
		break
	}
	if fab >= 0 {
		v := (s.target + p.M - sum) % p.M
		if v == 0 {
			v = p.M
		}
		w = append(w, core.WEntry{Voter: fab, Value: v})
	}
	s.forged = &core.Certificate{
		P:     p,
		K:     core.SumVotesMod(w, p.M),
		W:     w,
		Color: s.ctx.Colors[ringleader],
		Owner: ringleader,
	}
	return s.forged
}

type forgerAgent struct {
	*devCore
	shared *forgerShared
}

func (a *forgerAgent) Act(round int) gossip.Action {
	switch a.P.PhaseOf(round) {
	case core.PhaseFindMin:
		a.Agent.EnsureCertificate()
		a.shared.build()
		return a.Agent.Act(round)
	case core.PhaseCoherence:
		return gossip.PushTo(a.Topology().SamplePeer(a.ID(), a.Rand()), a.shared.build())
	case core.PhaseVerification:
		if !a.decided {
			a.observe(a.shared.build())
			a.decide()
		}
		return gossip.NoAction()
	default:
		return a.Agent.Act(round)
	}
}

func (a *forgerAgent) HandlePull(round, from int, q gossip.Payload) gossip.Payload {
	switch a.P.PhaseOf(round) {
	case core.PhaseFindMin, core.PhaseCoherence:
		return a.shared.build()
	default:
		return a.Agent.HandlePull(round, from, q)
	}
}

func (a *forgerAgent) HandlePush(round, from int, p gossip.Payload) {
	if a.P.PhaseOf(round) == core.PhaseCoherence {
		if c, ok := p.(*core.Certificate); ok {
			a.observe(c)
		}
		return
	}
	a.Agent.HandlePush(round, from, p)
}

func (a *forgerAgent) HandlePullReply(round, from int, reply gossip.Payload) {
	// Harvest declarations for the shared intel pool during Commitment.
	if a.P.PhaseOf(round) == core.PhaseCommitment {
		if in, ok := reply.(core.Intentions); ok {
			a.shared.ctx.Coalition.ShareIntel(int32(from), in.Votes)
		}
	}
	a.Agent.HandlePullReply(round, from, reply)
}

// VoteWithholder declares intentions honestly but never pushes a vote. Its
// committed votes are then missing from every target's W, so whenever one of
// its declared targets wins, verifiers that pulled the withholder fail the
// protocol — withholding can only destroy utility, never create it.
type VoteWithholder struct{}

// Name implements Deviation.
func (VoteWithholder) Name() string { return "vote-withholder" }

// Build implements Deviation.
func (VoteWithholder) Build(ctx *BuildContext) []gossip.Agent {
	return buildWrapped(ctx, func(i, id int, r *rng.Source) gossip.Agent {
		return &withholderAgent{devCore: newDevCore(id, ctx, r)}
	})
}

type withholderAgent struct{ *devCore }

func (a *withholderAgent) Act(round int) gossip.Action {
	switch a.P.PhaseOf(round) {
	case core.PhaseVoting:
		return gossip.NoAction()
	case core.PhaseVerification:
		if !a.decided {
			a.decide()
		}
		return gossip.NoAction()
	default:
		return a.Agent.Act(round)
	}
}

// PretendFaulty is fully quiescent: it never acts and never answers, exactly
// like a crashed node — the deviation Section 1 singles out ("a rational
// active agent can pretend to be a faulty node"). It still listens, and at
// the end outputs the color of the smallest certificate pushed to it during
// Coherence, free-riding on the consensus.
type PretendFaulty struct{}

// Name implements Deviation.
func (PretendFaulty) Name() string { return "pretend-faulty" }

// Build implements Deviation.
func (PretendFaulty) Build(ctx *BuildContext) []gossip.Agent {
	return buildWrapped(ctx, func(i, id int, r *rng.Source) gossip.Agent {
		return &pretendFaultyAgent{p: ctx.Params, color: ctx.Colors[id], total: ctx.Params.TotalRounds()}
	})
}

type pretendFaultyAgent struct {
	p       core.Params
	color   core.Color
	total   int
	best    *core.Certificate
	decided bool
}

func (a *pretendFaultyAgent) Act(round int) gossip.Action {
	if round >= a.total-1 {
		a.decided = true
	}
	return gossip.NoAction()
}

func (a *pretendFaultyAgent) HandlePush(round, from int, p gossip.Payload) {
	if c, ok := p.(*core.Certificate); ok {
		if a.best == nil || c.Less(a.best) {
			a.best = c.Clone()
		}
	}
}

func (a *pretendFaultyAgent) HandlePull(round, from int, q gossip.Payload) gossip.Payload {
	return nil // silence, indistinguishable from a crash
}

func (a *pretendFaultyAgent) HandlePullReply(round, from int, reply gossip.Payload) {}

// Decided implements core.Participant.
func (a *pretendFaultyAgent) Decided() bool { return a.decided }

// Failed implements core.Participant.
func (a *pretendFaultyAgent) Failed() bool { return false }

// FinalColor implements core.Participant.
func (a *pretendFaultyAgent) FinalColor() core.Color {
	if a.best != nil {
		return a.best.Color
	}
	return a.color
}

// MinPromoter is the coordinated suppression attack: members run the
// protocol honestly through Voting, then pool their true certificates, pick
// the coalition-minimal one, and answer every Find-Min pull with it —
// suppressing any smaller honest certificate they know of. With Push set
// they also push it during Coherence. Because the promoted certificate is
// genuine, verification passes when it happens to be the true minimum; when
// it is not, the honest true minimum still spreads through honest pulls and
// the Coherence phase detects the split.
type MinPromoter struct {
	// Push makes members push the promoted certificate during Coherence
	// (more aggressive, more detectable).
	Push bool
}

// Name implements Deviation.
func (d MinPromoter) Name() string {
	if d.Push {
		return "min-promoter-push"
	}
	return "min-promoter-silent"
}

// Build implements Deviation.
func (d MinPromoter) Build(ctx *BuildContext) []gossip.Agent {
	return buildWrapped(ctx, func(i, id int, r *rng.Source) gossip.Agent {
		return &promoterAgent{devCore: newDevCore(id, ctx, r), co: ctx.Coalition, push: d.Push}
	})
}

type promoterAgent struct {
	*devCore
	co   *Coalition
	push bool
}

func (a *promoterAgent) Act(round int) gossip.Action {
	switch a.P.PhaseOf(round) {
	case core.PhaseFindMin:
		a.co.RegisterCert(a.ID(), a.Agent.EnsureCertificate())
		return a.Agent.Act(round) // keep pulling to learn the honest minimum
	case core.PhaseCoherence:
		if a.push {
			if c := a.co.MinCert(); c != nil {
				return gossip.PushTo(a.Topology().SamplePeer(a.ID(), a.Rand()), c)
			}
		}
		return gossip.NoAction()
	case core.PhaseVerification:
		if !a.decided {
			a.observe(a.co.MinCert())
			a.decide()
		}
		return gossip.NoAction()
	default:
		return a.Agent.Act(round)
	}
}

func (a *promoterAgent) HandlePull(round, from int, q gossip.Payload) gossip.Payload {
	switch a.P.PhaseOf(round) {
	case core.PhaseFindMin, core.PhaseCoherence:
		if c := a.co.MinCert(); c != nil {
			return c
		}
		return a.Agent.HandlePull(round, from, q)
	default:
		return a.Agent.HandlePull(round, from, q)
	}
}

func (a *promoterAgent) HandlePush(round, from int, p gossip.Payload) {
	if a.P.PhaseOf(round) == core.PhaseCoherence {
		if c, ok := p.(*core.Certificate); ok {
			a.observe(c)
		}
		return
	}
	a.Agent.HandlePush(round, from, p)
}

// Equivocator gives different vote-intention declarations to different
// pullers during Commitment while voting according to its first list: odd
// pullers get an alternate list. The choice is a function of the puller, not
// of how many queries came before, so HandlePull leaves the agent's state
// untouched as the gossip.Agent contract requires. Two
// verifiers holding conflicting declarations cannot both find the winner's W
// consistent whenever one of the equivocator's targets wins, so equivocation
// manufactures failures but no wins.
type Equivocator struct{}

// Name implements Deviation.
func (Equivocator) Name() string { return "equivocator" }

// Build implements Deviation.
func (Equivocator) Build(ctx *BuildContext) []gossip.Agent {
	return buildWrapped(ctx, func(i, id int, r *rng.Source) gossip.Agent {
		a := &equivocatorAgent{devCore: newDevCore(id, ctx, r)}
		// A second, independent intention list for alternate declarations.
		alt := r.Split(7)
		a.altIntents = make([]core.Intent, ctx.Params.Q)
		for j := range a.altIntents {
			a.altIntents[j] = core.Intent{
				H: alt.Uint64n(ctx.Params.M) + 1,
				Z: int32(ctx.Topology.SamplePeer(id, alt)),
			}
		}
		return a
	})
}

type equivocatorAgent struct {
	*devCore
	altIntents []core.Intent
}

func (a *equivocatorAgent) Act(round int) gossip.Action {
	if a.P.PhaseOf(round) == core.PhaseVerification {
		if !a.decided {
			a.decide()
		}
		return gossip.NoAction()
	}
	return a.Agent.Act(round)
}

func (a *equivocatorAgent) HandlePull(round, from int, q gossip.Payload) gossip.Payload {
	if a.P.PhaseOf(round) == core.PhaseCommitment {
		if from%2 == 1 {
			return core.Intentions{P: a.P, Votes: a.altIntents}
		}
		return core.Intentions{P: a.P, Votes: a.Agent.Intentions()}
	}
	return a.Agent.HandlePull(round, from, q)
}

// AdaptiveSelfVoter exploits the adaptivity window the commitment scheme
// must close: it follows the protocol but replaces its final vote with a
// self-vote tuned so that its own k lands on TargetK (usually 1), making it
// the Find-Min winner whenever no further vote arrives afterwards. The vote
// is necessarily inconsistent with its binding declaration, so any verifier
// that pulled it during Commitment rejects — this deviation directly probes
// Definition 5 property 1.
type AdaptiveSelfVoter struct {
	TargetK uint64 // 0 means 1
}

// Name implements Deviation.
func (AdaptiveSelfVoter) Name() string { return "adaptive-self-voter" }

// Build implements Deviation.
func (d AdaptiveSelfVoter) Build(ctx *BuildContext) []gossip.Agent {
	k := d.TargetK
	if k == 0 {
		k = 1
	}
	return buildWrapped(ctx, func(i, id int, r *rng.Source) gossip.Agent {
		return &adaptiveVoterAgent{devCore: newDevCore(id, ctx, r), target: k}
	})
}

type adaptiveVoterAgent struct {
	*devCore
	target uint64
}

func (a *adaptiveVoterAgent) Act(round int) gossip.Action {
	p := a.P
	switch p.PhaseOf(round) {
	case core.PhaseVoting:
		if round == 2*p.Q-1 {
			// k so far is the sum of votes received before this round; pick
			// the self-vote value that lands the sum on the target.
			cur := a.Agent.K()
			v := (a.target + p.M - cur) % p.M
			if v == 0 {
				v = p.M
			}
			return gossip.PushTo(a.ID(), core.Vote{P: p, Value: v})
		}
		return a.Agent.Act(round)
	case core.PhaseVerification:
		if !a.decided {
			a.decide()
		}
		return gossip.NoAction()
	default:
		return a.Agent.Act(round)
	}
}

// VoteConcentrator is the fully protocol-compliant targeting attack: every
// coalition member declares — and then faithfully casts — all q of its votes
// for the ringleader. Nothing in the protocol forbids choosing targets
// adversarially, so this deviation is undetectable; it simply does not work,
// because the ringleader's k is a modular sum that also contains at least one
// honest vote the coalition can neither see nor influence (Claim 2), leaving
// k uniform. The measured win rate staying at the fair share is the sharpest
// empirical illustration of the deferred-decision argument.
type VoteConcentrator struct {
	// Target is the agent all coalition votes aim at; HasTarget false means
	// the ringleader (first member). Aiming at an honest agent turns this
	// into a lottery-bombing attack on that agent's k, which Claim 2 says is
	// equally futile.
	HasTarget bool
	Target    int
}

// Name implements Deviation.
func (VoteConcentrator) Name() string { return "vote-concentrator" }

// Build implements Deviation.
func (d VoteConcentrator) Build(ctx *BuildContext) []gossip.Agent {
	ringleader := int32(ctx.Coalition.Members[0])
	if d.HasTarget {
		ringleader = int32(d.Target)
	}
	return buildWrapped(ctx, func(i, id int, r *rng.Source) gossip.Agent {
		a := &concentratorAgent{devCore: newDevCore(id, ctx, r)}
		// Rewrite the intention list in place before anything is declared:
		// same random values, every target the ringleader.
		intents := a.Agent.Intentions()
		for j := range intents {
			intents[j].Z = ringleader
		}
		return a
	})
}

type concentratorAgent struct{ *devCore }

func (a *concentratorAgent) Act(round int) gossip.Action {
	if a.P.PhaseOf(round) == core.PhaseVerification {
		if !a.decided {
			a.decide()
		}
		return gossip.NoAction()
	}
	return a.Agent.Act(round) // fully honest mechanics over the rigged list
}

// IntentSpammer answers every Commitment pull with an oversized garbage
// declaration — a bandwidth/memory attack on verifiers rather than a fairness
// attack. Honest agents reject malformed declarations and mark the spammer
// faulty (footnote 4 semantics), so its votes count as zero everywhere and it
// effectively removes itself from the lottery.
type IntentSpammer struct {
	// Factor scales the spam list length relative to q (0 means 16×).
	Factor int
}

// Name implements Deviation.
func (IntentSpammer) Name() string { return "intent-spammer" }

// Build implements Deviation.
func (d IntentSpammer) Build(ctx *BuildContext) []gossip.Agent {
	factor := d.Factor
	if factor <= 0 {
		factor = 16
	}
	return buildWrapped(ctx, func(i, id int, r *rng.Source) gossip.Agent {
		a := &spammerAgent{devCore: newDevCore(id, ctx, r)}
		a.spam = make([]core.Intent, factor*ctx.Params.Q)
		for j := range a.spam {
			a.spam[j] = core.Intent{
				H: r.Uint64n(ctx.Params.M) + 1,
				Z: int32(ctx.Topology.SamplePeer(id, r)),
			}
		}
		return a
	})
}

type spammerAgent struct {
	*devCore
	spam []core.Intent
}

func (a *spammerAgent) Act(round int) gossip.Action {
	if a.P.PhaseOf(round) == core.PhaseVerification {
		if !a.decided {
			a.decide()
		}
		return gossip.NoAction()
	}
	return a.Agent.Act(round)
}

func (a *spammerAgent) HandlePull(round, from int, q gossip.Payload) gossip.Payload {
	if a.P.PhaseOf(round) == core.PhaseCommitment {
		return core.Intentions{P: a.P, Votes: a.spam}
	}
	return a.Agent.HandlePull(round, from, q)
}

// AllDeviations returns one instance of every deviation in the library, the
// adversary suite exercised by the Theorem 7 experiments.
func AllDeviations() []Deviation {
	return []Deviation{
		MinKLiar{},
		CertForger{},
		VoteWithholder{},
		PretendFaulty{},
		MinPromoter{Push: true},
		MinPromoter{Push: false},
		Equivocator{},
		AdaptiveSelfVoter{},
		VoteConcentrator{},
		IntentSpammer{},
	}
}

// DeviationByName returns the library deviation with the given name.
func DeviationByName(name string) (Deviation, error) {
	if name == "honest" {
		return Honest{}, nil
	}
	for _, d := range AllDeviations() {
		if d.Name() == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("rational: unknown deviation %q", name)
}
