// Package runtime executes the protocol as a real message-passing system:
// every agent becomes a Node — its own goroutine with a typed, bounded
// mailbox — and all communication crosses a pluggable Conduit transport.
// It is the simulator-to-runtime ladder: in-process channels
// (ChannelConduit), fault-injecting transports layered on top
// (FaultConduit), and real OS sockets (the netconduit subpackage: batched
// frames over TCP or Unix-domain loopback, acknowledged per frame) — with
// the protocol logic (core.Agent) untouched at every rung. A conduit that
// holds transport resources implements io.Closer and is closed by Shutdown.
//
// # Scheduling and transcript equivalence
//
// The coordinator is a deterministic round-barrier scheduler that mirrors
// gossip.Engine.Step operation for operation: advance the dynamic topology
// at the round boundary, fan RoundStart out to every active node and collect
// their actions (the nodes run Act concurrently, like the engine's parallel
// Act phase), validate against the topology in node order, then deliver
// pushes and resolve pulls in ascending node-ID order. Message loss
// (Config.Drop) is drawn from the same seed-derived stream in the same order
// as the simulator. Agents never emit trace events, so with the loss-free
// ChannelConduit the runtime's transcript is byte-identical to the
// simulator's for the same seed — every golden fixture and experiment
// finding carries over. See the equivalence suite in this package's tests.
//
// # Pipelined delivery
//
// The protocol's correctness barrier is per round, so the coordinator does
// not need a synchronous transport round trip per message — only per-
// destination delivery order and coordinator-ordered observables. Each phase
// of a round is dispatched through a conduit Batch as pipelined waves: the
// whole delivery set is handed to the transport without waiting per message,
// and loss draws, results, trace events, and accounting are settled at the
// barrier in the simulator's order — so the transcript stays byte-identical
// while the transport coalesces frames and overlaps acknowledgements. Push
// losses are drawn before dispatch. A pull phase dispatches every query to a
// non-silent target first and draws each pull's query loss, then its
// conditional reply loss, in the puller-ordered resolution pass that follows
// the query wave; a query the stream drops is answered but its answer is
// discarded. That is exact because HandlePull never changes agent state (the
// gossip.Agent contract).
//
// On top of that parity the runtime measures what the simulator cannot:
// wall-clock convergence and per-message delivery latency, reported as a
// metrics.Live with streaming quantiles (stats.QuantileSketch).
package runtime

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/gossip"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
)

// DefaultMailbox is the per-node inbox capacity when Config.Mailbox is 0.
// Under the round-barrier scheduler a mailbox never holds more than one
// in-flight message, but a small buffer keeps the fan-out phase from
// serializing on slow-to-wake nodes.
const DefaultMailbox = 4

// Config configures a Runtime. It mirrors gossip.Config — same topology,
// fault, accounting, and loss semantics — plus the transport knobs.
type Config struct {
	// Topology is the communication graph. A topo.Dynamic topology must be
	// Started by the caller; the runtime advances it once per round.
	Topology topo.Topology
	// Faulty marks permanently faulty nodes; nil means fault-free. Nodes in
	// this mask may have no agent and get no goroutine.
	Faulty []bool
	// Faults optionally adds a dynamic quiescence schedule on top of Faulty.
	Faults gossip.FaultSchedule
	// Counters receives communication accounting; nil allocates a private one.
	Counters *metrics.Counters
	// Trace receives events; nil disables tracing. Only the coordinator
	// emits, so the sink needs no synchronization.
	Trace trace.Sink
	// Drop and DropRand are the probabilistic message-loss model, with
	// exactly gossip.Config's semantics: the loss stream is drawn once per
	// non-self message in delivery order, so for the same seed the runtime
	// loses the same messages the simulator does.
	Drop     float64
	DropRand *rng.Source
	// Conduit is the transport; nil means ChannelConduit.
	Conduit Conduit
	// Mailbox is the per-node inbox capacity; 0 means DefaultMailbox.
	Mailbox int
}

// Runtime drives a set of Nodes through synchronous rounds. It is the
// deterministic round-barrier scheduler; all delivery decisions (loss,
// silence, validation) happen here on the coordinator goroutine, while the
// protocol handlers run on the node goroutines.
type Runtime struct {
	topo     topo.Topology
	dyn      topo.Dynamic // non-nil iff topo is a per-round graph process
	agents   []gossip.Agent
	faults   gossip.FaultSchedule
	counters *metrics.Counters
	sink     trace.Sink
	drop     float64
	dropRand *rng.Source
	conduit  Conduit

	nodes  []*Node
	events chan event
	stop   chan struct{}
	wg     sync.WaitGroup
	halt   sync.Once

	round   int
	dropped int
	tally   metrics.Delta
	actions []gossip.Action
	pushes  []int32
	pulls   []int32

	// Pipelined-delivery scratch, reused every round. evq/evhead are the
	// per-destination FIFO queues that match query-wave completions back to
	// their dispatches.
	batch  Batch
	pfates []pushFate
	precs  []pullRec
	oks    []bool
	evq    [][]event
	evhead []int

	lat       stats.QuantileSketch
	delivered int64
	kinds     [msgKinds]int64
}

// pushFate is one push's pre-drawn, pre-dispatch disposition in a pipelined
// wave: the loss stream and silence mask are consulted in simulator order
// before anything is handed to the transport.
type pushFate uint8

const (
	pushSelf   pushFate = iota // local, free, rides the batch for FIFO order
	pushLost                   // killed by the Drop stream before dispatch
	pushSilent                 // target quiescent: cost paid, nothing sent
	pushSent                   // dispatched; transport decides the rest
)

// pullRec is one pull's bookkeeping across the query and reply waves of a
// pipelined pull phase. The final disposition (note, accounting) is settled
// at the barrier so trace bytes come out in exactly the simulator's order.
type pullRec struct {
	fate      pushFate // pushSelf / pushSilent (nothing dispatched) / pushSent (query dispatched)
	note      string   // final trace note; "" means a successful pull
	served    bool     // the target answered a kept query with a real reply
	w2        int32    // index into the wave-2 results, -1 if the reply was not dispatched
	replyBits int32    // accounted size of the served reply
}

// New validates cfg, builds the node set, and starts one goroutine per
// active agent. agents[i] is the agent at node i; entries for faulty nodes
// may be nil. It panics on size mismatches, mirroring gossip.NewEngine. The
// caller must eventually call Shutdown to stop the node goroutines.
func New(cfg Config, agents []gossip.Agent) *Runtime {
	n := cfg.Topology.N()
	if len(agents) != n {
		panic(fmt.Sprintf("runtime: %d agents for %d nodes", len(agents), n))
	}
	faulty := cfg.Faulty
	if faulty == nil {
		faulty = make([]bool, n)
	}
	if len(faulty) != n {
		panic(fmt.Sprintf("runtime: faulty mask has %d entries for %d nodes", len(faulty), n))
	}
	for i, a := range agents {
		if a == nil && !faulty[i] {
			panic(fmt.Sprintf("runtime: active node %d has no agent", i))
		}
	}
	if cfg.Drop < 0 || cfg.Drop >= 1 {
		panic(fmt.Sprintf("runtime: drop probability %v outside [0, 1)", cfg.Drop))
	}
	if cfg.Drop > 0 && cfg.DropRand == nil {
		panic("runtime: Drop > 0 requires a DropRand source")
	}
	counters := cfg.Counters
	if counters == nil {
		counters = &metrics.Counters{}
	}
	var faults gossip.FaultSchedule = gossip.StaticFaults(faulty)
	if cfg.Faults != nil {
		faults = gossip.UnionFaults{faults, cfg.Faults}
	}
	conduit := cfg.Conduit
	if conduit == nil {
		conduit = ChannelConduit{}
	}
	mailbox := cfg.Mailbox
	if mailbox <= 0 {
		mailbox = DefaultMailbox
	}

	rt := &Runtime{
		topo:     cfg.Topology,
		agents:   agents,
		faults:   faults,
		counters: counters,
		sink:     cfg.Trace,
		drop:     cfg.Drop,
		dropRand: cfg.DropRand,
		conduit:  conduit,
		batch:    conduit.NewBatch(),
		nodes:    make([]*Node, n),
		events:   make(chan event, n),
		stop:     make(chan struct{}),
		actions:  make([]gossip.Action, n),
		evq:      make([][]event, n),
		evhead:   make([]int, n),
	}
	rt.dyn, _ = cfg.Topology.(topo.Dynamic)
	for i, a := range agents {
		if a == nil {
			continue
		}
		rt.nodes[i] = &Node{
			id:     i,
			agent:  a,
			inbox:  make(chan Message, mailbox),
			events: rt.events,
			stop:   rt.stop,
		}
		rt.wg.Add(1)
		go rt.nodes[i].run(&rt.wg)
	}
	return rt
}

// Node returns the node at id (nil for faulty slots) — the handle conduit
// implementations and transport tests address messages to.
func (rt *Runtime) Node(id int) *Node { return rt.nodes[id] }

// Round returns the number of rounds executed so far.
func (rt *Runtime) Round() int { return rt.round }

// DroppedActions returns how many actions were discarded because they
// addressed a non-neighbor or an out-of-range node.
func (rt *Runtime) DroppedActions() int { return rt.dropped }

// Shutdown stops every node goroutine and waits for them to exit, then
// closes the conduit if it holds transport resources (implements io.Closer)
// — the socket conduit's listener and connections die with the runtime. It
// is idempotent and must be called exactly when no Run is in flight; after
// it returns, the agents' final state is safe to read from any goroutine.
func (rt *Runtime) Shutdown() {
	rt.halt.Do(func() { close(rt.stop) })
	rt.wg.Wait()
	if c, ok := rt.conduit.(io.Closer); ok {
		c.Close() //nolint:errcheck // best-effort teardown; Close is idempotent
	}
}

// Run executes rounds until every active Decider agent has decided, maxRounds
// have been executed, or ctx is cancelled (checked at round boundaries). It
// returns the number of rounds run and ctx's error if cancellation cut the
// run short. The caller still owns Shutdown.
func (rt *Runtime) Run(ctx context.Context, maxRounds int) (int, error) {
	start := rt.round
	done := ctx.Done()
	for rt.round-start < maxRounds {
		select {
		case <-done:
			return rt.round - start, ctx.Err()
		default:
		}
		if rt.allDecided() {
			break
		}
		rt.step()
	}
	return rt.round - start, nil
}

// Live reports the runtime-layer observables of the execution so far.
func (rt *Runtime) Live(wall time.Duration) metrics.Live {
	return metrics.Live{
		WallClock:  wall,
		Rounds:     rt.round,
		Delivered:  rt.delivered,
		Pushes:     rt.kinds[MsgPush],
		Votes:      rt.kinds[MsgVote],
		Queries:    rt.kinds[MsgQuery],
		Replies:    rt.kinds[MsgReply],
		LatencyP50: time.Duration(rt.lat.Quantile(0.50)),
		LatencyP99: time.Duration(rt.lat.Quantile(0.99)),
		LatencyMax: time.Duration(rt.lat.Max()),
	}
}

// silent reports whether node u is quiescent at round r.
func (rt *Runtime) silent(r, u int) bool {
	return rt.agents[u] == nil || rt.faults.Silent(r, u)
}

// lost draws one link crossing against the loss model — same stream, same
// order as the simulator's executor.
func (rt *Runtime) lost() bool {
	return rt.drop > 0 && rt.dropRand.Bool(rt.drop)
}

func (rt *Runtime) emit(ev trace.Event) {
	if rt.sink != nil {
		rt.sink.Emit(ev)
	}
}

// allDecided mirrors gossip.Engine: currently-silent nodes do not block
// termination. Reading agent state here is race-free — every agent mutation
// happens on its node goroutine before the completion event the coordinator
// has already received.
func (rt *Runtime) allDecided() bool {
	for i, a := range rt.agents {
		if rt.silent(rt.round, i) || a == nil {
			continue
		}
		d, ok := a.(gossip.Decider)
		if !ok || !d.Decided() {
			return false
		}
	}
	return true
}

// step executes one synchronous round with exactly the engine's structure:
// dynamics advance, parallel Act, validation in node order, pushes then
// pulls in ascending node-ID order, round accounting.
func (rt *Runtime) step() {
	round := rt.round
	if rt.dyn != nil && round > 0 {
		rt.dyn.Advance(round)
	}

	// Act fan-out: every active node computes its action concurrently on its
	// own goroutine; silent nodes contribute NoAction without being woken, so
	// their RNG streams stay untouched (exactly the engine's act()).
	pending := 0
	for i := range rt.agents {
		if rt.silent(round, i) {
			rt.actions[i] = gossip.NoAction()
			continue
		}
		rt.nodes[i].Send(Message{Kind: MsgRound, Round: round})
		pending++
	}
	for ; pending > 0; pending-- {
		ev := <-rt.events
		rt.actions[ev.id] = ev.action
	}

	rt.pushes = rt.pushes[:0]
	rt.pulls = rt.pulls[:0]
	for u := range rt.actions {
		rt.validate(round, u, &rt.actions[u])
		switch rt.actions[u].Kind {
		case gossip.ActPush:
			rt.pushes = append(rt.pushes, int32(u))
		case gossip.ActPull:
			rt.pulls = append(rt.pulls, int32(u))
		}
	}

	// Delivery draws the Drop stream in the simulator's order: one draw per
	// non-self push in sender order, then, pull by pull in puller order, the
	// query draw and the conditional reply draw.
	rt.pushWave(round)
	rt.pullWaves(round)

	rt.tally.AddRound()
	rt.counters.AddDelta(0, rt.tally)
	rt.tally = metrics.Delta{}
	rt.round++
}

// validate enforces the topology on one action, tracing drops like the
// engine does.
func (rt *Runtime) validate(round, u int, a *gossip.Action) {
	if a.Kind == gossip.ActNone {
		return
	}
	if a.To < 0 || a.To >= len(rt.agents) || !rt.topo.CanSend(u, a.To) {
		rt.dropped++
		rt.emit(trace.Event{Round: round, Kind: trace.KindDrop, From: u, To: a.To})
		*a = gossip.NoAction()
	}
}

// failPull accounts and traces a pull whose served reply the transport
// lost, then notifies the puller with a nil reply — the same observation a
// quiescent target produces. The notification is scheduler-internal: it goes
// straight into the puller's mailbox, not through the conduit.
func (rt *Runtime) failPull(round, u, to int) {
	rt.tally.AddPull(false)
	rt.emit(trace.Event{Round: round, Kind: trace.KindPull, From: u, To: to, Note: "reply-lost"})
	if rt.nodes[u].Send(Message{Kind: MsgReply, Round: round, From: to}) {
		<-rt.events
	}
}

// collectEvents drains n completion events, folding timed delivery latencies
// into the run's sketch. Used at a wave barrier, after Flush has reported how
// many deliveries reached a mailbox.
func (rt *Runtime) collectEvents(n int) {
	for ; n > 0; n-- {
		ev := <-rt.events
		if ev.timed {
			rt.lat.Add(int64(ev.latency))
		}
	}
}

// collectReplies drains the query wave's n completion events, queueing each
// — with its HandlePull result and delivery latency — per target in
// processing order. Because a node's events arrive in its mailbox order, and
// the batch preserves per-destination Add order, popping evq[target] during
// the puller-ordered resolution pass matches each answer to its query. The
// latency is folded into the sketch only there, once the loss stream has
// kept the query.
func (rt *Runtime) collectReplies(n int) {
	for ; n > 0; n-- {
		ev := <-rt.events
		rt.evq[ev.id] = append(rt.evq[ev.id], ev)
	}
}

// popReply consumes the next queued query completion from node id. An
// out-of-range panic here means a delivered query produced no event — a
// broken conduit or node, worth failing loudly over.
func (rt *Runtime) popReply(id int) event {
	h := rt.evhead[id]
	rt.evhead[id]++
	return rt.evq[id][h]
}

// pushWave delivers the round's push set as one pipelined wave with the
// executor's exact semantics: a non-self push always incurs its cost, may be
// lost on the link (loss stream or transport), and lands in the void when
// the target is quiescent; a self-push is local and free. Fates are drawn in
// sender order (keeping the Drop stream aligned with the simulator), every
// surviving push is dispatched without a per-message wait, and accounting
// plus trace events are settled at the barrier in sender order. Self-pushes
// ride the batch too (untimed, untallied): a direct mailbox send could
// overtake the wave's in-flight deliveries to the same node and reorder
// HandlePush.
func (rt *Runtime) pushWave(round int) {
	if len(rt.pushes) == 0 {
		return
	}
	rt.pfates = rt.pfates[:0]
	now := time.Now()
	for _, u32 := range rt.pushes {
		u := int(u32)
		a := rt.actions[u]
		switch {
		case u == a.To:
			rt.batch.Add(rt.nodes[u], Message{Kind: classifyPush(a.Payload), Round: round, From: u, Payload: a.Payload})
			rt.pfates = append(rt.pfates, pushSelf)
		case rt.lost():
			rt.pfates = append(rt.pfates, pushLost)
		case rt.silent(round, a.To):
			rt.pfates = append(rt.pfates, pushSilent)
		default:
			rt.batch.Add(rt.nodes[a.To], Message{Kind: classifyPush(a.Payload), Round: round, From: u, Payload: a.Payload, SentAt: now})
			rt.pfates = append(rt.pfates, pushSent)
		}
	}
	rt.oks = append(rt.oks[:0], rt.batch.Flush()...)
	succ := 0
	for _, ok := range rt.oks {
		if ok {
			succ++
		}
	}
	rt.collectEvents(succ)

	// Barrier settlement, in sender order — the simulator's order.
	j := 0
	for i, u32 := range rt.pushes {
		u := int(u32)
		a := rt.actions[u]
		fate := rt.pfates[i]
		if fate == pushSelf {
			j++
			continue
		}
		rt.tally.AddPush()
		rt.tally.AddMessage(gossip.PayloadBits(a.Payload))
		switch fate {
		case pushLost:
			rt.emit(trace.Event{Round: round, Kind: trace.KindPush, From: u, To: a.To, Note: "lost"})
		case pushSilent:
			rt.emit(trace.Event{Round: round, Kind: trace.KindPush, From: u, To: a.To})
		case pushSent:
			ok := rt.oks[j]
			j++
			if !ok {
				rt.emit(trace.Event{Round: round, Kind: trace.KindPush, From: u, To: a.To, Note: "lost"})
				continue
			}
			rt.delivered++
			rt.kinds[classifyPush(a.Payload)]++
			rt.emit(trace.Event{Round: round, Kind: trace.KindPush, From: u, To: a.To})
		}
	}
}

// pullWaves resolves the round's pull set in pipelined waves, with the
// executor's exact semantics and trace notes. Wave 1 dispatches every query
// without drawing its loss — self-pulls ride the batch for mailbox-order
// safety, quiescent targets dispatch nothing — and collects the targets'
// HandlePull results at the barrier. The
// resolution pass then walks pullers in ascending order and makes exactly
// the executor's Drop draws: the query draw first (before the silence
// check, so a quiescent target can end in "query-lost"), then, only for a
// kept query answered with a real reply, the reply draw. A query the stream
// dropped was still answered; its answer is popped and discarded, uncounted
// and untimed — exact because HandlePull never changes agent state. Kept
// replies form wave 2 and cross the conduit (timed), while nil-reply
// notifications, being scheduler-internal, go straight to the puller's
// mailbox. Wave 2 has at most one message per puller, so no ordering hazard
// remains. Accounting and trace events are settled last, in puller order; a
// reply the transport loses is re-notified there (failPull).
func (rt *Runtime) pullWaves(round int) {
	if len(rt.pulls) == 0 {
		return
	}
	rt.precs = rt.precs[:0]
	now := time.Now()
	for _, u32 := range rt.pulls {
		u := int(u32)
		a := rt.actions[u]
		switch {
		case u == a.To:
			rt.batch.Add(rt.nodes[u], Message{Kind: MsgQuery, Round: round, From: u, Payload: a.Payload})
			rt.precs = append(rt.precs, pullRec{fate: pushSelf})
		case rt.silent(round, a.To):
			rt.precs = append(rt.precs, pullRec{fate: pushSilent})
		default:
			rt.batch.Add(rt.nodes[a.To], Message{Kind: MsgQuery, Round: round, From: u, Payload: a.Payload, SentAt: now})
			rt.precs = append(rt.precs, pullRec{fate: pushSent})
		}
	}
	rt.oks = append(rt.oks[:0], rt.batch.Flush()...)
	succ := 0
	for _, ok := range rt.oks {
		if ok {
			succ++
		}
	}
	rt.collectReplies(succ)

	// Resolution pass, in puller order: draw each pull's losses in the
	// simulator's order, match each delivered query to its target's queued
	// HandlePull result, and dispatch the reply wave.
	now = time.Now()
	w2 := int32(0)
	notifies := 0
	j := 0
	for i := range rt.precs {
		u := int(rt.pulls[i])
		a := rt.actions[u]
		rec := &rt.precs[i]
		rec.w2 = -1
		if rec.fate == pushSelf {
			if rt.oks[j] {
				rt.popReply(u) // nil placeholder from the short-circuit event
			}
			j++
			continue
		}
		queryLost := rt.lost()
		delivered := false
		var ev event
		if rec.fate == pushSent {
			delivered = rt.oks[j]
			j++
			if delivered {
				ev = rt.popReply(a.To)
			}
		}
		switch {
		case queryLost:
			rec.note = "query-lost"
		case rec.fate == pushSilent:
			rec.note = "no-reply"
		case !delivered:
			rec.note = "query-lost"
		default:
			if ev.timed {
				rt.lat.Add(int64(ev.latency))
			}
			rt.delivered++
			rt.kinds[MsgQuery]++
			if ev.reply == nil {
				rec.note = "refused"
				break
			}
			rec.served = true
			rec.replyBits = int32(gossip.PayloadBits(ev.reply))
			if rt.lost() {
				rec.note = "reply-lost"
				break
			}
			rec.w2 = w2
			w2++
			rt.batch.Add(rt.nodes[u], Message{Kind: MsgReply, Round: round, From: a.To, Payload: ev.reply, SentAt: now})
			continue
		}
		if rt.nodes[u].Send(Message{Kind: MsgReply, Round: round, From: a.To}) {
			notifies++
		}
	}
	rt.oks = append(rt.oks[:0], rt.batch.Flush()...)
	succ = notifies
	for _, ok := range rt.oks {
		if ok {
			succ++
		}
	}
	rt.collectEvents(succ)

	// Barrier settlement, in puller order — the simulator's order. Self-pulls
	// are local and free: no cost, no trace.
	for i := range rt.precs {
		rec := &rt.precs[i]
		if rec.fate == pushSelf {
			continue
		}
		u := int(rt.pulls[i])
		a := rt.actions[u]
		rt.tally.AddMessage(gossip.PayloadBits(a.Payload))
		if rec.served {
			rt.tally.AddMessage(int(rec.replyBits))
		}
		if rec.w2 < 0 {
			rt.tally.AddPull(false)
			rt.emit(trace.Event{Round: round, Kind: trace.KindPull, From: u, To: a.To, Note: rec.note})
			continue
		}
		if !rt.oks[rec.w2] {
			rt.failPull(round, u, a.To)
			continue
		}
		rt.delivered++
		rt.kinds[MsgReply]++
		rt.tally.AddPull(true)
		rt.emit(trace.Event{Round: round, Kind: trace.KindPull, From: u, To: a.To})
	}

	// Reset the per-target reply queues touched this round.
	for i := range rt.precs {
		u := int(rt.pulls[i])
		dest := u
		if rt.precs[i].fate == pushSent {
			dest = rt.actions[u].To
		}
		rt.evq[dest] = rt.evq[dest][:0]
		rt.evhead[dest] = 0
	}
}
