package main

import (
	"io"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/runtime"
	"repro/internal/topo"
)

// numPhases is the number of core.Phase values, PhaseCommitment through
// PhaseVerification.
const numPhases = int(core.PhaseVerification) + 1

// phaseNames are the metric names of the core phases, in core.Phase order.
var phaseNames = [numPhases]string{"commitment", "voting", "findmin", "coherence", "verify"}

// callSink collects the agent calls of one goroutine: their intervals, for
// the enclosing span's self time, and their time per protocol phase.
type callSink struct {
	hot   []interval
	ns    [numPhases]int64
	calls int64
}

func (c *callSink) add(ph core.Phase, start, end int64) {
	c.hot = append(c.hot, interval{start, end})
	c.ns[ph] += end - start
	c.calls++
}

// merge folds o's phase totals into c.
func (c *callSink) merge(o *callSink) {
	for i := range c.ns {
		c.ns[i] += o.ns[i]
	}
	c.calls += o.calls
}

// timedAgent is a gossip.Agent decorator that times every call into the
// protocol logic and buckets it by the round's phase. It forwards Decider,
// which the engine and the runtime use for early termination.
type timedAgent struct {
	inner gossip.Agent
	p     core.Params
	t     *Tracer
	sink  *callSink
}

func (a *timedAgent) Act(round int) gossip.Action {
	s := a.t.Now()
	act := a.inner.Act(round)
	a.sink.add(a.p.PhaseOf(round), s, a.t.Now())
	return act
}

func (a *timedAgent) HandlePush(round, from int, p gossip.Payload) {
	s := a.t.Now()
	a.inner.HandlePush(round, from, p)
	a.sink.add(a.p.PhaseOf(round), s, a.t.Now())
}

func (a *timedAgent) HandlePull(round, from int, q gossip.Payload) gossip.Payload {
	s := a.t.Now()
	r := a.inner.HandlePull(round, from, q)
	a.sink.add(a.p.PhaseOf(round), s, a.t.Now())
	return r
}

func (a *timedAgent) HandlePullReply(round, from int, r gossip.Payload) {
	s := a.t.Now()
	a.inner.HandlePullReply(round, from, r)
	a.sink.add(a.p.PhaseOf(round), s, a.t.Now())
}

func (a *timedAgent) Decided() bool { return a.inner.(gossip.Decider).Decided() }
func (a *timedAgent) Output() int   { return a.inner.(gossip.Decider).Output() }

// wrapAgents points wrap[i] at agents[i] and returns the decorated slice in
// out, keeping nil (faulty) slots nil.
func wrapAgents(agents []gossip.Agent, wrap []timedAgent, out []gossip.Agent) {
	for i, a := range agents {
		if a == nil {
			out[i] = nil
			continue
		}
		wrap[i].inner = a
		out[i] = &wrap[i]
	}
}

// timedDynamic is a topo.Dynamic decorator that records each Advance as a
// span under the round that triggered it and counts the edges it flipped.
type timedDynamic struct {
	topo.Dynamic
	t      *Tracer
	parent int // the current round's span; set by the driver
	op     int64
	ns     int64
	rounds int64
	flips  int64
}

func (d *timedDynamic) Advance(round int) {
	id := d.t.Begin("topo.Dynamic.Advance", d.parent, d.op)
	d.Dynamic.Advance(round)
	d.ns += d.t.End(id)
	d.rounds++
	d.flips += int64(d.Dynamic.Flips())
}

// netStats tallies one socket rung's transport calls.
type netStats struct {
	flushes, flushMsgs, flushOK int64
	flushNs                     int64
	deliverCalls, deliverOK     int64
	deliverUs                   []float64
	hot                         []interval // serial Deliver calls of the current round
}

// timedConduit is a runtime.BatchConduit + io.Closer decorator over the
// socket conduit: each batch Flush is a span under the current round, and
// each serial Deliver is a hot call folded into the round's self time. The
// coordinator is its only caller, so it needs no locking.
type timedConduit struct {
	inner interface {
		runtime.BatchConduit
		io.Closer
	}
	t      *Tracer
	parent int
	op     int64
	st     *netStats
}

func (c *timedConduit) Deliver(dst *runtime.Node, m runtime.Message) bool {
	s := c.t.Now()
	ok := c.inner.Deliver(dst, m)
	e := c.t.Now()
	c.st.hot = append(c.st.hot, interval{s, e})
	c.st.deliverUs = append(c.st.deliverUs, float64(e-s)/1e3)
	c.st.deliverCalls++
	if ok {
		c.st.deliverOK++
	}
	return ok
}

func (c *timedConduit) NewBatch() runtime.Batch { return &timedBatch{inner: c.inner.NewBatch(), c: c} }
func (c *timedConduit) Close() error            { return c.inner.Close() }

type timedBatch struct {
	inner runtime.Batch
	c     *timedConduit
	adds  int64
}

func (b *timedBatch) Add(dst *runtime.Node, m runtime.Message) {
	b.adds++
	b.inner.Add(dst, m)
}

func (b *timedBatch) Flush() []bool {
	c := b.c
	id := c.t.Begin("netconduit.Batch.Flush", c.parent, c.op)
	res := b.inner.Flush()
	c.st.flushNs += c.t.End(id)
	c.st.flushes++
	c.st.flushMsgs += b.adds
	b.adds = 0
	for _, ok := range res {
		if ok {
			c.st.flushOK++
		}
	}
	return res
}
