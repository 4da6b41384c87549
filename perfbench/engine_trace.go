package main

import (
	"fmt"
	"sync"

	"repro/fairgossip"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/scenario"
	"repro/internal/topo"
)

// engineTally is what the traced simulator path measured across trials.
type engineTally struct {
	trials     int64
	rounds     int64
	agents     callSink // phase totals only; intervals stay per worker
	prepareNs  int64
	advanceNs  int64
	advances   int64
	flips      int64
	msgs, bits int64
	unanswered int64
	successes  int64
	wallNs     int64 // summed trial span durations
}

// traceTrials replays the trials at seeds through core.PrepareRun and a
// gossip.Engine stepped one round at a time, with timing decorators on the
// agents and the graph process — the same execution Runner.Stream performs
// on its pooled path, spread over the same number of workers. Spans go to t;
// results come back in seed order.
func traceTrials(t *Tracer, sr *scenario.Runner, seeds []uint64, workers int, opBase int64, tally *engineTally) ([]fairgossip.Result, error) {
	out := make([]fairgossip.Result, len(seeds))
	errs := make([]error, workers)
	parts := make([]engineTally, workers)
	var wg sync.WaitGroup
	per := (len(seeds) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > len(seeds) {
			hi = len(seeds)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = traceWorker(t, sr, seeds, lo, hi, opBase, out, &parts[w])
		}(w, lo, hi)
	}
	wg.Wait()
	for w := range parts {
		if errs[w] != nil {
			return nil, errs[w]
		}
		p := &parts[w]
		tally.trials += p.trials
		tally.rounds += p.rounds
		tally.agents.merge(&p.agents)
		tally.prepareNs += p.prepareNs
		tally.advanceNs += p.advanceNs
		tally.advances += p.advances
		tally.flips += p.flips
		tally.msgs += p.msgs
		tally.bits += p.bits
		tally.unanswered += p.unanswered
	}
	return out, nil
}

func traceWorker(t *Tracer, sr *scenario.Runner, seeds []uint64, lo, hi int, opBase int64, out []fairgossip.Result, p *engineTally) error {
	n := sr.Params().N
	cfg := sr.RunConfig(seeds[lo])
	cfg.Workers = 1
	cfg.Pool = &core.RunPool{}
	var dyn *timedDynamic
	if d, ok := cfg.Topology.(topo.Dynamic); ok {
		dyn = &timedDynamic{Dynamic: d, t: t}
		cfg.Topology = dyn
	}
	wrap := make([]timedAgent, n)
	for i := range wrap {
		wrap[i] = timedAgent{p: sr.Params(), t: t, sink: &p.agents}
	}
	agents := make([]gossip.Agent, n)
	for i := lo; i < hi; i++ {
		op := opBase + int64(i)
		cfg.Seed = seeds[i]
		trial := t.Begin("trial", -1, op)
		prep := t.Begin("core.PrepareRun", trial, op)
		setup, err := core.PrepareRun(cfg)
		p.prepareNs += t.End(prep)
		if err != nil {
			return fmt.Errorf("trial %d: %w", i, err)
		}
		wrapAgents(setup.Agents, wrap, agents)
		eng := gossip.NewEngine(gossip.Config{
			Topology: setup.Net, Faulty: setup.Faulty, Faults: setup.Faults,
			Counters: setup.Counters, Trace: setup.Trace, Workers: 1,
			Drop: setup.Drop, DropRand: setup.DropRand, Mem: setup.Mem(),
		}, agents)
		rounds := 0
		for rounds < setup.MaxRounds {
			p.agents.hot = p.agents.hot[:0]
			step := t.Begin("gossip.Engine.Step", trial, op)
			if dyn != nil {
				dyn.parent, dyn.op = step, op
			}
			k := eng.Run(1)
			t.EndWith(step, p.agents.hot)
			if k == 0 {
				break
			}
			rounds += k
		}
		res := publicResult(setup.Result(rounds))
		t.End(trial)
		out[i] = res
		p.trials++
		p.rounds += int64(rounds)
		p.msgs += int64(res.Metrics.Messages)
		p.bits += res.Metrics.Bits
		p.unanswered += int64(res.Metrics.UnansweredPulls)
	}
	if dyn != nil {
		p.advanceNs, p.advances, p.flips = dyn.ns, dyn.rounds, dyn.flips
	}
	return nil
}
