package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/fairgossip"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/runtime"
	"repro/internal/runtime/netconduit"
	"repro/internal/scenario"
)

// liveSeeds is how many distinct seeds each rung cycles through; their
// RunSeed references are computed in set-up, a third per set-up pass.
const liveSeeds = 24

// liveTracedSeeds is how many of those seeds the traced replay runs per rung.
const liveTracedSeeds = 4

type rung struct {
	name      string
	transport string
	lossy     bool // runs the lossy scenario instead of the baseline
	runs      int  // runs per seed: the short channel run twice, for a steadier median
}

// rungs are the live ladder: the baseline on the channel and Unix-socket
// transports, then 5% loss under relaxed verification over a Unix socket,
// whose lossy pull phase takes the serial Deliver path.
var rungs = []rung{{"channel", "channel", false, 2}, {"unix", "unix", false, 1}, {"lossy-unix", "unix", true, 1}}

func liveScenarios(rng *rand.Rand, workers int) (baseline, lossy fairgossip.Scenario) {
	baseline = fairgossip.Scenario{N: 512, Colors: 2, Seed: rng.Uint64() | 1, Workers: workers}
	lossy = baseline
	lossy.Fault.Drop = 0.05
	lossy.Protocol = fairgossip.Protocol{Variant: fairgossip.ProtocolRelaxed, MinVotes: 20}
	return baseline, lossy
}

func runLiveLadder(ctx context.Context, o options, t *Tracer) (*report, error) {
	rep := &report{}
	rng := rand.New(rand.NewSource(int64(o.seed)))
	scBase, scLossy := liveScenarios(rng, o.workers)
	seeds := make([]uint64, liveSeeds)
	for i := range seeds {
		seeds[i] = rng.Uint64() | 1
	}

	// Set-up: NewRunner for both scenarios, one untimed warm-up run per
	// rung, and a third of the RunSeed references, repeated three times.
	var base, lossy *fairgossip.Runner
	var setupS, newRunnerUs, simMs []float64
	refs := [2][]fairgossip.Result{make([]fairgossip.Result, liveSeeds), make([]fairgossip.Result, liveSeeds)}
	for pass := 0; pass < setupReps; pass++ {
		start := time.Now()
		for i, sc := range []fairgossip.Scenario{scBase, scLossy} {
			t0 := time.Now()
			r, err := fairgossip.NewRunner(sc)
			newRunnerUs = append(newRunnerUs, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				base = r
			} else {
				lossy = r
			}
		}
		for _, rg := range rungs {
			r := base
			if rg.lossy {
				r = lossy
			}
			if _, err := r.RunLive(ctx, fairgossip.LiveOptions{Seed: seeds[0], Transport: rg.transport}); err != nil {
				return nil, fmt.Errorf("%s warm-up: %w", rg.name, err)
			}
		}
		for k := pass; k < liveSeeds; k += setupReps {
			for i, r := range []*fairgossip.Runner{base, lossy} {
				t0 := time.Now()
				res, err := r.RunSeed(ctx, seeds[k])
				if i == 0 {
					simMs = append(simMs, float64(time.Since(t0).Nanoseconds())/1e6)
				}
				if err != nil {
					return nil, err
				}
				refs[i][k] = res
			}
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	if o.corrupt {
		refs[0][0].Rounds++ // a deliberately wrong reference: the run must fail
	}

	// Closed loop, one caller: each seed runs on every rung in turn.
	type rungStats struct {
		runMs, latP50, latP99, delivered []float64
		successes                        int
	}
	st := make([]rungStats, len(rungs))
	g0 := readGoStats()
	start := time.Now()
	deadline := start.Add(o.seconds)
	cycles := 0
	for ; cycles == 0 || time.Now().Before(deadline); cycles++ {
		k := cycles % liveSeeds
		for i, rg := range rungs {
			r, ref := base, refs[0][k]
			if rg.lossy {
				r, ref = lossy, refs[1][k]
			}
			for j := 0; j < rg.runs; j++ {
				t0 := time.Now()
				lr, err := r.RunLive(ctx, fairgossip.LiveOptions{Seed: seeds[k], Transport: rg.transport})
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				rep.attempted++
				if err != nil {
					rep.fail("live %s seed %d: %v", rg.name, seeds[k], err)
					continue
				}
				if lr.Result != ref {
					rep.fail("live %s seed %d: RunLive result %v differs from RunSeed %v", rg.name, seeds[k], lr.Result, ref)
				}
				s := &st[i]
				s.runMs = append(s.runMs, ms)
				s.latP50 = append(s.latP50, float64(lr.LatencyP50.Nanoseconds())/1e3)
				s.latP99 = append(s.latP99, float64(lr.LatencyP99.Nanoseconds())/1e3)
				s.delivered = append(s.delivered, float64(lr.Delivered))
				if lr.Result.Success() {
					s.successes++
				}
			}
		}
	}
	g1 := readGoStats()
	ops := float64(rep.attempted)

	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	rep.addE2E("setup_s", "s", quantile(setupS, 0.5), fmt.Sprintf("median of %d set-ups", setupReps))
	rep.addE2E("peak_rss_mb", "MB", rss, "benchmark process")
	successes := 0
	for i, slot := range []string{"a", "b", "c"} {
		s := &st[i]
		if len(s.runMs) == 0 {
			return nil, fmt.Errorf("live %s: no successful run", rungs[i].name)
		}
		p50 := quantile(s.runMs, 0.5)
		rep.addE2E(slot+".ms_per_op", "ms", p50, rungs[i].name+" rung, RunLive p50")
		tv, tnote := tail(s.runMs)
		rep.addDetail("live."+rungs[i].name+".run_ms.p50", "ms", p50, fmt.Sprintf("%d runs", len(s.runMs)))
		rep.addDetail("live."+rungs[i].name+".run_ms.tail", "ms", tv, tnote)
		rep.addDetail("runtime."+rungs[i].name+".msg_latency_us.p50", "us", quantile(s.latP50, 0.5), "median over runs")
		rep.addDetail("runtime."+rungs[i].name+".msg_latency_us.p99", "us", quantile(s.latP99, 0.5), "median over runs")
		rep.addDetail("runtime."+rungs[i].name+".delivered_per_run", "count", mean(s.delivered), "")
		successes += s.successes
	}
	// The tail is the channel rung's: it alone runs often enough (twice a
	// seed) for a percentile above the median with ten runs beyond it.
	tv, tnote := tail(st[0].runMs)
	rep.addE2E("tail_ms", "ms", tv, "channel RunLive latency, "+tnote)
	rep.addDetail("live.sim_run_ms.p50", "ms", quantile(simMs, 0.5), fmt.Sprintf("RunSeed of the baseline in set-up, %d runs", len(simMs)))
	rep.addDetail("failed_frac", "1", float64(rep.failed)/ops, "")
	if !o.trace {
		return rep, nil
	}

	// Traced replay: the first liveTracedSeeds seeds on every rung again, with
	// decorated agents and socket conduit under a per-round span. A fixed
	// seed set keeps the exact per-run counts independent of machine speed.
	mallocs, _, _ := goDelta(g0, g1, ops)
	rep.addDetail("go.mallocs_per_live_run", "count", mallocs, "")
	var tally engineTally
	var tracedNs, untracedNs float64
	srs := make([]*scenario.Runner, 2)
	for i, r := range []*fairgossip.Runner{base, lossy} {
		if srs[i], err = internalScenario(r.Scenario()); err != nil {
			return nil, err
		}
	}
	for i, rg := range rungs {
		sr, refIdx := srs[0], 0
		if rg.lossy {
			sr, refIdx = srs[1], 1
		}
		var ns netStats
		var lt liveTally
		for k := 0; k < liveTracedSeeds; k++ {
			op := int64(i*1000 + k)
			t0 := time.Now()
			res, err := traceLive(ctx, t, sr, seeds[k], rg.transport, op, &tally, &ns, &lt)
			tracedNs += float64(time.Since(t0).Nanoseconds())
			untracedNs += quantile(st[i].runMs, 0.5) * 1e6
			rep.attempted++
			if err != nil {
				rep.fail("traced live %s: %v", rg.name, err)
				continue
			}
			if ref := refs[refIdx][k]; res != ref {
				rep.fail("traced live %s seed %d: result %v differs from RunSeed %v", rg.name, seeds[k], res, ref)
			}
		}
		rn := float64(liveTracedSeeds)
		rep.addDetail("runtime."+rg.name+".round_us.p50", "us", quantile(lt.roundUs, 0.5), fmt.Sprintf("%d rounds", len(lt.roundUs)))
		rep.addDetail("runtime."+rg.name+".sync_self_ms_per_run", "ms", float64(lt.selfNs)/1e6/rn, "")
		rep.addDetail("runtime."+rg.name+".handler_ms_per_run", "ms", float64(lt.handlerNs)/1e6/rn, "summed over nodes")
		if rg.transport == "unix" {
			pre := "netconduit." + rg.name
			rep.addDetail(pre+".flush_us_per_round", "us", float64(ns.flushNs)/1e3/float64(len(lt.roundUs)), "")
			rep.addDetail(pre+".msgs_per_flush", "count", float64(ns.flushMsgs)/float64(ns.flushes), "")
			rep.addDetail(pre+".deliver_calls_per_run", "count", float64(ns.deliverCalls)/rn, "")
			if len(ns.deliverUs) > 0 {
				rep.addDetail(pre+".deliver_us.p50", "us", quantile(ns.deliverUs, 0.5), fmt.Sprintf("%d calls", len(ns.deliverUs)))
			}
			rep.addDetail(pre+".ok_frac", "1", float64(ns.flushOK+ns.deliverOK)/float64(ns.flushMsgs+ns.deliverCalls), "")
		}
	}
	addEngineLayers(rep, t, &tally, "runtime.Runtime.Run")
	addRunLayers(rep, newRunnerUs, float64(successes)/ops, g0, g1, ops, tracedNs/untracedNs-1)
	return rep, nil
}

// liveTally is what the traced live path measured on one rung.
type liveTally struct {
	roundUs   []float64
	selfNs    int64
	handlerNs int64
	sinks     []callSink
	wrap      []timedAgent
	agents    []gossip.Agent
	hot       []interval
}

// traceLive mirrors RunLive's execution — core.PrepareRun, runtime.New over
// the chosen transport, Run, Shutdown — with every agent and the socket
// conduit decorated, stepping the runtime one round at a time under a span.
// Each node's agent records into its own sink; the coordinator reads the
// sinks after each round, once every node has reported completion.
func traceLive(ctx context.Context, t *Tracer, sr *scenario.Runner, seed uint64, transport string, op int64,
	tally *engineTally, ns *netStats, lt *liveTally) (fairgossip.Result, error) {
	run := t.Begin("fairgossip.Runner.RunLive", -1, op)
	defer t.End(run)
	var conduit runtime.Conduit
	var tc *timedConduit
	if transport == "unix" {
		sc, err := netconduit.Listen("unix")
		if err != nil {
			return fairgossip.Result{}, err
		}
		tc = &timedConduit{inner: sc, t: t, op: op, st: ns}
		conduit = tc
	}
	prep := t.Begin("core.PrepareRun", run, op)
	setup, err := core.PrepareRun(sr.RunConfig(seed))
	tally.prepareNs += t.End(prep)
	if err != nil {
		if tc != nil {
			tc.Close()
		}
		return fairgossip.Result{}, err
	}
	n := len(setup.Agents)
	if len(lt.sinks) != n {
		lt.sinks = make([]callSink, n)
		lt.wrap = make([]timedAgent, n)
		lt.agents = make([]gossip.Agent, n)
	}
	for i := range lt.wrap {
		lt.wrap[i] = timedAgent{p: setup.Params, t: t, sink: &lt.sinks[i]}
	}
	wrapAgents(setup.Agents, lt.wrap, lt.agents)
	rt := runtime.New(runtime.Config{
		Topology: setup.Net, Faulty: setup.Faulty, Faults: setup.Faults,
		Counters: setup.Counters, Trace: setup.Trace,
		Drop: setup.Drop, DropRand: setup.DropRand, Conduit: conduit,
	}, lt.agents)
	rounds := 0
	var runErr error
	for rounds < setup.MaxRounds {
		id := t.Begin("runtime.Runtime.Run", run, op)
		if tc != nil {
			tc.parent = id
		}
		var k int
		k, runErr = rt.Run(ctx, 1)
		hot := lt.hot[:0]
		for i := range lt.sinks {
			hot = append(hot, lt.sinks[i].hot...)
			lt.sinks[i].hot = lt.sinks[i].hot[:0]
		}
		hot = append(hot, ns.hot...)
		ns.hot = ns.hot[:0]
		d := t.EndWith(id, hot)
		lt.hot = hot
		if k == 0 || runErr != nil {
			break
		}
		rounds += k
		lt.roundUs = append(lt.roundUs, float64(d)/1e3)
		lt.selfNs += t.Spans()[id].Self
	}
	sd := t.Begin("runtime.Runtime.Shutdown", run, op)
	rt.Shutdown()
	t.End(sd)
	if runErr != nil {
		return fairgossip.Result{}, runErr
	}
	for i := range lt.sinks {
		s := &lt.sinks[i]
		tally.agents.merge(s)
		for _, v := range s.ns {
			lt.handlerNs += v
		}
		*s = callSink{hot: s.hot}
	}
	res := publicResult(setup.Result(rounds))
	tally.trials++
	tally.rounds += int64(rounds)
	tally.msgs += int64(res.Metrics.Messages)
	tally.bits += res.Metrics.Bits
	tally.unanswered += int64(res.Metrics.UnansweredPulls)
	return res, nil
}
