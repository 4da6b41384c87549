package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/fairgossip"
)

// simBatch is the trial count of one Stream call; simWarmup the trial count
// of the untimed warm-up call per cell.
const (
	simBatch  = 8
	simWarmup = 2
)

type simCell struct {
	name string
	sc   fairgossip.Scenario
}

// simCells are the three Monte-Carlo cells at n = 1024: permanent faults on
// the complete graph, E12's low-churn edge-Markovian process, and 5% loss
// under k-of-q verification.
func simCells(rng *rand.Rand, workers int) []simCell {
	base := func() fairgossip.Scenario {
		return fairgossip.Scenario{N: 1024, Colors: 2, Seed: rng.Uint64() | 1, Workers: workers}
	}
	static, dynamic, lossy := base(), base(), base()
	static.Fault = fairgossip.FaultModel{Kind: fairgossip.FaultPermanent, Alpha: 0.3}
	dynamic.Dynamics = fairgossip.Dynamics{Kind: fairgossip.DynamicsEdgeMarkovian, Birth: 0.0002, Death: 0.001}
	lossy.Fault = fairgossip.FaultModel{Drop: 0.05}
	lossy.Protocol = fairgossip.Protocol{Variant: fairgossip.ProtocolRelaxed, MinVotes: 20}
	return []simCell{{"static", static}, {"dynamic", dynamic}, {"lossy", lossy}}
}

func stream(ctx context.Context, r *fairgossip.Runner, trials int) ([]fairgossip.Result, error) {
	out := make([]fairgossip.Result, 0, trials)
	err := r.Stream(ctx, fairgossip.StreamOptions{Trials: trials}, func(_ int, res fairgossip.Result) {
		out = append(out, res)
	})
	return out, err
}

func runSimMC(ctx context.Context, o options, t *Tracer) (*report, error) {
	rep := &report{}
	cells := simCells(rand.New(rand.NewSource(int64(o.seed))), o.workers)

	// Set-up: NewRunner and one untimed warm-up call per cell, repeated so
	// set-up time is a median.
	var runners []*fairgossip.Runner
	var setupS, newRunnerUs []float64
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		runners = runners[:0]
		for _, c := range cells {
			t0 := time.Now()
			r, err := fairgossip.NewRunner(c.sc)
			newRunnerUs = append(newRunnerUs, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				return nil, fmt.Errorf("cell %s: %w", c.name, err)
			}
			if _, err := stream(ctx, r, simWarmup); err != nil {
				return nil, fmt.Errorf("cell %s warm-up: %w", c.name, err)
			}
			runners = append(runners, r)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	// Closed loop, one caller: Stream calls cycle through the cells until
	// the time is up, ending on a whole cycle. Every call of a cell runs the
	// same trial seeds, so each must reproduce the cell's first call.
	ref := make([][]fairgossip.Result, len(cells))
	cellNs := make([]int64, len(cells))
	cellCalls := make([]int, len(cells))
	var callMs []float64
	g0 := readGoStats()
	start := time.Now()
	deadline := start.Add(o.seconds)
	for k := 0; k%len(cells) != 0 || time.Now().Before(deadline); k++ {
		c := k % len(cells)
		t0 := time.Now()
		res, err := stream(ctx, runners[c], simBatch)
		d := time.Since(t0)
		rep.attempted += simBatch
		cellNs[c] += d.Nanoseconds()
		cellCalls[c]++
		callMs = append(callMs, float64(d.Nanoseconds())/1e6)
		switch {
		case err != nil:
			rep.failed += simBatch - 1
			rep.fail("sim %s call %d: %v", cells[c].name, k, err)
		case ref[c] == nil:
			ref[c] = res
		default:
			for i := range res {
				if res[i] != ref[c][i] {
					rep.fail("sim %s call %d trial %d: Stream result %v differs from the cell's first call %v", cells[c].name, k, i, res[i], ref[c][i])
				}
			}
		}
	}
	g1 := readGoStats()
	trials := float64(rep.attempted)

	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	rep.addE2E("setup_s", "s", quantile(setupS, 0.5), fmt.Sprintf("median of %d set-ups", setupReps))
	rep.addE2E("peak_rss_mb", "MB", rss, "benchmark process")
	for i, slot := range []string{"a", "b", "c"} {
		ms := float64(cellNs[i]) / 1e6 / float64(cellCalls[i]*simBatch)
		rep.addE2E(slot+".ms_per_op", "ms", ms, cells[i].name+" cell, wall ms per trial")
		rep.addDetail("sim."+cells[i].name+".trials_per_s", "1/s", 1e3/ms, fmt.Sprintf("%d calls of %d trials", cellCalls[i], simBatch))
	}
	tv, tnote := tail(callMs)
	rep.addE2E("tail_ms", "ms", tv, "Stream call latency, "+tnote)
	rep.addDetail("sim.call_ms.p50", "ms", quantile(callMs, 0.5), fmt.Sprintf("%d calls", len(callMs)))
	rep.addDetail("failed_frac", "1", float64(rep.failed)/trials, "")

	successes, total := 0, 0
	for _, rs := range ref {
		for _, r := range rs {
			total++
			if r.Success() {
				successes++
			}
		}
	}
	successRate := float64(successes) / float64(total)
	rep.addDetail("sim.success_rate", "1", successRate, fmt.Sprintf("first call of each cell, %d trials", total))
	if !o.trace {
		return rep, nil
	}

	// Traced replay: half the calls of each cell again, at the seeds the
	// untraced Stream used, through the decorated engine path.
	var tally engineTally
	var tracedNs, untracedNs float64
	op := int64(0)
	for i, c := range cells {
		sr, err := internalScenario(runners[i].Scenario())
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", c.name, err)
		}
		seeds := sr.TrialSeeds(simBatch)
		calls := (cellCalls[i] + 1) / 2
		before := tally.advances
		advNs, flips := tally.advanceNs, tally.flips
		for k := 0; k < calls; k++ {
			t0 := time.Now()
			res, err := traceTrials(t, sr, seeds, o.workers, op, &tally)
			tracedNs += float64(time.Since(t0).Nanoseconds())
			untracedNs += float64(cellNs[i]) / float64(cellCalls[i])
			op += int64(len(seeds))
			rep.attempted += len(seeds)
			if err != nil {
				rep.failed += len(seeds) - 1
				rep.fail("traced %s: %v", c.name, err)
				continue
			}
			for j := range res {
				if res[j] != ref[i][j] {
					rep.fail("traced %s trial %d: result %v differs from the streamed %v", c.name, j, res[j], ref[i][j])
				}
			}
		}
		if n := tally.advances - before; n > 0 {
			rep.addDetail("topo."+c.name+".advance_us_per_round", "us", float64(tally.advanceNs-advNs)/1e3/float64(n), "")
			rep.addDetail("topo."+c.name+".flips_per_round", "count", float64(tally.flips-flips)/float64(n), "")
		}
	}
	addEngineLayers(rep, t, &tally, "gossip.Engine.Step")
	addRunLayers(rep, newRunnerUs, successRate, g0, g1, trials, tracedNs/untracedNs-1)
	return rep, nil
}

// addEngineLayers reports the per-layer metrics every workload shares from
// a traced tally: protocol time per phase, set-up, and the self time of the
// executor's round span.
func addEngineLayers(rep *report, t *Tracer, tl *engineTally, roundSpan string) {
	ops := float64(tl.trials)
	for ph, name := range phaseNames {
		rep.addLayer("core."+name+"_us_per_op", "us", float64(tl.agents.ns[ph])/1e3/ops)
	}
	rep.addLayer("core.calls_per_op", "count", float64(tl.agents.calls)/ops)
	rep.addLayer("core.prepare_us_per_op", "us", float64(tl.prepareNs)/1e3/ops)
	self := selfByName(t.Spans(), roundSpan)
	rep.addLayer("exec.self_us_per_round", "us", float64(self)/1e3/float64(tl.rounds))
	rep.addLayer("exec.rounds_per_op", "count", float64(tl.rounds)/ops)
	rep.addLayer("gossip.msgs_per_op", "count", float64(tl.msgs)/ops)
	rep.addLayer("gossip.bits_per_op", "count", float64(tl.bits)/ops)
	rep.addLayer("gossip.unanswered_pulls_per_op", "count", float64(tl.unanswered)/ops)
}

// addRunLayers reports the remaining shared per-layer metrics: NewRunner
// latency, the outcome guard, the Go runtime's allocation and GC cost
// between two readings over ops operations, and the tracing overhead.
func addRunLayers(rep *report, newRunnerUs []float64, successRate float64, g0, g1 goStats, ops, overhead float64) {
	mallocs, bytes, gcFrac := goDelta(g0, g1, ops)
	rep.addLayer("fairgossip.new_runner_us.p50", "us", quantile(newRunnerUs, 0.5))
	rep.addLayer("outcome.success_rate", "1", successRate)
	rep.addLayer("go.mallocs_per_op", "count", mallocs)
	rep.addLayer("go.bytes_per_op", "B", bytes)
	rep.addLayer("go.gc_cpu_frac", "1", gcFrac)
	rep.addLayer("trace.overhead_frac", "1", overhead)
}
