package main

import (
	"bufio"
	"fmt"
	"os"
	goruntime "runtime"
	"runtime/metrics"
	"strconv"
	"strings"

	"repro/fairgossip"
	"repro/internal/core"
	"repro/internal/scenario"
)

// metric is one named, unit-carrying number of the report.
type metric struct {
	name, unit string
	value      float64
	note       string // e.g. which percentile a tail is
}

// report is what one workload run produced.
type report struct {
	attempted, failed int
	failures          []string
	e2e, layer        []metric
	detail            []metric // workload-specific numbers, printed for reading only
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) addE2E(name, unit string, v float64, note string) {
	r.e2e = append(r.e2e, metric{name, unit, v, note})
}

func (r *report) addLayer(name, unit string, v float64) {
	r.layer = append(r.layer, metric{name, unit, v, ""})
}

func (r *report) addDetail(name, unit string, v float64, note string) {
	r.detail = append(r.detail, metric{name, unit, v, note})
}

// publicResult is the detached public form of a core run result — the same
// mapping fairgossip applies to the runs it executes itself.
func publicResult(res core.RunResult) fairgossip.Result {
	m := res.Metrics
	g := res.Good
	return fairgossip.Result{
		Failed: res.Outcome.Failed,
		Color:  int(res.Outcome.Color),
		Rounds: res.Rounds,
		Metrics: fairgossip.Metrics{
			Rounds: m.Rounds, Messages: m.Messages, Bits: m.Bits, MaxMessageBits: m.MaxMessageBits,
			Pushes: m.Pushes, Pulls: m.Pulls, UnansweredPulls: m.UnansweredPulls,
		},
		Good: fairgossip.GoodExecution{
			VoteLowerOK: g.VoteLowerOK, VoteUpperOK: g.VoteUpperOK, DistinctK: g.DistinctK,
			CertsAgree: g.CertsAgree, MinVotes: g.MinVotes, MaxVotes: g.MaxVotes, ActiveAgents: g.ActiveAgents,
		},
		HasGood: true,
	}
}

// internalScenario builds the execution-layer runner for a public scenario,
// so the traced paths can drive core and gossip directly.
func internalScenario(s fairgossip.Scenario) (*scenario.Runner, error) {
	return scenario.NewRunner(scenario.Scenario{
		Name: s.Name, N: s.N, Colors: s.Colors,
		ColorInit: scenario.ColorInit(s.ColorInit), SplitFraction: s.SplitFraction, ZipfS: s.ZipfS,
		Gamma: s.Gamma, Topology: s.Topology,
		Dynamics: scenario.Dynamics{
			Kind: scenario.DynamicsKind(s.Dynamics.Kind), Birth: s.Dynamics.Birth, Death: s.Dynamics.Death,
			Beta: s.Dynamics.Beta, Degree: s.Dynamics.Degree, Jitter: s.Dynamics.Jitter,
		},
		Protocol: scenario.Protocol{
			Variant: scenario.ProtocolVariant(s.Protocol.Variant), TTL: s.Protocol.TTL, MinVotes: s.Protocol.MinVotes,
		},
		Fault: scenario.FaultModel{
			Kind: scenario.FaultKind(s.Fault.Kind), Alpha: s.Fault.Alpha, Round: s.Fault.Round,
			Period: s.Fault.Period, Drop: s.Fault.Drop,
		},
		Scheduler: scenario.SchedulerKind(s.Scheduler), Coalition: s.Coalition, Deviation: s.Deviation,
		Seed: s.Seed, Workers: s.Workers, MaxTicks: s.MaxTicks,
	})
}

// goStats is a reading of the Go runtime's cumulative allocation and GC
// counters.
type goStats struct {
	mallocs, bytes  uint64
	gcCPU, totalCPU float64
}

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	goruntime.GC() // publishes the CPU-class estimates up to this point
	metrics.Read(s)
	return goStats{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64()}
}

// goDelta reports allocations per op and the GC share of CPU between two
// readings.
func goDelta(a, b goStats, ops float64) (mallocs, bytes, gcFrac float64) {
	mallocs = float64(b.mallocs-a.mallocs) / ops
	bytes = float64(b.bytes-a.bytes) / ops
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return
}

// peakRSSMB is the peak resident set size of process pid ("self" for this
// one), from /proc.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
