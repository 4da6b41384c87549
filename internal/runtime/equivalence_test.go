package runtime_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/runtime/netconduit"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// transcriptBytes renders a trace into one byte string, so "byte-identical
// transcripts" is literal.
func transcriptBytes(events []trace.Event) []byte {
	var buf bytes.Buffer
	for _, ev := range events {
		fmt.Fprintf(&buf, "%d %v %d->%d %s\n", ev.Round, ev.Kind, ev.From, ev.To, ev.Note)
	}
	return buf.Bytes()
}

// simRun executes one builtin on the simulator at the given engine worker
// count, capturing the transcript.
func simRun(t *testing.T, name string, seed uint64, workers int) (core.RunResult, []byte) {
	t.Helper()
	res, events, _ := simEvents(t, name, seed, workers)
	return res, transcriptBytes(events)
}

// simEvents is simRun returning the trace events themselves, plus the run
// configuration (whose fault schedule says which targets were silent).
func simEvents(t *testing.T, name string, seed uint64, workers int) (core.RunResult, []trace.Event, core.RunConfig) {
	t.Helper()
	sc, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("builtin %q not registered", name)
	}
	r, err := scenario.NewRunner(sc)
	if err != nil {
		t.Fatalf("runner(%s): %v", name, err)
	}
	mem := &trace.Memory{}
	cfg := r.RunConfig(seed)
	cfg.Trace = mem
	cfg.Workers = workers
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("core.Run(%s): %v", name, err)
	}
	return res, mem.Events(), cfg
}

// runtimeRun executes the same builtin on the goroutine-per-node runtime
// under the deterministic channel conduit.
func runtimeRun(t *testing.T, name string, seed uint64, opts runtime.Options) (core.RunResult, []byte) {
	t.Helper()
	res, _, tr := runtimeRunLive(t, name, seed, opts)
	return res, tr
}

// runtimeRunLive is runtimeRun that also returns the runtime's live report.
func runtimeRunLive(t *testing.T, name string, seed uint64, opts runtime.Options) (core.RunResult, metrics.Live, []byte) {
	t.Helper()
	sc, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("builtin %q not registered", name)
	}
	r, err := scenario.NewRunner(sc)
	if err != nil {
		t.Fatalf("runner(%s): %v", name, err)
	}
	mem := &trace.Memory{}
	cfg := r.RunConfig(seed)
	cfg.Trace = mem
	res, live, err := runtime.Execute(context.Background(), cfg, opts)
	if err != nil {
		t.Fatalf("runtime.Execute(%s): %v", name, err)
	}
	return res, live, transcriptBytes(mem.Events())
}

// equivalenceBuiltins is the pinned scenario table: static topologies, the
// loss and crash fault axes, a dynamic graph, all three protocol variants,
// and the composite variant-on-dynamic-graph scenario.
var equivalenceBuiltins = []string{
	"baseline",
	"lossy-links",
	"crash-mid-voting",
	"churn",
	"edge-markovian",
	"geometric-torus",
	"live-retarget-churn",
	"retransmit-lossy",
	"relaxed-lossy",
	"relaxed-geometric",
	"faulty-third",
}

// socketConduit builds a loopback socket transport for one runtime run,
// failing the test if the listener cannot start. The runtime closes it on
// Shutdown.
func socketConduit(t *testing.T, network string) runtime.Conduit {
	t.Helper()
	c, err := netconduit.Listen(network)
	if err != nil {
		t.Fatalf("netconduit.Listen(%s): %v", network, err)
	}
	return c
}

// TestRuntimeTranscriptEquivalence pins the correctness anchor of the whole
// runtime layer: under the deterministic scheduler, the runtime and the
// simulator produce byte-identical trace transcripts and identical results
// for the same seed — at every simulator worker count, since the simulator
// itself is worker-independent, and through every loss-free transport. The
// round-barrier coordinator delivers serially and waits for each message's
// completion event, so a real TCP or Unix-domain loopback socket is just a
// slower ChannelConduit: same deliveries, same order, same bytes.
func TestRuntimeTranscriptEquivalence(t *testing.T) {
	const seed = 42
	for _, name := range equivalenceBuiltins {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel() // each subtest runs its own engines; registry access is read-only
			rtRes, rtTr := runtimeRun(t, name, seed, runtime.Options{})
			for _, workers := range []int{1, 4} {
				simRes, simTr := simRun(t, name, seed, workers)
				if !bytes.Equal(simTr, rtTr) {
					t.Fatalf("workers=%d: transcripts differ (sim %d bytes, runtime %d bytes)\nfirst sim lines:\n%s\nfirst runtime lines:\n%s",
						workers, len(simTr), len(rtTr), head(simTr), head(rtTr))
				}
				simRes.Agents, rtRes.Agents = nil, nil // pool-backed views, not results
				if !reflect.DeepEqual(simRes, rtRes) {
					t.Fatalf("workers=%d: results differ\nsim:     %+v\nruntime: %+v", workers, simRes, rtRes)
				}
			}
			if len(rtTr) == 0 {
				t.Fatal("empty transcript — the comparison proved nothing")
			}
			// The socket rung: every delivery crosses a real OS socket (frame
			// out, mailbox, ack back) and the transcript must not move a byte.
			for _, network := range []string{"unix", "tcp"} {
				sockRes, sockTr := runtimeRun(t, name, seed, runtime.Options{Conduit: socketConduit(t, network)})
				if !bytes.Equal(sockTr, rtTr) {
					t.Fatalf("%s: transcripts differ from channel conduit (%d vs %d bytes)\nfirst channel lines:\n%s\nfirst %s lines:\n%s",
						network, len(rtTr), len(sockTr), head(rtTr), network, head(sockTr))
				}
				sockRes.Agents = nil
				if !reflect.DeepEqual(sockRes, rtRes) {
					t.Fatalf("%s: results differ\nchannel: %+v\nsocket:  %+v", network, rtRes, sockRes)
				}
			}
		})
	}
}

// liveCounts are the delivery counts of a metrics.Live report that a
// transcript determines. Pushes and votes are one count: a trace event does
// not say which kind of payload a push carried.
type liveCounts struct{ Delivered, PushesAndVotes, Queries, Replies int64 }

func countsOf(live metrics.Live) liveCounts {
	return liveCounts{live.Delivered, live.Pushes + live.Votes, live.Queries, live.Replies}
}

// transcriptCounts derives the live delivery counts from a transcript, read
// one message at a time under the run's fault schedule: a push with no note
// to a non-silent target delivered one push or vote; a successful pull
// delivered a query and a reply; a refused or reply-lost pull delivered its
// query. Self traffic is never traced, and never counted.
func transcriptCounts(events []trace.Event, cfg core.RunConfig) liveCounts {
	silent := func(r, u int) bool {
		return (cfg.Faulty != nil && cfg.Faulty[u]) || (cfg.Faults != nil && cfg.Faults.Silent(r, u))
	}
	var c liveCounts
	for _, ev := range events {
		switch {
		case ev.Kind == trace.KindPush && ev.Note == "" && !silent(ev.Round, ev.To):
			c.PushesAndVotes++
		case ev.Kind == trace.KindPull && ev.Note == "":
			c.Queries++
			c.Replies++
		case ev.Kind == trace.KindPull && (ev.Note == "refused" || ev.Note == "reply-lost"):
			c.Queries++
		}
	}
	c.Delivered = c.PushesAndVotes + c.Queries + c.Replies
	return c
}

// TestPipelinedMatchesSerial pins the pipelined delivery waves against a
// serial, message-by-message reading of the simulator's execution, including
// under message loss, where the pull phase draws every query and reply loss
// in its resolution pass after the query wave. Beyond transcripts and
// results, the live delivery counts must equal what the simulator's
// transcript says was delivered: a query the loss stream drops is answered
// in the query wave, but it must not count as delivered.
func TestPipelinedMatchesSerial(t *testing.T) {
	const seed = 42
	for _, name := range []string{"lossy-links", "relaxed-lossy", "retransmit-lossy", "baseline", "crash-mid-voting"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			simRes, simEv, cfg := simEvents(t, name, seed, 1)
			simTr := transcriptBytes(simEv)
			rtRes, live, rtTr := runtimeRunLive(t, name, seed, runtime.Options{})
			if !bytes.Equal(rtTr, simTr) {
				t.Fatalf("transcripts differ (runtime %d bytes, simulator %d bytes)\nfirst runtime lines:\n%s\nfirst simulator lines:\n%s",
					len(rtTr), len(simTr), head(rtTr), head(simTr))
			}
			rtRes.Agents, simRes.Agents = nil, nil
			if !reflect.DeepEqual(rtRes, simRes) {
				t.Fatalf("results differ\nruntime:   %+v\nsimulator: %+v", rtRes, simRes)
			}
			got, want := countsOf(live), transcriptCounts(simEv, cfg)
			if got != want {
				t.Fatalf("live counts differ\nruntime:    %+v\ntranscript: %+v", got, want)
			}
			if got.Queries == 0 || got.Replies == 0 {
				t.Fatalf("no pull traffic delivered (%+v) — the comparison proved nothing", got)
			}
		})
	}
}

// TestRuntimeTranscriptReproducible pins that two runtime executions of the
// same seed are byte-identical to each other — determinism does not depend
// on the simulator being around to compare against.
func TestRuntimeTranscriptReproducible(t *testing.T) {
	_, a := runtimeRun(t, "edge-markovian", 7, runtime.Options{})
	_, b := runtimeRun(t, "edge-markovian", 7, runtime.Options{})
	if !bytes.Equal(a, b) {
		t.Fatal("same seed, different runtime transcripts")
	}
}

// TestRuntimeLiveReport checks the runtime-layer observables: wall-clock and
// delivery accounting must reflect a real execution.
func TestRuntimeLiveReport(t *testing.T) {
	sc, _ := scenario.Lookup("baseline")
	r, err := scenario.NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, live, err := runtime.Execute(context.Background(), r.RunConfig(3), runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if live.WallClock <= 0 {
		t.Fatalf("wall clock %v", live.WallClock)
	}
	if live.Rounds != res.Rounds {
		t.Fatalf("live rounds %d, result rounds %d", live.Rounds, res.Rounds)
	}
	if live.Delivered == 0 {
		t.Fatal("no deliveries measured")
	}
	if got := live.Pushes + live.Votes + live.Queries + live.Replies; got != live.Delivered {
		t.Fatalf("kind counts sum to %d, delivered %d", got, live.Delivered)
	}
	if live.Votes == 0 {
		t.Fatal("no vote messages classified — the Voting phase crossed no link?")
	}
	if live.LatencyMax < live.LatencyP99 || live.LatencyP99 < live.LatencyP50 {
		t.Fatalf("latency quantiles out of order: p50=%v p99=%v max=%v",
			live.LatencyP50, live.LatencyP99, live.LatencyMax)
	}
}

func head(b []byte) []byte {
	const lines = 5
	idx := 0
	for i := 0; i < lines; i++ {
		next := bytes.IndexByte(b[idx:], '\n')
		if next < 0 {
			return b
		}
		idx += next + 1
	}
	return b[:idx]
}
