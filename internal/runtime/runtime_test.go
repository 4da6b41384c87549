package runtime

import (
	"context"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/topo"
)

func goroutines() int { return stdruntime.NumGoroutine() }

// waitForGoroutines polls until the goroutine count drops back to at most
// want, failing the test after a generous deadline — the manual goleak
// bracket for shutdown tests.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if goroutines() <= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, want <= %d", goroutines(), want)
}

// testConfig builds a small prepared run for direct Runtime tests.
func testConfig(t *testing.T, n int, seed uint64) *core.RunSetup {
	t.Helper()
	p, err := core.NewParams(n, 2, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	setup, err := core.PrepareRun(core.RunConfig{
		Params: p,
		Colors: core.UniformColors(n, 2),
		Seed:   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return setup
}

func runtimeFor(setup *core.RunSetup, opts Options) *Runtime {
	return New(Config{
		Topology: setup.Net,
		Faulty:   setup.Faulty,
		Faults:   setup.Faults,
		Counters: setup.Counters,
		Trace:    setup.Trace,
		Drop:     setup.Drop,
		DropRand: setup.DropRand,
		Conduit:  opts.Conduit,
		Mailbox:  opts.Mailbox,
	}, setup.Agents)
}

// TestMailboxBackpressure pins the bounded-mailbox contract: Send fills the
// mailbox of a node that is not draining, then blocks — and unblocks, with
// a false return, when the runtime shuts down.
func TestMailboxBackpressure(t *testing.T) {
	stop := make(chan struct{})
	n := &Node{
		id:    0,
		inbox: make(chan Message, 2),
		stop:  stop,
	}
	// The node goroutine is deliberately not started: nothing drains.
	for i := 0; i < 2; i++ {
		if !n.Send(Message{Kind: MsgPush, Round: i}) {
			t.Fatalf("send %d into empty mailbox failed", i)
		}
	}
	blocked := make(chan bool, 1)
	go func() { blocked <- n.Send(Message{Kind: MsgPush, Round: 2}) }()
	select {
	case <-blocked:
		t.Fatal("send into a full mailbox did not block")
	case <-time.After(50 * time.Millisecond):
		// Blocked, as required: the mailbox is the backpressure boundary.
	}
	close(stop)
	select {
	case ok := <-blocked:
		if ok {
			t.Fatal("blocked send reported delivery after shutdown")
		}
	case <-time.After(time.Second):
		t.Fatal("blocked send did not unblock on shutdown")
	}
	if got := len(n.inbox); got != 2 {
		t.Fatalf("mailbox holds %d messages, want the 2 accepted", got)
	}
}

// TestShutdownMidRun pins context cancellation: a run cancelled between
// rounds returns the context error, a partial round count, and leaks no
// goroutines.
func TestShutdownMidRun(t *testing.T) {
	before := goroutines()
	setup := testConfig(t, 64, 11)
	rt := runtimeFor(setup, Options{})

	ctx, cancel := context.WithCancel(context.Background())
	// Run a few rounds, then cancel from a racing goroutine while the
	// coordinator is mid-flight.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	rounds, err := rt.Run(ctx, setup.MaxRounds)
	wg.Wait()
	rt.Shutdown()
	if err == nil {
		// The run may legitimately finish before the cancel lands on a fast
		// machine; what matters is that cancellation mid-run is clean when it
		// does land. Force the deterministic variant below in that case.
		t.Logf("run finished in %d rounds before cancellation", rounds)
	} else if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	} else if rounds >= setup.MaxRounds {
		t.Fatalf("cancelled run executed all %d rounds", rounds)
	}
	waitForGoroutines(t, before)

	// Deterministic variant: a context cancelled before the run starts must
	// execute zero rounds.
	before = goroutines()
	setup = testConfig(t, 64, 12)
	rt = runtimeFor(setup, Options{})
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	rounds, err = rt.Run(ctx, setup.MaxRounds)
	rt.Shutdown()
	if err != context.Canceled || rounds != 0 {
		t.Fatalf("pre-cancelled run: rounds=%d err=%v, want 0, context.Canceled", rounds, err)
	}
	waitForGoroutines(t, before)
}

// TestShutdownIdempotent pins that Shutdown is safe to call twice and that a
// completed Execute leaves no goroutines behind.
func TestShutdownIdempotent(t *testing.T) {
	before := goroutines()
	setup := testConfig(t, 32, 5)
	rt := runtimeFor(setup, Options{})
	if _, err := rt.Run(context.Background(), setup.MaxRounds); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	rt.Shutdown()
	waitForGoroutines(t, before)
}

// TestSendAfterShutdown pins the conduit-facing contract: delivery to a node
// of a stopped runtime reports false instead of blocking forever.
func TestSendAfterShutdown(t *testing.T) {
	setup := testConfig(t, 32, 6)
	rt := runtimeFor(setup, Options{})
	rt.Shutdown()
	if (ChannelConduit{}).Deliver(rt.Node(0), Message{Kind: MsgPush}) {
		t.Fatal("delivery to a stopped node reported success")
	}
}

// TestFaultConduitDeterminism pins that the fault-injecting transport is as
// reproducible as the clean one: same seed, same drops, same result.
func TestFaultConduitDeterminism(t *testing.T) {
	results := make([]core.RunResult, 2)
	for i := range results {
		setup := testConfig(t, 64, 21)
		rt := runtimeFor(setup, Options{Conduit: NewFaultConduit(nil, 21, 0.05, 0)})
		rounds, err := rt.Run(context.Background(), setup.MaxRounds)
		rt.Shutdown()
		if err != nil {
			t.Fatal(err)
		}
		results[i] = setup.Result(rounds)
		results[i].Agents = nil
	}
	if results[0].Rounds != results[1].Rounds ||
		results[0].Metrics != results[1].Metrics ||
		results[0].Outcome != results[1].Outcome {
		t.Fatalf("fault-conduit runs diverged:\n%+v\n%+v", results[0], results[1])
	}
}

// TestFaultConduitDrops pins that transport drops actually remove messages:
// with a heavy drop rate the delivered count falls well below the loss-free
// run's.
func TestFaultConduitDrops(t *testing.T) {
	delivered := func(c Conduit) int64 {
		setup := testConfig(t, 64, 9)
		rt := runtimeFor(setup, Options{Conduit: c})
		if _, err := rt.Run(context.Background(), setup.MaxRounds); err != nil {
			t.Fatal(err)
		}
		rt.Shutdown()
		return rt.delivered
	}
	clean := delivered(nil)
	lossy := delivered(NewFaultConduit(nil, 9, 0.3, 0))
	if clean == 0 {
		t.Fatal("clean run delivered nothing")
	}
	if lossy >= clean {
		t.Fatalf("30%% transport drop delivered %d >= clean %d", lossy, clean)
	}
}

// TestFaultConduitJitter pins that jitter shows up in the measured latency
// distribution: with a 200µs jitter ceiling the median delivery must be
// slower than the in-process channel handoff ever is.
func TestFaultConduitJitter(t *testing.T) {
	setup := testConfig(t, 16, 13)
	rt := runtimeFor(setup, Options{Conduit: NewFaultConduit(nil, 13, 0, 200*time.Microsecond)})
	if _, err := rt.Run(context.Background(), setup.MaxRounds); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	live := rt.Live(time.Millisecond)
	if live.Delivered == 0 {
		t.Fatal("no deliveries")
	}
	if live.LatencyP50 < 10*time.Microsecond {
		t.Fatalf("median latency %v under a 200µs jitter — jitter not applied", live.LatencyP50)
	}
}

// TestFaultConduitConcurrentDeliver exercises the Conduit concurrency
// contract on the fault layer under the race detector: many goroutines
// delivering through one conduit at once, each message's fate keyed by its
// identity rather than drawn from shared state.
func TestFaultConduitConcurrentDeliver(t *testing.T) {
	const workers, each = 8, 200
	stop := make(chan struct{})
	defer close(stop)
	// A bare node with a mailbox sized for every message: nothing drains, and
	// no Send ever blocks, so the test isolates the conduit's own state.
	n := &Node{id: 0, inbox: make(chan Message, workers*each), stop: stop}
	c := NewFaultConduit(nil, 1, 0.3, 50*time.Microsecond)
	var wg sync.WaitGroup
	var delivered atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if c.Deliver(n, Message{Kind: MsgPush, Round: i, From: 1}) {
					delivered.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	got := delivered.Load()
	if got != int64(len(n.inbox)) {
		t.Fatalf("delivered %d, mailbox holds %d", got, len(n.inbox))
	}
	// With a 30% drop rate both outcomes must occur over 200 rounds; every
	// worker sends the same messages, so each sees the same fates.
	if got == 0 || got == workers*each || got%workers != 0 {
		t.Fatalf("delivered %d of %d — drop fates degenerate or not keyed by message", got, workers*each)
	}
}

// selfAgent only ever addresses itself: a self-push on even rounds, a
// self-pull on odd ones. It counts what comes back.
type selfAgent struct {
	id                    int
	pushes, replies, nils int
}

func (a *selfAgent) Act(round int) gossip.Action {
	if round%2 == 0 {
		return gossip.PushTo(a.id, core.Vote{})
	}
	return gossip.PullFrom(a.id, core.IntentQuery{})
}

func (a *selfAgent) HandlePush(round, from int, p gossip.Payload) { a.pushes++ }

func (a *selfAgent) HandlePull(round, from int, q gossip.Payload) gossip.Payload {
	return core.Vote{}
}

func (a *selfAgent) HandlePullReply(round, from int, reply gossip.Payload) {
	if reply == nil {
		a.nils++
		return
	}
	a.replies++
}

// TestFaultConduitSparesSelfTraffic pins that self traffic is local: a
// FaultConduit never drops or delays a self-push or self-pull, at a drop
// rate and jitter that fault nearly every other message.
func TestFaultConduitSparesSelfTraffic(t *testing.T) {
	c := NewFaultConduit(nil, 5, 0.9, time.Hour)
	faulted := 0
	for r := 0; r < 64; r++ {
		for _, kind := range []MsgKind{MsgPush, MsgVote, MsgQuery, MsgReply} {
			if dropped, delay := c.fate(3, Message{Kind: kind, Round: r, From: 3}); dropped || delay != 0 {
				t.Fatalf("self %v in round %d: dropped=%v delay=%v", kind, r, dropped, delay)
			}
			if dropped, delay := c.fate(3, Message{Kind: kind, Round: r, From: 4}); dropped || delay != 0 {
				faulted++
			}
		}
	}
	if faulted < 200 {
		t.Fatalf("only %d of 256 non-self messages faulted at drop 0.9", faulted)
	}

	// End to end through the batched waves: every self-push lands and every
	// self-pull is answered.
	const n, rounds = 8, 20
	agents := make([]gossip.Agent, n)
	scripted := make([]*selfAgent, n)
	for i := range agents {
		scripted[i] = &selfAgent{id: i}
		agents[i] = scripted[i]
	}
	rt := New(Config{Topology: topo.NewComplete(n), Conduit: NewFaultConduit(nil, 5, 0.9, 0)}, agents)
	got, err := rt.Run(context.Background(), rounds)
	rt.Shutdown()
	if err != nil || got != rounds {
		t.Fatalf("ran %d rounds (err %v), want %d", got, err, rounds)
	}
	for _, a := range scripted {
		if a.pushes != rounds/2 || a.replies != rounds/2 || a.nils != 0 {
			t.Fatalf("agent %d: %d self-pushes, %d replies, %d nil replies; want %d, %d, 0",
				a.id, a.pushes, a.replies, a.nils, rounds/2, rounds/2)
		}
	}
}

// TestBackpressureDrain pins the other half of the mailbox contract: a
// draining node accepts an arbitrary stream through a small mailbox.
func TestBackpressureDrain(t *testing.T) {
	setup := testConfig(t, 32, 3)
	rt := runtimeFor(setup, Options{Mailbox: 1})
	rounds, err := rt.Run(context.Background(), setup.MaxRounds)
	rt.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if rounds == 0 {
		t.Fatal("no rounds ran")
	}
	res := setup.Result(rounds)
	if res.Outcome.Failed {
		t.Fatal("run through capacity-1 mailboxes failed to agree")
	}
}
