package netconduit

import (
	"context"
	"net"
	"os"
	stdruntime "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
)

// networks are the two socket flavors every robustness property must hold on.
var networks = []string{"unix", "tcp"}

// testSetup builds a small prepared run whose nodes the socket tests deliver
// into.
func testSetup(t *testing.T, n int, seed uint64) (*core.RunSetup, core.Params) {
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
	return setup, p
}

// testRuntime starts node goroutines on the loss-free channel conduit, so the
// socket conduit under test can be driven and torn down independently of the
// runtime's lifecycle.
func testRuntime(t *testing.T, n int, seed uint64) (*runtime.Runtime, core.Params) {
	t.Helper()
	setup, p := testSetup(t, n, seed)
	rt := runtime.New(runtime.Config{
		Topology: setup.Net,
		Faulty:   setup.Faulty,
		Faults:   setup.Faults,
		Counters: setup.Counters,
	}, setup.Agents)
	return rt, p
}

// voteMsg is a well-formed protocol message that round-0 agents ignore
// (commitment phase) — safe to inject outside a coordinated round.
func voteMsg(p core.Params) runtime.Message {
	return runtime.Message{Kind: runtime.MsgVote, Round: 0, From: 1, Payload: core.Vote{P: p, Value: 1}}
}

func listen(t *testing.T, network string) *SocketConduit {
	t.Helper()
	c, err := Listen(network)
	if err != nil {
		t.Fatalf("Listen(%s): %v", network, err)
	}
	return c
}

// TestDeliverAfterNodeShutdown pins the inbound half of the loss contract: a
// frame that reaches the listener after its destination node has shut down is
// acked false — Deliver reports a transport loss, the connection survives,
// and nothing counts as a malformed-frame reject.
func TestDeliverAfterNodeShutdown(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			rt, p := testRuntime(t, 32, 1)
			c := listen(t, network)
			defer c.Close()
			if !c.Deliver(rt.Node(3), voteMsg(p)) {
				t.Fatal("delivery to a live node failed")
			}
			rt.Shutdown()
			if c.Deliver(rt.Node(3), voteMsg(p)) {
				t.Fatal("delivery to a stopped node reported success")
			}
			if got := c.rejects.Load(); got != 0 {
				t.Fatalf("well-formed frames counted as rejects: %d", got)
			}
		})
	}
}

// TestReconnectAfterConnKilled pins the reconnect path: killing the outbound
// connection mid-run makes the next Deliver re-dial (counted in reconnects)
// and succeed, instead of failing forever or wedging.
func TestReconnectAfterConnKilled(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			rt, p := testRuntime(t, 32, 2)
			defer rt.Shutdown()
			c := listen(t, network)
			defer c.Close()
			if !c.Deliver(rt.Node(0), voteMsg(p)) {
				t.Fatal("first delivery failed")
			}
			// One loopback peer exists now; yank its live connection out from
			// under it, as a peer crash or network partition would.
			c.mu.Lock()
			if len(c.peers) != 1 {
				c.mu.Unlock()
				t.Fatalf("expected 1 peer, have %d", len(c.peers))
			}
			var p0 *peer
			for _, pe := range c.peers {
				p0 = pe
			}
			c.mu.Unlock()
			p0.mu.Lock()
			pc := p0.pc
			p0.mu.Unlock()
			if pc == nil {
				t.Fatal("no live outbound connection after a delivery")
			}
			pc.conn.Close()
			// The ack reader notices and retires the connection; wait for that
			// so the next delivery deterministically takes the re-dial path.
			deadline := time.Now().Add(5 * time.Second)
			for {
				p0.mu.Lock()
				gone := p0.pc == nil
				p0.mu.Unlock()
				if gone {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("killed connection never retired")
				}
				time.Sleep(time.Millisecond)
			}
			if !c.Deliver(rt.Node(1), voteMsg(p)) {
				t.Fatal("delivery after connection kill failed")
			}
			if got := c.reconnects.Load(); got != 1 {
				t.Fatalf("reconnects = %d, want 1", got)
			}
		})
	}
}

// garbageFrames are malformed wire inputs, length prefix included; each must
// be rejected as a whole.
var garbageFrames = [][]byte{
	{0xFF, 0xFF, 0xFF, 0xFF},                           // length prefix beyond MaxFrame
	{0, 0, 0, 3, 9, 9, 9},                              // unknown frame type 9
	{0, 0, 0, 4, 1, 1, 1, 0},                           // v1 message frame: type 1 is unknown
	{0, 0, 0, 3, 2, 1, 1},                              // v1 ack frame: type 2 is unknown
	{0, 0, 0, 10, frameBatch, batchVersion},            // body truncated by half-close
	{0, 0, 0, 2, frameBatch, 99},                       // batch frame, batch version 99
	{0, 0, 0, 4, frameBatch, batchVersion, 1, 0},       // batch of zero messages
	{0, 0, 0, 5, frameBatch, batchVersion, 1, 9, 0},    // count 9 overruns the frame
	{0, 0, 0, 6, frameBatch, batchVersion, 1, 1, 3, 0}, // message body truncated mid-header
}

// closeWriter is the half-close both net.TCPConn and net.UnixConn provide —
// it lets a test send a truncated frame and still observe the server's
// reaction on the read side.
type closeWriter interface{ CloseWrite() error }

// TestGarbageFramesRejected walks raw garbage into the listener — oversized
// length prefix, unknown frame types (the retired v1 message and ack frames
// among them), unsupported batch version, truncated body — and pins that
// each one is connection-fatal (the writer sees EOF), counted as a reject,
// and leaves the conduit fully usable.
func TestGarbageFramesRejected(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			rt, p := testRuntime(t, 32, 3)
			defer rt.Shutdown()
			c := listen(t, network)
			defer c.Close()
			addr := c.Addr()
			cases := garbageFrames
			for i, frame := range cases {
				conn, err := net.Dial(addr.Network(), addr.String())
				if err != nil {
					t.Fatalf("case %d: dial: %v", i, err)
				}
				if _, err := conn.Write(frame); err != nil {
					t.Fatalf("case %d: write: %v", i, err)
				}
				conn.(closeWriter).CloseWrite()
				// The server must close the connection on us — garbage is
				// connection-fatal, not something to resynchronize past.
				if _, err := conn.Read(make([]byte, 1)); err == nil {
					t.Fatalf("case %d: server kept the connection open", i)
				}
				conn.Close()
			}
			if got := c.rejects.Load(); got != int64(len(cases)) {
				t.Fatalf("rejects = %d, want %d", got, len(cases))
			}
			// The coordinator-facing path must be untouched by all of it.
			if !c.Deliver(rt.Node(0), voteMsg(p)) {
				t.Fatal("delivery after garbage storm failed")
			}
		})
	}
}

// TestConcurrentDeliver exercises the conduit's concurrency contract under
// the race detector: many goroutines delivering through one shared peer
// connection, every ack finding its own waiter.
func TestConcurrentDeliver(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			const workers, each = 8, 8
			rt, p := testRuntime(t, workers*each, 4)
			defer rt.Shutdown()
			c := listen(t, network)
			defer c.Close()
			var wg sync.WaitGroup
			failed := make(chan int, workers*each)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						id := w*each + i
						if !c.Deliver(rt.Node(id), voteMsg(p)) {
							failed <- id
						}
					}
				}(w)
			}
			wg.Wait()
			close(failed)
			for id := range failed {
				t.Errorf("concurrent delivery to node %d failed", id)
			}
		})
	}
}

// TestRouteAcrossConduits pins the multi-listener seam: a node registered
// behind a second conduit's listener is reachable through Route, over a
// second outbound peer — the exact machinery a sharded deployment uses.
func TestRouteAcrossConduits(t *testing.T) {
	rt, p := testRuntime(t, 16, 5)
	defer rt.Shutdown()
	a := listen(t, "tcp")
	defer a.Close()
	b := listen(t, "unix")
	defer b.Close()
	b.Register(rt.Node(5))
	a.Route(5, b.Addr().Network(), b.Addr().String())
	if !a.Deliver(rt.Node(5), voteMsg(p)) {
		t.Fatal("routed delivery through the remote listener failed")
	}
	if !a.Deliver(rt.Node(2), voteMsg(p)) {
		t.Fatal("loopback delivery alongside a route failed")
	}
	a.mu.Lock()
	peers := len(a.peers)
	a.mu.Unlock()
	if peers != 2 {
		t.Fatalf("sender holds %d peers, want 2 (loopback + routed)", peers)
	}
	if got := b.rejects.Load(); got != 0 {
		t.Fatalf("remote listener rejected %d frames", got)
	}
}

// TestBatchDeliver pins the batched seam directly: a wave of Adds across
// several nodes flushes to all-true results in Add order, both with the
// default threshold (one coalesced frame) and with batchBytes shrunk so
// every Add seals its own frame — a multi-frame in-flight window.
func TestBatchDeliver(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			for _, window := range []int{0, 1} {
				rt, p := testRuntime(t, 32, 7)
				c := listen(t, network)
				c.batchBytes = window
				b := c.NewBatch()
				const waves, per = 2, 12
				for w := 0; w < waves; w++ {
					for i := 0; i < per; i++ {
						b.Add(rt.Node(i), voteMsg(p))
					}
					oks := b.Flush()
					if len(oks) != per {
						t.Fatalf("window=%d: flush returned %d results, want %d", window, len(oks), per)
					}
					for i, ok := range oks {
						if !ok {
							t.Fatalf("window=%d wave %d: delivery %d reported lost", window, w, i)
						}
					}
				}
				if got := c.rejects.Load(); got != 0 {
					t.Fatalf("window=%d: well-formed batches counted as rejects: %d", window, got)
				}
				c.Close()
				rt.Shutdown()
			}
		})
	}
}

// TestDeliverSteadyStateAllocs is the alloc budget for the hot path: after
// warm-up (peer dialed, pools primed, node registered), a Deliver of a
// nil-payload message — encode, write, server decode, mailbox hand-off, ack
// — allocates nothing on either side. Payload-free messages isolate the
// transport: decoding a payload necessarily allocates its value.
func TestDeliverSteadyStateAllocs(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			rt, _ := testRuntime(t, 256, 8)
			defer rt.Shutdown()
			c := listen(t, network)
			defer c.Close()
			// Node 3 < 256 keeps the sync.Map key boxing on the runtime's
			// small-integer cache, off the allocator.
			m := runtime.Message{Kind: runtime.MsgVote, Round: 0, From: 1}
			for i := 0; i < 8; i++ {
				if !c.Deliver(rt.Node(3), m) {
					t.Fatal("warm-up delivery failed")
				}
			}
			avg := testing.AllocsPerRun(64, func() {
				if !c.Deliver(rt.Node(3), m) {
					t.Fatal("steady-state delivery failed")
				}
			})
			if avg != 0 {
				t.Fatalf("steady-state Deliver allocates %.1f objects/op, want 0", avg)
			}
		})
	}
}

// batchAckingListener acks complete batch frames until ackFrames have been
// answered, then kills the connection on the next frame — the window-death
// fixture.
func batchAckingListener(t *testing.T, ackFrames int) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				var buf, out []byte
				acked := 0
				for {
					body, err := readFrame(conn, &buf)
					if err != nil || body[0] != frameBatch {
						return
					}
					if acked >= ackFrames {
						return // kill the conn with this frame unacked
					}
					r := &reader{b: body[1:]}
					seq, count, err := readBatchHeader(r)
					if err != nil {
						return
					}
					bits := make([]byte, (count+7)/8)
					for i := 0; i < count; i++ {
						bitmapSet(bits, i)
					}
					out = appendBatchAckFrame(out[:0], seq, bits, count)
					if _, err := conn.Write(out); err != nil {
						return
					}
					acked++
				}
			}(conn)
		}
	}()
	return ln
}

// TestBatchWindowConnDeath pins the window's failure isolation: with two
// frames in flight on one connection, a peer that acks the first and dies
// before the second fails exactly the second frame's deliveries — the acked
// frame's results survive, and the conduit re-dials for the next wave.
func TestBatchWindowConnDeath(t *testing.T) {
	rt, p := testRuntime(t, 32, 10)
	defer rt.Shutdown()
	ln := batchAckingListener(t, 1)
	defer ln.Close()
	c := listen(t, "tcp")
	defer c.Close()
	c.batchBytes = 1 // every Add seals its own frame
	c.Route(4, "tcp", ln.Addr().String())
	c.Route(5, "tcp", ln.Addr().String())

	b := c.NewBatch()
	b.Add(rt.Node(4), voteMsg(p)) // frame 1: acked
	b.Add(rt.Node(5), voteMsg(p)) // frame 2: connection dies unacked
	oks := b.Flush()
	if len(oks) != 2 {
		t.Fatalf("flush returned %d results, want 2", len(oks))
	}
	if !oks[0] {
		t.Fatal("acked frame's delivery reported lost")
	}
	if oks[1] {
		t.Fatal("unacked frame's delivery reported success after conn death")
	}
	// The next wave re-dials the stub (which acks one fresh frame per conn).
	b.Add(rt.Node(4), voteMsg(p))
	if oks := b.Flush(); !oks[0] {
		t.Fatal("batch after window death failed to re-dial")
	}
	if got := c.reconnects.Load(); got == 0 {
		t.Fatal("window death never counted as a reconnect")
	}
}

// TestConcurrentDeliverDuringBatch runs single Delivers and batch flushes
// against one conduit at once under the race detector: both share a
// connection, its ack stream and the waiter free list, and every completion
// must find its own waiter.
func TestConcurrentDeliverDuringBatch(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			rt, p := testRuntime(t, 64, 11)
			defer rt.Shutdown()
			c := listen(t, network)
			defer c.Close()
			const workers, each = 4, 4
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						if !c.Deliver(rt.Node(32+w*each+i), voteMsg(p)) {
							t.Errorf("concurrent single delivery %d/%d failed", w, i)
						}
					}
				}(w)
			}
			b := c.NewBatch()
			for wave := 0; wave < 2; wave++ {
				for i := 0; i < 8; i++ {
					b.Add(rt.Node(wave*8+i), voteMsg(p))
				}
				for i, ok := range b.Flush() {
					if !ok {
						t.Errorf("batch wave %d delivery %d failed", wave, i)
					}
				}
			}
			wg.Wait()
		})
	}
}

// TestShutdownReleasesResources is the transport goroleak bracket: a full
// run through the socket conduit, shut down through Runtime.Shutdown, leaves
// no conduit goroutines and (for unix) no socket file behind.
func TestShutdownReleasesResources(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			before := stdruntime.NumGoroutine()
			setup, _ := testSetup(t, 32, 6)
			c := listen(t, network)
			rt := runtime.New(runtime.Config{
				Topology: setup.Net,
				Faulty:   setup.Faulty,
				Faults:   setup.Faults,
				Counters: setup.Counters,
				Conduit:  c,
			}, setup.Agents)
			if _, err := rt.Run(context.Background(), setup.MaxRounds); err != nil {
				t.Fatal(err)
			}
			rt.Shutdown() // closes the conduit: runtime owns the transport
			if c.dir != "" {
				if _, err := os.Stat(c.dir); !os.IsNotExist(err) {
					t.Fatalf("unix socket dir %s survived Close (err=%v)", c.dir, err)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for stdruntime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d running, want <= %d", stdruntime.NumGoroutine(), before)
				}
				time.Sleep(5 * time.Millisecond)
			}
			// Deliver after Close must fail fast, not re-dial a dead listener.
			if c.Deliver(rt.Node(0), runtime.Message{Kind: runtime.MsgVote}) {
				t.Fatal("delivery through a closed conduit reported success")
			}
		})
	}
}
