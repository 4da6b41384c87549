package runtime

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"time"

	"repro/internal/rng"
)

// Conduit is the pluggable transport between the scheduler and a node's
// mailbox. The protocol logic never sees it: swapping the transport — for a
// lossy one, a delaying one, a socket-backed one — changes how messages
// travel, never what they mean.
//
// The coordinator drives a conduit only through batches: the protocol's
// correctness barrier is the round, not the message, so each phase of a
// round is handed over as one delivery wave (NewBatch) and settled at the
// barrier instead of paying a synchronous transport round trip per message.
//
// Deliver carries one payload message into dst's mailbox, blocking while
// the mailbox is full (the runtime's backpressure). It reports whether the
// message survived transport: false means the conduit dropped it before it
// reached dst (dst is untouched). Delivery to a node that has shut down also
// reports false. Deliver must be safe for concurrent use: a conduit layered
// over another (FaultConduit) releases delayed messages through it from
// several goroutines at once.
//
// A Conduit that holds transport resources may additionally implement
// io.Closer; Runtime.Shutdown closes it after every node goroutine has
// exited.
type Conduit interface {
	Deliver(dst *Node, m Message) bool
	// NewBatch returns an empty, reusable delivery batch. A batch is owned
	// by one goroutine (the coordinator) and is not safe for concurrent use.
	NewBatch() Batch
}

// BatchConduit is the name Conduit had while an unbatched transport was
// still allowed. It is kept as an alias because code outside this module's
// packages (the benchmark harness) embeds it; new code should say Conduit.
type BatchConduit = Conduit

// Batch collects one wave of deliveries. Add enqueues without waiting for
// the result; Flush forces everything onto the wire and blocks until every
// added delivery has resolved — mailbox-accepted (true) or lost in transport
// (false) — returning the results in Add order. The returned slice is valid
// until the next Add or Flush; the batch is empty and reusable afterwards.
//
// The only ordering a batch must preserve is per destination: messages
// Added for the same node must enter its mailbox in Add order (the simulator
// delivers in ascending sender order, and vote multisets, certificate W-entry
// order, and trace bytes all depend on it). Cross-destination interleaving
// is free.
//
// Add may still block on destination-mailbox backpressure (the channel
// transport hands off directly; the socket transport's server blocks the
// connection, not the caller) — what it never does is wait for a transport
// acknowledgement, which is what Flush settles in bulk.
type Batch interface {
	Add(dst *Node, m Message)
	Flush() []bool
}

// ChannelConduit is the loss-free, zero-latency in-process transport: a
// direct handoff into the destination's mailbox. Under the deterministic
// round-barrier scheduler it makes the runtime transcript-equivalent to the
// simulator.
type ChannelConduit struct{}

// Deliver hands the message straight to the destination node.
func (ChannelConduit) Deliver(dst *Node, m Message) bool { return dst.Send(m) }

// NewBatch implements Conduit. A channel batch has nothing to coalesce —
// each Add is the same direct mailbox handoff Deliver makes — so batching
// buys exactly the pipelining: the coordinator no longer waits for a
// completion event between handoffs, and node handlers overlap with the
// rest of the wave's dispatch.
func (ChannelConduit) NewBatch() Batch { return &channelBatch{} }

// channelBatch records direct-handoff results in Add order.
type channelBatch struct {
	results []bool
}

func (b *channelBatch) Add(dst *Node, m Message) {
	b.results = append(b.results, dst.Send(m))
}

func (b *channelBatch) Flush() []bool {
	r := b.results
	b.results = b.results[:0]
	return r
}

// conduitStreamSalt separates a FaultConduit's fate hashes from every other
// use of a run seed — in particular from the scheduler-level loss stream
// (core's dropStreamSalt), which must stay aligned with the simulator's draw
// order.
const conduitStreamSalt = 0xfa117c0d

// Salts of the two independent per-message fate hashes.
const (
	fateDropSalt  = 1
	fateDelaySalt = 2
)

// FaultConduit layers seed-derived per-message drop and latency jitter on
// top of an inner transport. Drops reuse the simulator's FaultModel.Drop
// observation model (the sender has paid, the receiver sees silence); jitter
// delays each delivery by a uniform [0, Jitter) amount, turning the latency
// distribution from a point mass into something worth measuring.
//
// A message's fate is a pure function of the seed and the message's
// identity — round, kind, sender, receiver — which is unique within a run
// because each node takes one action per round. The drop and the delay come
// from two independent hashes of that identity, so outcomes do not depend on
// the transport underneath, on the order messages reach the conduit, or on
// concurrency, and jitter moves latency without ever moving an outcome. Self
// traffic (sender == receiver) is local and never faulted.
//
// Delays are concurrent, like real link latency: a batch Flush releases each
// destination's survivors from their own goroutine, each message at the
// flush's start plus its delay but never before the previous message to the
// same node, so per-destination order holds and a wave costs its largest
// delay rather than the sum of them.
type FaultConduit struct {
	inner  Conduit
	drop   float64
	jitter time.Duration
	seed   uint64
}

// NewFaultConduit builds a fault-injecting transport over inner (nil means
// ChannelConduit). drop is the per-message transport loss probability in
// [0, 1); jitter is the maximum per-message delivery delay (0 disables).
// Fates are derived from seed, so runs repeat bit-for-bit.
func NewFaultConduit(inner Conduit, seed uint64, drop float64, jitter time.Duration) *FaultConduit {
	if drop < 0 || drop >= 1 {
		panic(fmt.Sprintf("runtime: conduit drop probability %v outside [0, 1)", drop))
	}
	if jitter < 0 {
		panic("runtime: negative conduit jitter")
	}
	if inner == nil {
		inner = ChannelConduit{}
	}
	return &FaultConduit{inner: inner, drop: drop, jitter: jitter, seed: rng.Mix64(seed, conduitStreamSalt)}
}

// fate reports whether the message to dst is dropped and, if not, how long
// its delivery is delayed.
func (c *FaultConduit) fate(dst int, m Message) (dropped bool, delay time.Duration) {
	if m.From == dst {
		return false, 0
	}
	k := rng.Mix64(c.seed, uint64(m.Round))
	k = rng.Mix64(k, uint64(m.Kind))
	k = rng.Mix64(k, uint64(m.From))
	k = rng.Mix64(k, uint64(dst))
	if c.drop > 0 && float64(rng.Mix64(k, fateDropSalt)>>11)/(1<<53) < c.drop {
		return true, 0
	}
	if c.jitter > 0 {
		hi, _ := bits.Mul64(rng.Mix64(k, fateDelaySalt), uint64(c.jitter))
		delay = time.Duration(hi)
	}
	return false, delay
}

// Deliver applies the message's fate and forwards a survivor to the inner
// transport after its delay.
func (c *FaultConduit) Deliver(dst *Node, m Message) bool {
	dropped, delay := c.fate(dst.ID(), m)
	if dropped {
		return false
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	return c.inner.Deliver(dst, m)
}

// NewBatch implements Conduit. Without jitter, survivors ride a batch of
// the inner transport, so a socket still coalesces them into frames.
func (c *FaultConduit) NewBatch() Batch {
	b := &faultBatch{c: c}
	if c.jitter == 0 {
		b.inner = c.inner.NewBatch()
	}
	return b
}

// Close forwards to the inner transport when it holds resources (a wrapped
// socket conduit), so Runtime.Shutdown tears the whole transport stack down
// through the fault layer.
func (c *FaultConduit) Close() error {
	if cl, ok := c.inner.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// faultBatch is one FaultConduit delivery wave. Dropped messages only take a
// false result. Without jitter the survivors go into the inner batch; with
// jitter they are held per destination until Flush releases them.
type faultBatch struct {
	c       *FaultConduit
	inner   Batch
	fwd     []int32             // inner result j belongs to Add fwd[j]
	held    map[*Node][]heldMsg // jitter only: survivors in Add order
	results []bool
}

// heldMsg is a delayed survivor waiting for its release time.
type heldMsg struct {
	m     Message
	delay time.Duration
	idx   int32 // its index in the wave's results
}

func (b *faultBatch) Add(dst *Node, m Message) {
	idx := int32(len(b.results))
	b.results = append(b.results, false)
	dropped, delay := b.c.fate(dst.ID(), m)
	switch {
	case dropped:
	case b.inner != nil:
		b.inner.Add(dst, m)
		b.fwd = append(b.fwd, idx)
	default:
		if b.held == nil {
			b.held = make(map[*Node][]heldMsg)
		}
		b.held[dst] = append(b.held[dst], heldMsg{m: m, delay: delay, idx: idx})
	}
}

func (b *faultBatch) Flush() []bool {
	if b.inner != nil {
		for j, ok := range b.inner.Flush() {
			b.results[b.fwd[j]] = ok
		}
		b.fwd = b.fwd[:0]
	} else {
		b.release()
	}
	r := b.results
	b.results = b.results[:0]
	return r
}

// release delivers the held survivors, one goroutine per destination, and
// waits for all of them. Emptied queues stay in the map for reuse.
func (b *faultBatch) release() {
	start := time.Now()
	var wg sync.WaitGroup
	for dst, q := range b.held {
		if len(q) == 0 {
			continue
		}
		dst, q := dst, q
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, h := range q {
				if wait := time.Until(start.Add(h.delay)); wait > 0 {
					time.Sleep(wait)
				}
				b.results[h.idx] = b.c.inner.Deliver(dst, h.m)
			}
		}()
		b.held[dst] = q[:0]
	}
	wg.Wait()
}
