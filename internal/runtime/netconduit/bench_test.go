package netconduit

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/runtime"
)

// BenchmarkSocketConduitRound measures one lockstep round when every
// delivery crosses a Unix-domain loopback socket, coalesced into batch
// frames with bitmap acks — a handful of writes per round instead of a
// write→ack round trip per message. Read next to
// BenchmarkRuntimeRound (same scenario through the in-process channel
// conduit) it prices the socket rung of the transport ladder. Gated at
// n=1024 in BENCH_BASELINE.json with a wide ns threshold (kernel-timing-
// dominated) and a tight alloc budget guarding the pooled encode/ack path.
//
// The drop=0.05 cases run the relaxed variant (MinVotes 20) under 5% message
// loss, the loss cell of the benchmark ladder: their pull phases draw every
// query and reply loss inside the batched waves. They are not gated.
func BenchmarkSocketConduitRound(b *testing.B) {
	cases := []struct {
		drop float64
		n    int
	}{{0, 128}, {0, 1024}, {0.05, 128}, {0.05, 1024}}
	for _, bc := range cases {
		name := fmt.Sprintf("n=%d", bc.n)
		if bc.drop > 0 {
			name = fmt.Sprintf("drop=%g/n=%d", bc.drop, bc.n)
		}
		b.Run(name, func(b *testing.B) {
			p, err := core.NewParams(bc.n, 2, 3.0)
			if err != nil {
				b.Fatal(err)
			}
			if bc.drop > 0 {
				if p, err = p.WithProtocol(core.Protocol{Variant: core.ProtocolRelaxed, MinVotes: 20}); err != nil {
					b.Fatal(err)
				}
			}
			ctx := context.Background()
			var rt *runtime.Runtime
			var setup *core.RunSetup
			rebuild := func() {
				if rt != nil {
					rt.Shutdown()
				}
				setup, err = core.PrepareRun(core.RunConfig{
					Params: p,
					Colors: core.UniformColors(bc.n, 2),
					Seed:   1,
					Drop:   bc.drop,
				})
				if err != nil {
					b.Fatal(err)
				}
				c, err := Listen("unix")
				if err != nil {
					b.Fatal(err)
				}
				rt = runtime.New(runtime.Config{
					Topology: setup.Net,
					Faulty:   setup.Faulty,
					Faults:   setup.Faults,
					Counters: setup.Counters,
					Trace:    setup.Trace,
					Drop:     setup.Drop,
					DropRand: setup.DropRand,
					Conduit:  c,
				}, setup.Agents)
			}
			rebuild()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rounds, err := rt.Run(ctx, 1)
				if err != nil {
					b.Fatal(err)
				}
				if rounds == 0 || rt.Round() >= setup.MaxRounds {
					b.StopTimer()
					rebuild()
					b.StartTimer()
				}
			}
			b.StopTimer()
			rt.Shutdown()
		})
	}
}
