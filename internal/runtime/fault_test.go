package runtime_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
)

// TestFaultConduitTransportIndependent pins that a FaultConduit's outcomes
// are a function of the seed alone: over the channel, unix and tcp
// transports, at jitter 0 (survivors ride the inner batch) and at 30µs
// (survivors released by concurrent per-destination timers), every run has
// the same transcript, the same result and the same live delivery counts —
// jitter moves latency, never an outcome.
func TestFaultConduitTransportIndependent(t *testing.T) {
	const (
		seed = 42
		drop = 0.05
	)
	for _, name := range []string{"baseline", "lossy-links", "relaxed-lossy"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			_, clean, _ := runtimeRunLive(t, name, seed, runtime.Options{})
			type run struct {
				label  string
				counts liveCounts
				tr     []byte
			}
			var ref *run
			var refRes core.RunResult
			for _, jitter := range []time.Duration{0, 30 * time.Microsecond} {
				for _, network := range []string{"channel", "unix", "tcp"} {
					var inner runtime.Conduit
					if network != "channel" {
						inner = socketConduit(t, network)
					}
					c := runtime.NewFaultConduit(inner, seed, drop, jitter)
					res, live, tr := runtimeRunLive(t, name, seed, runtime.Options{Conduit: c})
					res.Agents = nil
					got := run{label: network + "/jitter=" + jitter.String(), counts: countsOf(live), tr: tr}
					if ref == nil {
						ref, refRes = &got, res
						continue
					}
					if !bytes.Equal(got.tr, ref.tr) {
						t.Fatalf("%s: transcript differs from %s (%d vs %d bytes)\nfirst %s lines:\n%s\nfirst %s lines:\n%s",
							got.label, ref.label, len(got.tr), len(ref.tr), ref.label, head(ref.tr), got.label, head(got.tr))
					}
					if !reflect.DeepEqual(res, refRes) {
						t.Fatalf("%s: result differs from %s\n%+v\n%+v", got.label, ref.label, res, refRes)
					}
					if got.counts != ref.counts {
						t.Fatalf("%s: live counts %+v, %s %+v", got.label, got.counts, ref.label, ref.counts)
					}
				}
			}
			if ref.counts.Delivered >= clean.Delivered {
				t.Fatalf("5%% transport drop delivered %d >= clean %d — the fault layer dropped nothing", ref.counts.Delivered, clean.Delivered)
			}
		})
	}
}
