package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// contract is the part of BENCHMARK.json the smoke test checks against.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func smokeOptions(t *testing.T, workload string) options {
	t.Helper()
	if testing.Short() {
		t.Skip("runs a workload end to end")
	}
	o := options{workload: workload, seed: 3, seconds: time.Second, trace: true, workers: 2}
	if workload == "serve-mix" {
		o.serveBin = filepath.Join(t.TempDir(), "serve")
		if out, err := exec.Command("go", "build", "-o", o.serveBin, "repro/cmd/serve").CombinedOutput(); err != nil {
			t.Fatalf("build serve: %v\n%s", err, out)
		}
	}
	t.Setenv("TMPDIR", t.TempDir())
	return o
}

// TestSmoke runs each workload briefly with tracing and checks that every
// metric BENCHMARK.json names is reported, with its unit, and that every
// tail states its percentile and sample count.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			o := smokeOptions(t, name)
			tr := newTracer()
			rep, err := run(context.Background(), o, tr)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", rep.failed, rep.attempted, rep.failures)
			}
			if err := checkNesting(tr.Spans()); err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "end_to_end", c.EndToEnd, rep.e2e)
			checkMetrics(t, "per_layer", c.PerLayer, rep.layer)
			for _, m := range append(rep.e2e, rep.detail...) {
				if strings.Contains(m.name, "tail") && !strings.Contains(m.note, " of ") {
					t.Errorf("%s does not state its percentile and sample count: %q", m.name, m.note)
				}
			}
		})
	}
}

func checkMetrics(t *testing.T, kind string, want []struct{ Name, Unit string }, got []metric) {
	t.Helper()
	have := map[string]metric{}
	for _, m := range got {
		have[m.name] = m
	}
	for _, w := range want {
		m, ok := have[w.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s not reported", kind, w.Name)
		case m.unit != w.Unit:
			t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", kind, w.Name, m.unit, w.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d %s metrics reported, BENCHMARK.json lists %d", len(got), kind, len(want))
	}
}

// TestMismatchFails corrupts one expected result and checks the run counts
// the mismatch as a failure.
func TestMismatchFails(t *testing.T) {
	for _, name := range []string{"live-ladder", "serve-mix"} {
		t.Run(name, func(t *testing.T) {
			o := smokeOptions(t, name)
			o.trace, o.corrupt = false, true
			rep, err := workloads[name](context.Background(), o, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed == 0 {
				t.Fatal("a corrupted expected result went unnoticed")
			}
		})
	}
}
