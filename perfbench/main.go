// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the public API, checks every output, and prints
// its metrics by name with their units; the last line of standard output is
// one JSON object for tools:
//
//	go build -o perfbench . && go build -o serve repro/cmd/serve
//	./perfbench --workload sim-mc --seed 1 --seconds 20 --trace 0
//
// Workloads: sim-mc (Monte-Carlo throughput), live-ladder (RunLive on the
// channel, unix and lossy-unix rungs) and serve-mix (a closed loop against
// the cmd/serve binary). With --trace 1 the run also replays its work with
// timing decorators on each layer and reports the per-layer metrics; the
// spans are written under .bench_build/trace at exit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"
)

// setupReps is how many times each workload repeats its set-up; setup_s is
// the median.
const setupReps = 3

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workers  int
	serveBin string
	corrupt  bool
}

var workloads = map[string]func(context.Context, options, *Tracer) (*report, error){
	"sim-mc":      runSimMC,
	"live-ladder": runLiveLadder,
	"serve-mix":   runServeMix,
}

func main() {
	var o options
	var secs float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "sim-mc, live-ladder or serve-mix")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&secs, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced replay and reports per-layer metrics")
	flag.StringVar(&o.serveBin, "serve-bin", filepath.Join(".bench_build", "bin", "serve"), "cmd/serve binary")
	flag.BoolVar(&o.corrupt, "corrupt", false, "corrupt one expected result, to show a mismatch fails the run")
	flag.Parse()
	o.seconds = time.Duration(secs * float64(time.Second))
	o.trace = trace == 1
	o.workers = goruntime.NumCPU()
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", o.workload, secs, trace)
		os.Exit(2)
	}
	if err := realMain(run, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func realMain(run func(context.Context, options, *Tracer) (*report, error), o options) error {
	// Unix sockets go in a short relative directory inside the checkout:
	// socket paths are limited to 108 bytes.
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	os.Setenv("TMPDIR", tmp)
	t := newTracer()
	rep, err := run(context.Background(), o, t)
	if err != nil {
		return err
	}
	if o.trace {
		spans := t.Spans()
		if err := checkNesting(spans); err != nil {
			rep.fail("trace: %v", err)
		}
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.tsv", o.workload, o.seed))
		if err := writeSpans(path, spans); err != nil {
			return err
		}
		fmt.Printf("# %d spans written to %s\n", len(spans), path)
	}
	for _, m := range append(rep.e2e, rep.layer...) {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
	}
	printReport(o, rep)
	if rep.failed > 0 {
		return fmt.Errorf("%d of %d operations failed a check", rep.failed, rep.attempted)
	}
	return nil
}

func printReport(o options, rep *report) {
	fmt.Printf("# workload %s seed %d seconds %v trace %v\n", o.workload, o.seed, o.seconds.Seconds(), o.trace)
	for _, f := range rep.failures {
		fmt.Printf("# FAILED: %s\n", f)
	}
	print := func(kind string, ms []metric) {
		for _, m := range ms {
			note := ""
			if m.note != "" {
				note = "  (" + m.note + ")"
			}
			fmt.Printf("%-9s %-44s %14.4f %-6s%s\n", kind, m.name, m.value, m.unit, note)
		}
	}
	print("e2e", rep.e2e)
	print("detail", rep.detail)
	print("layer", rep.layer)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, map[string]value{}}
	ms := rep.e2e
	if o.trace {
		ms = rep.layer
	}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(strings.TrimSpace(string(b)))
}
