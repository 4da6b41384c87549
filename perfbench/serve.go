package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"repro/fairgossip"
)

// serveVariants is how many scenario seeds each request shape of the
// catalog gets. Each variant is one distinct request, sent again and again:
// its latency is a median over identical work, and the variants average out
// how much the cost of a shape depends on its seed.
const serveVariants = 4

// serveTemplate is one request shape of the mix; n is the request's size
// class.
type serveTemplate struct {
	name   string // registered scenario, or "" for an inline one
	sc     fairgossip.Scenario
	trials int
}

// serveCatalog is the fixed request multiset one cycle of the mix draws
// without replacement: for each n ∈ {64, 128, 256} the same eight inline
// shapes across the fault, dynamics and protocol axes, with 4 to 32 trials,
// plus four requests by registered name. Only the order and the seeds vary
// with the workload seed, so every seed offers the same mix.
func serveCatalog() []serveTemplate {
	var out []serveTemplate
	for _, n := range []int{64, 128, 256} {
		k := 1 // trial multiplier: the smallest networks run more trials
		if n == 64 {
			k = 4
		}
		s := func() fairgossip.Scenario { return fairgossip.Scenario{N: n, Colors: 2} }
		perm, crash, churn, em, ring, relaxed, retarget := s(), s(), s(), s(), s(), s(), s()
		perm.Fault = fairgossip.FaultModel{Kind: fairgossip.FaultPermanent, Alpha: 0.2}
		crash.Fault = fairgossip.FaultModel{Kind: fairgossip.FaultCrash, Alpha: 0.1, Round: 5}
		churn.Fault = fairgossip.FaultModel{Kind: fairgossip.FaultChurn, Alpha: 0.2, Period: 8}
		em.Dynamics = fairgossip.Dynamics{Kind: fairgossip.DynamicsEdgeMarkovian, Birth: 0.004, Death: 0.02}
		ring.Dynamics = fairgossip.Dynamics{Kind: fairgossip.DynamicsRewireRing, Beta: 0.2}
		relaxed.Fault.Drop = 0.05
		relaxed.Protocol = fairgossip.Protocol{Variant: fairgossip.ProtocolRelaxed, MinVotes: 12}
		retarget.Dynamics = em.Dynamics
		retarget.Protocol = fairgossip.Protocol{Variant: fairgossip.ProtocolLiveRetarget}
		out = append(out,
			serveTemplate{sc: s(), trials: 4 * k}, serveTemplate{sc: perm, trials: 8 * k},
			serveTemplate{sc: crash, trials: 4 * k}, serveTemplate{sc: churn, trials: 4 * k},
			serveTemplate{sc: em, trials: 4 * k}, serveTemplate{sc: ring, trials: 4 * k},
			serveTemplate{sc: relaxed, trials: 4 * k}, serveTemplate{sc: retarget, trials: 4 * k})
	}
	for _, named := range []struct {
		name   string
		trials int
	}{{"faulty-third", 4}, {"ring", 8}, {"relaxed-lossy", 4}, {"edge-markovian", 4}} {
		sc, err := fairgossip.Lookup(named.name)
		if err != nil {
			panic(err) // the registry is compiled in; a missing name is a bug
		}
		out = append(out, serveTemplate{name: named.name, sc: sc, trials: named.trials})
	}
	return out
}

// serveReq is one distinct request: its body, what the server must echo and
// reply, and the latency of each timed send.
type serveReq struct {
	body      []byte
	want      fairgossip.Scenario // defaults-applied scenario the request names
	trials    int
	class     int                // 0, 1, 2 for n = 64, 128, 256
	sum       fairgossip.Summary // in-process replay of the request
	res       []fairgossip.Result
	times     [4]float64 // replay's Decode, NewRunner, Encode, Stream in µs
	latencies []float64  // ms
}

// runResponse mirrors the server's POST /v1/runs reply.
type runResponse struct {
	Scenario       json.RawMessage `json:"scenario"`
	Trials         int             `json:"trials"`
	Successes      int             `json:"successes"`
	SuccessRate    float64         `json:"success_rate"`
	GoodExecutions *int            `json:"good_executions"`
	GoodRate       *float64        `json:"good_rate"`
	MinRounds      int             `json:"min_rounds"`
	MaxRounds      int             `json:"max_rounds"`
	MeanRounds     float64         `json:"mean_rounds"`
	MeanMessages   float64         `json:"mean_messages"`
	TotalBits      int64           `json:"total_bits"`
}

func sizeClass(n int) int {
	switch {
	case n <= 64:
		return 0
	case n <= 128:
		return 1
	default:
		return 2
	}
}

// serveRequests draws the distinct requests: every catalog shape with
// serveVariants scenario seeds from rng, in an order drawn from rng.
func serveRequests(rng *rand.Rand) ([]*serveReq, error) {
	cat := serveCatalog()
	var reqs []*serveReq
	for v := 0; v < serveVariants; v++ {
		for _, tp := range cat {
			seed := rng.Uint64() | 1
			sc := tp.sc
			sc.Seed = seed
			var body map[string]any
			if tp.name != "" {
				body = map[string]any{"name": tp.name, "trials": tp.trials, "seed": seed}
			} else {
				doc, err := fairgossip.Encode(sc)
				if err != nil {
					return nil, err
				}
				body = map[string]any{"scenario": json.RawMessage(doc), "trials": tp.trials}
			}
			b, err := json.Marshal(body)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, &serveReq{body: b, want: sc.WithDefaults(), trials: tp.trials, class: sizeClass(sc.N)})
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, nil
}

// server is a running cmd/serve process.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has exited
	err  error         // Wait's result, valid after done
}

// startServer launches the serve binary on a free loopback port and waits
// until /healthz answers.
func startServer(bin string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	s := &server{cmd: exec.Command(bin, "-addr", addr), url: "http://" + addr, done: make(chan struct{})}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { s.err = s.cmd.Wait(); close(s.done) }()
	client := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); {
		select {
		case <-s.done:
			return nil, fmt.Errorf("serve exited before it was healthy: %v", s.err)
		default:
		}
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	s.stop()
	return nil, errors.New("serve did not become healthy within 20s")
}

// stop sends SIGTERM and waits for the process; it reports an unclean exit.
func (s *server) stop() error {
	select {
	case <-s.done:
		return fmt.Errorf("serve had already exited: %v", s.err)
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.done:
		if s.err != nil {
			return fmt.Errorf("serve exited uncleanly after SIGTERM: %v", s.err)
		}
		return nil
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return errors.New("serve did not exit within 15s of SIGTERM")
	}
}

func runServeMix(ctx context.Context, o options, t *Tracer) (*report, error) {
	rep := &report{}
	reqs, err := serveRequests(rand.New(rand.NewSource(int64(o.seed))))
	if err != nil {
		return nil, err
	}

	// Replay every request in-process through the same public calls the
	// handler makes; each reply of the server must match its replay.
	g0 := readGoStats()
	var streamNs float64
	successes, trials := 0, 0
	for i, r := range reqs {
		r.sum, r.res, r.times, err = replay(ctx, r)
		if err != nil {
			return nil, fmt.Errorf("request %d replay: %w", i, err)
		}
		streamNs += r.times[3] * 1e3
		successes += r.sum.Successes
		trials += r.sum.Trials
	}
	g1 := readGoStats()
	if o.corrupt {
		reqs[0].sum.TotalBits++ // a deliberately wrong replay: the run must fail
	}

	// Set-up: serve start to the first healthy /healthz, three times; the
	// last server takes the load.
	var srv *server
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		srv, err = startServer(o.serveBin)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if i < setupReps-1 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
	}

	// Closed loop over one connection: an untimed warm-up pass over the
	// requests, then the requests in turn until the time is up. Every reply
	// is checked.
	// The timeout bounds a run against a server that stops answering.
	client := &http.Client{Timeout: time.Minute}
	send := func(i int, r *serveReq) time.Duration {
		rep.attempted++
		t0 := time.Now()
		resp, err := post(ctx, client, srv.url, r)
		lat := time.Since(t0)
		if err != nil {
			rep.fail("request %d: %v", i, err)
			return lat
		}
		if got, err := fairgossip.Decode(resp.Scenario); err != nil {
			rep.fail("request %d: echoed scenario does not decode: %v", i, err)
		} else if got != r.want {
			rep.fail("request %d: echoed scenario %+v, want %+v", i, got, r.want)
		} else if msg := compareSummary(resp, r.sum); msg != "" {
			rep.fail("request %d: %s", i, msg)
		}
		return lat
	}
	for i, r := range reqs {
		send(i, r)
	}
	var latAll []float64
	for start, i := time.Now(), 0; time.Since(start) < o.seconds; i = (i + 1) % len(reqs) {
		lat := float64(send(i, reqs[i]).Nanoseconds()) / 1e6
		reqs[i].latencies = append(reqs[i].latencies, lat)
		latAll = append(latAll, lat)
	}
	rss, rssErr := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err := srv.stop(); err != nil {
		rep.fail("%v", err)
	}
	client.CloseIdleConnections()
	if rssErr != nil {
		return nil, fmt.Errorf("serve peak RSS: %w", rssErr)
	}

	rep.addE2E("setup_s", "s", quantile(setupS, 0.5), fmt.Sprintf("median of %d starts to a healthy /healthz", setupReps))
	rep.addE2E("peak_rss_mb", "MB", rss, "serve process")
	// A class's latency is the mean over its requests of each request's
	// median latency: the requests differ in cost by design, and a plain
	// median over the class would jump between them from run to run.
	var httpSelf []float64
	for c, slot := range []string{"a", "b", "c"} {
		var meds []float64
		samples := 0
		for _, r := range reqs {
			if r.class != c || len(r.latencies) == 0 {
				continue
			}
			med := quantile(r.latencies, 0.5)
			meds = append(meds, med)
			httpSelf = append(httpSelf, med-(r.times[0]+r.times[1]+r.times[2]+r.times[3])/1e3)
			samples += len(r.latencies)
		}
		if len(meds) == 0 {
			return nil, fmt.Errorf("serve: no timed request at n = %d", []int{64, 128, 256}[c])
		}
		rep.addE2E(slot+".ms_per_op", "ms", mean(meds), fmt.Sprintf("n = %d requests: mean of %d requests' median latency, %d samples",
			[]int{64, 128, 256}[c], len(meds), samples))
	}
	// tail_ms is the p90: the slowest tenth of the requests are the largest
	// shapes' repeats, and a higher percentile rests on a few of them and
	// spreads too much from run to run to bound.
	rep.addE2E("tail_ms", "ms", quantile(latAll, 0.9), fmt.Sprintf("request latency, p90 of %d samples", len(latAll)))
	rep.addDetail("serve.latency_ms.p50", "ms", quantile(latAll, 0.5), fmt.Sprintf("%d requests", len(latAll)))
	tv, tnote := tail(latAll)
	rep.addDetail("serve.latency_ms.tail", "ms", tv, tnote)
	rep.addDetail("failed_frac", "1", float64(rep.failed)/float64(rep.attempted), "")
	if !o.trace {
		return rep, nil
	}

	var decode, newRunner, encode, streamMs []float64
	for _, r := range reqs {
		decode = append(decode, r.times[0])
		newRunner = append(newRunner, r.times[1])
		encode = append(encode, r.times[2])
		streamMs = append(streamMs, r.times[3]/1e3)
	}
	rep.addDetail("fairgossip.decode_us.p50", "us", quantile(decode, 0.5), "in-process replay")
	rep.addDetail("fairgossip.new_runner_us.p50", "us", quantile(newRunner, 0.5), "in-process replay")
	rep.addDetail("fairgossip.encode_us.p50", "us", quantile(encode, 0.5), "in-process replay")
	rep.addDetail("fairgossip.stream_ms.p50", "ms", quantile(streamMs, 0.5), "in-process replay")
	rep.addDetail("fairgossip.stream_ms.mean", "ms", mean(streamMs), "in-process replay")
	rep.addDetail("serve.http_self_ms.p50", "ms", quantile(httpSelf, 0.5), "median latency minus the replay, over requests")

	// Traced replay of every request's trials through the decorated engine.
	var tally engineTally
	var tracedNs float64
	op := int64(0)
	for i, r := range reqs {
		sr, err := internalScenario(r.want)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := traceTrials(t, sr, sr.TrialSeeds(r.trials), o.workers, op, &tally)
		tracedNs += float64(time.Since(t0).Nanoseconds())
		op += int64(r.trials)
		rep.attempted++
		if err != nil {
			rep.fail("traced request %d: %v", i, err)
			continue
		}
		for j := range res {
			if res[j] != r.res[j] {
				rep.fail("traced request %d trial %d: result %v differs from the streamed %v", i, j, res[j], r.res[j])
				break
			}
		}
	}
	addEngineLayers(rep, t, &tally, "gossip.Engine.Step")
	addRunLayers(rep, newRunner, float64(successes)/float64(trials), g0, g1, float64(trials), tracedNs/streamNs-1)
	return rep, nil
}

// post sends one run request and decodes a 200 reply.
func post(ctx context.Context, client *http.Client, url string, r *serveReq) (runResponse, error) {
	var out runResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/runs", bytes.NewReader(r.body))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, fmt.Errorf("decode reply: %w", err)
	}
	if out.Trials != r.trials {
		return out, fmt.Errorf("reply has %d trials, requested %d", out.Trials, r.trials)
	}
	return out, nil
}

// replay runs request r in-process through the calls the handler makes —
// Decode or Lookup, NewRunner, Encode, Stream — and returns the summary, the
// per-trial results, and the time of each call in microseconds.
func replay(ctx context.Context, r *serveReq) (fairgossip.Summary, []fairgossip.Result, [4]float64, error) {
	var sum fairgossip.Summary
	var times [4]float64
	var req struct {
		Name     string          `json:"name"`
		Scenario json.RawMessage `json:"scenario"`
		Seed     *uint64         `json:"seed"`
		Workers  *int            `json:"workers"`
	}
	if err := json.Unmarshal(r.body, &req); err != nil {
		return sum, nil, times, err
	}
	us := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }
	t0 := time.Now()
	var sc fairgossip.Scenario
	var err error
	if req.Name != "" {
		sc, err = fairgossip.Lookup(req.Name)
	} else {
		sc, err = fairgossip.Decode(req.Scenario)
	}
	times[0] = us(t0)
	if err != nil {
		return sum, nil, times, err
	}
	if req.Seed != nil {
		sc.Seed = *req.Seed
	}
	if req.Workers != nil {
		sc.Workers = *req.Workers
	}
	t0 = time.Now()
	runner, err := fairgossip.NewRunner(sc)
	times[1] = us(t0)
	if err != nil {
		return sum, nil, times, err
	}
	t0 = time.Now()
	_, err = fairgossip.Encode(runner.Scenario())
	times[2] = us(t0)
	if err != nil {
		return sum, nil, times, err
	}
	t0 = time.Now()
	res, err := stream(ctx, runner, r.trials)
	times[3] = us(t0)
	for _, x := range res {
		sum.Add(x)
	}
	return sum, res, times, err
}

// compareSummary names the first field where the server's reply differs
// from the replay's summary, or returns "".
func compareSummary(got runResponse, want fairgossip.Summary) string {
	goodOK := got.GoodExecutions != nil && *got.GoodExecutions == want.GoodExecutions &&
		got.GoodRate != nil && *got.GoodRate == want.GoodRate()
	if !want.HasGood {
		goodOK = got.GoodExecutions == nil && got.GoodRate == nil
	}
	switch {
	case got.Trials != want.Trials:
		return fmt.Sprintf("trials %d, replay %d", got.Trials, want.Trials)
	case got.Successes != want.Successes || got.SuccessRate != want.SuccessRate():
		return fmt.Sprintf("successes %d (%v), replay %d", got.Successes, got.SuccessRate, want.Successes)
	case !goodOK:
		return fmt.Sprintf("good executions differ from replay %d", want.GoodExecutions)
	case got.MinRounds != want.MinRounds || got.MaxRounds != want.MaxRounds || got.MeanRounds != want.MeanRounds():
		return fmt.Sprintf("rounds %d..%d mean %v, replay %d..%d mean %v",
			got.MinRounds, got.MaxRounds, got.MeanRounds, want.MinRounds, want.MaxRounds, want.MeanRounds())
	case got.MeanMessages != want.MeanMessages():
		return fmt.Sprintf("mean messages %v, replay %v", got.MeanMessages, want.MeanMessages())
	case got.TotalBits != want.TotalBits:
		return fmt.Sprintf("total bits %d, replay %d", got.TotalBits, want.TotalBits)
	}
	return ""
}
