package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"crve/internal/api"
	"crve/internal/jobs"
	"crve/internal/nodespec"
	"crve/internal/regress"
)

// service is an in-process regressd: a job manager over a shared result
// cache, behind the HTTP API on a loopback port.
type service struct {
	mgr    *jobs.Manager
	srv    *http.Server
	base   string
	client *http.Client
	served chan error
}

// startService starts the manager with slots executor slots of one engine
// worker each, and serves the API on 127.0.0.1.
func startService(cache *regress.Cache, slots int) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	mgr := jobs.NewManager(jobs.Options{Cache: cache, Workers: 1, Slots: slots})
	s := &service{
		mgr:    mgr,
		srv:    &http.Server{Handler: api.New(mgr).Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * slots}, Timeout: 2 * time.Minute},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down, drains the manager and waits for both.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.served
	if derr := s.mgr.Drain(ctx); err == nil {
		err = derr
	}
	s.client.CloseIdleConnections()
	return err
}

// jobPlan is the service-mixed spec stream drawn from the workload seed. In
// each round every client submits a one-config job: a configuration drawn
// from the matrix, every test, and two seeds — the one set-up cached for
// every configuration, and a fresh one. Configurations are drawn without
// replacement, a fresh shuffle of the matrix each time it runs out, so every
// run spreads its jobs evenly over the matrix whatever the seed. Every fifth
// round all clients submit the first client's spec at once, so the cache's
// flight group dedupes them.
type jobPlan struct {
	in      inputs
	tests   []string
	cached  int64
	fresh   int64
	clients int
	rounds  int   // rounds drawn so far
	deck    []int // configuration indexes not yet drawn in this shuffle
	rng     *rand.Rand
}

func newJobPlan(seed int64, in inputs, clients int) *jobPlan {
	p := &jobPlan{in: in, cached: testSeeds(seed, 1)[0], clients: clients}
	for _, t := range in.tests {
		p.tests = append(p.tests, t.Name)
	}
	p.rng = rand.New(rand.NewSource(seed ^ 0x5e7c1ce))
	// Fresh seeds lie above every seed testSeeds draws, so none is cached.
	p.fresh = 1<<21 + p.rng.Int63n(1<<30)
	return p
}

// round draws the next round's spec per client and returns the round's
// number with them.
func (p *jobPlan) round() (int, []jobs.Spec) {
	r := p.rounds
	p.rounds++
	specs := make([]jobs.Spec, p.clients)
	for c := range specs {
		if len(p.deck) == 0 {
			p.deck = p.rng.Perm(len(p.in.cfgs))
		}
		cfg := p.in.cfgs[p.deck[0]]
		p.deck = p.deck[1:]
		p.fresh++
		specs[c] = jobs.Spec{
			Configs: []string{regress.FormatConfig(cfg)},
			Tests:   p.tests,
			Seeds:   []int64{p.cached, p.fresh},
		}
	}
	if r%5 == 4 {
		for c := range specs {
			specs[c] = specs[0]
		}
	}
	return r, specs
}

// clientCount is the closed loop's client count, and the service's slot
// count: two, or fewer on a smaller machine.
func clientCount() int { return min(2, runtime.NumCPU()) }

// jobSample is one job as its client saw it.
type jobSample struct {
	round, client int
	spec          jobs.Spec
	status        jobs.Status // the terminal status
	submitted     time.Time   // the submit request was sent
	notified      time.Time   // the terminal event arrived
	received      time.Time   // the report body was read
	report        []byte
	err           error
}

func (j *jobSample) latency() time.Duration { return j.received.Sub(j.submitted) }

// runJob submits spec, waits on the job's event stream for its terminal
// event, then fetches the report.
func (s *service) runJob(ctx context.Context, spec jobs.Spec, tr *tracer, key string) (js jobSample) {
	js.spec = spec
	root := tr.begin("job", key, 0)
	defer func() { tr.end(root, 0) }()
	body, err := json.Marshal(spec)
	if err != nil {
		js.err = err
		return js
	}
	js.submitted = time.Now()
	id := tr.begin("api.submit", key, root)
	var st jobs.Status
	err = s.call(ctx, http.MethodPost, "/api/v1/jobs", body, http.StatusAccepted, &st)
	tr.end(id, 0)
	if err != nil {
		js.err = fmt.Errorf("submit: %w", err)
		return js
	}
	id = tr.begin("api.events", key, root)
	js.status, err = s.awaitTerminal(ctx, st.ID)
	js.notified = time.Now()
	tr.end(id, 0)
	if err != nil {
		js.err = err
		return js
	}
	if js.status.Started != nil && js.status.Finished != nil {
		tr.interval("jobs.queue_wait", key, root, js.status.Created, *js.status.Started)
		tr.interval("jobs.run", key, root, *js.status.Started, *js.status.Finished)
		tr.interval("api.notify", key, root, *js.status.Finished, js.notified)
	}
	if js.status.State != jobs.Done {
		js.err = fmt.Errorf("job %s ended %s: %s", st.ID, js.status.State, js.status.Error)
		return js
	}
	id = tr.begin("api.report", key, root)
	js.report, err = s.get(ctx, "/api/v1/jobs/"+st.ID+"/report")
	tr.end(id, uint64(len(js.report)))
	js.received = time.Now()
	if err != nil {
		js.err = fmt.Errorf("report: %w", err)
	}
	return js
}

// call sends one JSON request and decodes the response, which must carry
// status want.
func (s *service) call(ctx context.Context, method, path string, body []byte, want int, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, v)
}

// get fetches path, which must answer 200.
func (s *service) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return data, nil
}

// awaitTerminal reads the job's SSE stream until its terminal event. The
// manager drops snapshots a slow reader has not taken, the terminal one
// included, so a stream that ends without it is followed by one status poll.
func (s *service) awaitTerminal(ctx context.Context, id string) (jobs.Status, error) {
	var st jobs.Status
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/api/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return st, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return st, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return st, fmt.Errorf("events: %w", err)
		}
		if st.State.Terminal() {
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("events: %w", err)
	}
	if err := s.call(ctx, http.MethodGet, "/api/v1/jobs/"+id, nil, http.StatusOK, &st); err != nil {
		return st, err
	}
	if !st.State.Terminal() {
		return st, fmt.Errorf("events: stream of job %s ended while %s", id, st.State)
	}
	return st, nil
}

// loop runs closed-loop rounds until at least minRounds rounds ran and
// window elapsed, tracing the jobs of a round into tracerFor(round) when
// tracerFor is set. It returns every job and the duration of every round.
func (s *service) loop(ctx context.Context, plan *jobPlan, minRounds int, window time.Duration, tracerFor func(round int) *tracer) ([]jobSample, []time.Duration, time.Duration) {
	var samples []jobSample
	var rounds []time.Duration
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start) < window; n++ {
		r, specs := plan.round()
		var tr *tracer
		if tracerFor != nil {
			tr = tracerFor(r)
		}
		got := make([]jobSample, len(specs))
		t0 := time.Now()
		var wg sync.WaitGroup
		for c, spec := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[c] = s.runJob(ctx, spec, tr, fmt.Sprintf("r%d.c%d", r, c))
				got[c].round, got[c].client = r, c
			}()
		}
		wg.Wait()
		rounds = append(rounds, time.Since(t0))
		samples = append(samples, got...)
	}
	return samples, rounds, time.Since(start)
}

// serviceSetup fills a fresh cache with the plan's cached seed over the
// whole matrix and starts the service on it, env.size.setups times, keeping
// the last.
func serviceSetup(ctx context.Context, env *runEnv, in inputs, plan *jobPlan) (*service, []time.Duration, error) {
	var svc *service
	setups, err := timedSetups(env, func(last bool) error {
		cache, err := freshCache(env)
		if err != nil {
			return err
		}
		fill := inputs{cfgs: in.cfgs, tests: in.tests, seeds: []int64{plan.cached}}
		p, err := signoffPass(ctx, fill, cache)
		if err != nil {
			return err
		}
		rc, err := checkReport(p.report)
		if err != nil {
			return err
		}
		if _, problem := verify(rc, "", len(fill.cfgs), fill.units()); problem != "" {
			return fmt.Errorf("cache fill: %s", problem)
		}
		s, err := startService(cache, plan.clients)
		if err != nil {
			return err
		}
		if !last {
			os.RemoveAll(cache.Dir())
			return s.stop()
		}
		svc = s
		return nil
	})
	return svc, setups, err
}

// runService is service-mixed: an in-process regressd under a closed loop
// of two clients submitting one-config jobs.
func runService(ctx context.Context, env *runEnv) (*outcome, error) {
	o := newOutcome()
	in := makeInputs(env.seed, env.size)
	plan := newJobPlan(env.seed, in, clientCount())
	svc, setups, err := serviceSetup(ctx, env, in, plan)
	if err != nil {
		return nil, err
	}
	samples, rounds, elapsed := svc.loop(ctx, plan, env.size.minRounds, env.window, nil)
	if err := svc.stop(); err != nil {
		return nil, fmt.Errorf("stop service: %w", err)
	}
	if err := o.checkJobs(ctx, env, in, svc.mgr.Cache(), samples, env.size.minRounds); err != nil {
		return nil, err
	}
	o.setServiceMetrics(samples, rounds, elapsed)
	o.metrics["setup_s"] = median(seconds(setups))
	return o, nil
}

// checkJobs applies the output check to every job: it finished, its
// configuration signed off, and its report, normalised, equals the report
// regress.BuildReport gives for the same spec run in-process. The first two
// specs run in-process without a cache, so they are simulated afresh; the
// rest are served from the shared cache the jobs filled. It prints the
// ledger line over the first digestRounds rounds.
func (o *outcome) checkJobs(ctx context.Context, env *runEnv, in inputs, cache *regress.Cache, samples []jobSample, digestRounds int) error {
	refs := make(map[string]string)
	digests := sha256.New()
	var cycles uint64
	var txs, signedOff, configs int
	for i, js := range samples {
		o.attempted++
		what := fmt.Sprintf("service-mixed round %d client %d", js.round, js.client)
		if js.err != nil {
			fmt.Fprintf(env.out, "check %s: %v\n", what, js.err)
			o.fail(1)
			continue
		}
		var rep regress.Report
		if err := json.Unmarshal(js.report, &rep); err != nil {
			fmt.Fprintf(env.out, "check %s: report: %v\n", what, err)
			o.fail(1)
			continue
		}
		rc, err := checkReport(&rep)
		if err != nil {
			return err
		}
		specKey := fmt.Sprint(js.spec.Configs, js.spec.Seeds)
		want, ok := refs[specKey]
		if !ok {
			ref := cache
			if i < 2 {
				ref = nil
			}
			if want, err = referenceDigest(ctx, in, js.spec, ref); err != nil {
				return err
			}
			refs[specKey] = want
		}
		if _, problem := verify(rc, want, 1, len(js.spec.Tests)*len(js.spec.Seeds)); problem != "" {
			fmt.Fprintf(env.out, "check %s: %s\n", what, problem)
			o.fail(1)
		}
		if js.round < digestRounds {
			io.WriteString(digests, rc.digest)
			cycles += rc.cycles
			txs += rc.transactions
			signedOff += rc.signedOff
			configs += rc.configs
		}
	}
	printLedger(env.out, env.workload, env.seed, fmt.Sprintf("first %d rounds", digestRounds), reportCheck{
		digest: hex.EncodeToString(digests.Sum(nil)), cycles: cycles, transactions: txs,
		signedOff: signedOff, configs: configs,
	})
	return nil
}

// referenceDigest runs spec in-process through regress.Run against cache
// (nil: cacheless) and digests the canonical report.
func referenceDigest(ctx context.Context, in inputs, spec jobs.Spec, cache *regress.Cache) (string, error) {
	cfg, err := regress.ParseConfig(strings.NewReader(spec.Configs[0]))
	if err != nil {
		return "", fmt.Errorf("reference: %w", err)
	}
	sub := inputs{cfgs: []nodespec.Config{cfg}, tests: in.tests, seeds: spec.Seeds}
	p, err := signoffPass(ctx, sub, cache)
	if err != nil {
		return "", fmt.Errorf("reference: %w", err)
	}
	rc, err := checkReport(p.report)
	return rc.digest, err
}

// setServiceMetrics fills the end-to-end metrics of service-mixed from the
// jobs that completed. A round is the service's pass: signoff_s is its
// median duration.
func (o *outcome) setServiceMetrics(samples []jobSample, rounds []time.Duration, elapsed time.Duration) {
	var lat []float64
	var units int
	var cycles uint64
	for _, js := range samples {
		if js.err != nil {
			continue
		}
		lat = append(lat, float64(js.latency())/float64(time.Millisecond))
		units += js.status.Progress.Total
		cycles += js.status.Progress.Cycles
	}
	s := elapsed.Seconds()
	o.metrics["signoff_s"] = median(seconds(rounds))
	o.metrics["units_per_s"] = float64(units) / s
	o.metrics["sim_cycles_per_s"] = float64(cycles) / s
	o.metrics["job_p50_ms"] = quantile(lat, 0.5)
	o.metrics["job_p90_ms"] = quantile(lat, 0.9)
	o.metrics["jobs_per_s"] = float64(len(lat)) / s
	o.metrics["max_rss_mb"] = maxRSSMB()
}
