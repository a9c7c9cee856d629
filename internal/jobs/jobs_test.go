package jobs

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crve/internal/arb"
	"crve/internal/closure"
	"crve/internal/core"
	"crve/internal/coverage"
	"crve/internal/nodespec"
	"crve/internal/regress"
	"crve/internal/stbus"
)

// cfgText renders a small, lint-clean configuration as inline .cfg text —
// the form a Spec carries over the wire.
func cfgText(t *testing.T, name string, pipe int) string {
	t.Helper()
	cfg := nodespec.Config{
		Name:    name,
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: 2, NumTgt: 2,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.LRU, RespArb: arb.Priority,
		Map:      stbus.UniformMap(2, 0x1000, 0x800),
		PipeSize: pipe,
	}.WithDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return regress.FormatConfig(cfg)
}

// testManager builds a manager over a fresh cache directory.
func testManager(t *testing.T, slots int) *Manager {
	t.Helper()
	cache, err := regress.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(Options{Cache: cache, Slots: slots, Workers: 2})
}

// waitTerminal polls a job to its terminal state.
func waitTerminal(t *testing.T, job *Job) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if st := job.Status(); st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state (stuck at %s)", job.ID, job.Status().State)
	return Status{}
}

func TestSpecValidation(t *testing.T) {
	m := testManager(t, 1)
	unreachable, err := os.ReadFile(filepath.Join("..", "..", "configs", "bad", "crve005_unreachable.cfg"))
	if err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]Spec{
		"empty":              {},
		"quick needs matrix": {Quick: true},
		"unknown test":       {Configs: []string{cfgText(t, "v0", 2)}, Tests: []string{"no_such_test"}},
		"unparsable config":  {Configs: []string{"pipe_size = what"}},
		"lint error":         {Configs: []string{string(unreachable)}},
		"unparsable nolint":  {Configs: []string{"pipe_size = what"}, NoLint: true},
	} {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("%s: Submit accepted an invalid spec", name)
		}
	}

	// Two inline configurations without a name line are named after their
	// positions, config0 and config1: the spec is accepted and both run.
	regbank, err := os.ReadFile(filepath.Join("..", "..", "configs", "closure", "regbank.cfg"))
	if err != nil {
		t.Fatal(err)
	}
	var unnamed []string
	for _, line := range strings.Split(string(regbank), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "name") {
			unnamed = append(unnamed, line)
		}
	}
	text := strings.Join(unnamed, "\n")
	job, err := m.Submit(Spec{Configs: []string{text, text}, Tests: []string{"basic_write_read"}})
	if err != nil {
		t.Fatalf("two unnamed inline configs: %v", err)
	}
	if st := waitTerminal(t, job); st.State != Done {
		t.Fatalf("two unnamed inline configs: job ended %s (%s), want done", st.State, st.Error)
	}
	var ran []string
	for _, r := range job.Results() {
		ran = append(ran, fmt.Sprintf("%s:%d", r.Cfg.Name, len(r.Runs)))
	}
	if got := strings.Join(ran, " "); got != "config0:1 config1:1" {
		t.Errorf("two unnamed inline configs ran %q, want config0:1 config1:1", got)
	}
}

// TestSubmitLintsSpec: the lint gate runs at submit. An error is refused
// there, listing the diagnostic under the inline config's name, configs[0];
// with NoLint the job runs, and its log opens with the gate's diagnostics.
func TestSubmitLintsSpec(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("..", "..", "configs", "bad", "crve005_unreachable.cfg"))
	if err != nil {
		t.Fatal(err)
	}
	m := testManager(t, 1)
	spec := Spec{Configs: []string{string(text)}, Tests: []string{"basic_write_read"}}
	const diag = "configs[0]:12: error: CRVE005: target 1 has no address-map region"
	if _, err := m.Submit(spec); err == nil || !strings.Contains(err.Error(), "\n"+diag) {
		t.Fatalf("Submit: %v, want a lint refusal listing %q", err, diag)
	}
	spec.NoLint = true
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st.State != Done {
		t.Fatalf("nolint job ended %s (%s), want done", st.State, st.Error)
	}
	if !strings.HasPrefix(job.Log(), "lint: "+diag) {
		t.Errorf("job log does not open with the lint diagnostic:\n%s", job.Log())
	}
}

// TestJobLifecycle drives one job through queued→running→done and checks the
// dedupe contract: an identical second job is served entirely from the
// shared cache.
func TestJobLifecycle(t *testing.T) {
	m := testManager(t, 2)
	spec := Spec{
		Configs: []string{cfgText(t, "lc0", 4)},
		Tests:   []string{"basic_write_read", "error_paths"},
		Seeds:   []int64{1},
	}
	units := 2

	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, job)
	if st.State != Done {
		t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
	}
	if st.Progress.Done != units || st.Progress.Ran != units || st.Progress.Cached != 0 {
		t.Errorf("cold job progress %+v, want %d done, all ran", st.Progress, units)
	}
	if st.SignedOff != 1 || st.Configs != 1 {
		t.Errorf("signed off %d/%d, want 1/1", st.SignedOff, st.Configs)
	}
	if st.Started == nil || st.Finished == nil {
		t.Error("terminal status must carry started/finished timestamps")
	}
	rep := job.Report()
	if rep == nil || rep.Schema != regress.ReportSchema {
		t.Fatalf("done job report = %+v, want schema %s", rep, regress.ReportSchema)
	}
	if job.Stats().Duration <= 0 {
		t.Error("done job must carry a wall-clock duration")
	}

	// Identical second job: everything cached, zero simulated.
	job2, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitTerminal(t, job2)
	if st2.State != Done {
		t.Fatalf("second job ended %s (%s), want done", st2.State, st2.Error)
	}
	if st2.Progress.Ran != 0 || st2.Progress.Cached != units {
		t.Errorf("duplicate job progress %+v, want 0 ran, %d cached", st2.Progress, units)
	}

	// Reports agree on everything but the ran/cached split.
	var b1, b2 bytes.Buffer
	rep2 := job2.Report()
	rep.Units, rep2.Units = regress.UnitTotals{}, regress.UnitTotals{}
	for _, r := range [2]*regress.Report{rep, rep2} {
		for i := range r.Configs {
			for j := range r.Configs[i].Runs {
				r.Configs[i].Runs[j].Cached = false
			}
		}
	}
	regress.WriteJSON(&b1, rep)
	regress.WriteJSON(&b2, rep2)
	if b1.String() != b2.String() {
		t.Errorf("cache-served report diverged:\n%s\nvs\n%s", b1.String(), b2.String())
	}
}

// TestFinishedJobKeepsWhatItServes: the manager keeps up to 256 finished
// jobs, so a job keeps each run's verdicts and alignment and its
// configurations' merged coverage, which the API and the dashboard serve,
// and drops each run's own coverage maps and latencies, which nothing
// serves.
func TestFinishedJobKeepsWhatItServes(t *testing.T) {
	m := testManager(t, 1)
	job, err := m.Submit(Spec{Configs: []string{cfgText(t, "keep0", 2)}, Tests: []string{"basic_write_read"}, Seeds: []int64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st.State != Done {
		t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
	}
	results := job.Results()
	if len(results) != 1 || len(results[0].Runs) != 2 {
		t.Fatalf("results %+v, want one configuration with two runs", results)
	}
	cr := results[0]
	if cr.SuiteCoverage.Percent() == 0 || cr.CodeCov.Percent(coverage.LinePoint) == 0 {
		t.Error("the merged configuration coverage must survive the job")
	}
	for _, run := range cr.Runs {
		if run.Pair.Alignment.MinRate() != 100 || !run.Pair.CoverageEqual {
			t.Errorf("%s/%d: alignment or coverage verdict lost", run.Test, run.Seed)
		}
		for _, r := range []*core.RunResult{run.Pair.RTL, run.Pair.BCA} {
			if !r.Passed() || r.Cycles == 0 {
				t.Errorf("%s/%d %s: verdict lost (passed %v, %d cycles)", run.Test, run.Seed, r.View, r.Passed(), r.Cycles)
			}
			if r.Coverage != nil || r.CodeCov != nil || r.Latencies != nil {
				t.Errorf("%s/%d %s: finished job still holds the run's coverage maps or latencies", run.Test, run.Seed, r.View)
			}
		}
	}
}

// TestFinishedJobsAreBounded drives a manager past its bound on finished
// jobs: once a job finishes, only the newest finished ones stay served and
// the oldest read as unknown, while queued and running jobs are never
// dropped.
func TestFinishedJobsAreBounded(t *testing.T) {
	m := testManager(t, 1)
	m.keep = 2
	spec := Spec{Configs: []string{cfgText(t, "bound0", 2)}, Tests: []string{"basic_write_read"}, Seeds: []int64{1}}
	var ids []string
	for i := 0; i < 5; i++ {
		job, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, job); st.State != Done {
			t.Fatalf("job %s ended %s (%s), want done", job.ID, st.State, st.Error)
		}
		ids = append(ids, job.ID)
	}
	// The executor prunes right after the job turns terminal.
	deadline := time.Now().Add(10 * time.Second)
	for len(m.List()) > m.keep && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for _, id := range ids[:3] {
		if _, ok := m.Get(id); ok {
			t.Errorf("job %s kept past the bound of %d finished jobs", id, m.keep)
		}
	}
	for _, id := range ids[3:] {
		job, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s, one of the %d newest, was dropped", id, m.keep)
		}
		if job.Report() == nil {
			t.Errorf("job %s no longer serves its report", id)
		}
	}
	if got := len(m.List()); got != m.keep {
		t.Errorf("manager lists %d jobs, want %d", got, m.keep)
	}

	// Queued and running jobs survive a prune over them, however many
	// finished jobs precede them.
	states := []State{Done, Running, Failed, Queued, Cancelled, Done}
	p := &Manager{jobs: map[string]*Job{}, keep: 1}
	for k, st := range states {
		id := fmt.Sprintf("p%d", k)
		p.jobs[id], p.order = &Job{ID: id, state: st}, append(p.order, id)
	}
	p.prune()
	if got, want := strings.Join(p.order, ","), "p1,p3,p5"; got != want {
		t.Errorf("after a prune to 1 finished job the table holds %s, want %s", got, want)
	}
	if len(p.jobs) != len(p.order) {
		t.Errorf("job map holds %d jobs, order lists %d", len(p.jobs), len(p.order))
	}
}

// TestCancelQueuedAndRunning covers both cancel paths: a job cancelled while
// waiting for a slot goes terminal immediately; a running job unwinds to
// cancelled via its context.
func TestCancelQueuedAndRunning(t *testing.T) {
	m := testManager(t, 1)                                                     // one slot: the second submission queues behind the first
	big := Spec{Configs: []string{cfgText(t, "cr0", 4)}, Seeds: []int64{1, 2}} // all 12 tests × 2 seeds
	running, err := m.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(big)
	if err != nil {
		t.Fatal(err)
	}

	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if st := queued.Status(); st.State != Cancelled || st.Started != nil {
		t.Errorf("queued job after cancel: %s (started %v), want cancelled and never started", st.State, st.Started)
	}

	// Let the first job actually start, then cancel it mid-run.
	deadline := time.Now().Add(30 * time.Second)
	for running.Status().State == Queued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, running)
	if st.State != Cancelled && st.State != Done {
		t.Fatalf("running job after cancel ended %s (%s), want cancelled (or done if it outran the cancel)", st.State, st.Error)
	}
	if st.State == Cancelled && st.Progress.Done >= st.Progress.Total {
		t.Errorf("cancelled mid-run but all %d units completed", st.Progress.Total)
	}
	if err := m.Cancel(running.ID); err != nil {
		t.Errorf("cancelling a terminal job must be a no-op, got %v", err)
	}
}

// TestPanicOutsideUnitsFailsTheJob: a panic outside any work unit, in the
// regression driver or in building the report, fails that job with the
// panic and its stack; the slot and the budget come back, and the next job
// runs.
func TestPanicOutsideUnitsFailsTheJob(t *testing.T) {
	m := testManager(t, 1)
	spec := Spec{Configs: []string{cfgText(t, "pan0", 2)}, Tests: []string{"basic_write_read"}}
	t.Cleanup(func() { drive = closure.Run })
	for name, run := range map[string]func(context.Context, []nodespec.Config, closure.Options) (*closure.Result, error){
		"driver": func(context.Context, []nodespec.Config, closure.Options) (*closure.Result, error) {
			panic("planner bug")
		},
		"report": func(context.Context, []nodespec.Config, closure.Options) (*closure.Result, error) {
			return &closure.Result{Results: []*regress.ConfigResult{nil}}, nil
		},
	} {
		drive = run
		job, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		st := waitTerminal(t, job)
		if st.State != Failed || !strings.Contains(st.Error, "panic: ") || !strings.Contains(st.Error, "jobs.build") {
			t.Errorf("%s panic: job ended %s with error %q, want failed with the panic and its stack", name, st.State, st.Error)
		}
		if len(m.budget) != 0 {
			t.Errorf("%s panic: %d simulation tokens still held", name, len(m.budget))
		}
	}
	drive = closure.Run
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st.State != Done {
		t.Fatalf("job after the panics ended %s (%s), want done", st.State, st.Error)
	}
}

// TestDrain is the graceful-shutdown contract: no new submissions, queued
// jobs cancel, running jobs finish, Drain returns.
func TestDrain(t *testing.T) {
	m := testManager(t, 1)
	spec := Spec{Configs: []string{cfgText(t, "dr0", 2)}, Tests: []string{"basic_write_read"}}
	a, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(Spec{Configs: []string{cfgText(t, "dr1", 2)}, Seeds: []int64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, job := range []*Job{a, b} {
		if st := job.Status(); !st.State.Terminal() {
			t.Errorf("job %s still %s after drain", job.ID, st.State)
		}
	}
	if _, err := m.Submit(spec); err == nil {
		t.Error("Submit after Drain must fail")
	}
	if err := m.Drain(ctx); err != nil {
		t.Errorf("second Drain must be a no-op, got %v", err)
	}
}

// TestSubscribe: subscribers see progress and a terminal snapshot; late
// subscribers get exactly the terminal snapshot.
func TestSubscribe(t *testing.T) {
	m := testManager(t, 1)
	job, err := m.Submit(Spec{Configs: []string{cfgText(t, "sub0", 2)}, Tests: []string{"basic_write_read", "error_paths"}})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := job.Subscribe()
	defer cancel()
	var last Status
	sawTerminal := false
	timeout := time.After(60 * time.Second)
	for !sawTerminal {
		select {
		case st, ok := <-ch:
			if !ok {
				sawTerminal = last.State.Terminal()
				if !sawTerminal {
					t.Fatalf("subscription closed at non-terminal state %s", last.State)
				}
			} else {
				last = st
				sawTerminal = st.State.Terminal()
			}
		case <-timeout:
			t.Fatal("no terminal event")
		}
	}
	if last.State != Done {
		t.Fatalf("terminal event state %s (%s), want done", last.State, last.Error)
	}

	late, lateCancel := job.Subscribe()
	defer lateCancel()
	select {
	case st := <-late:
		if st.State != Done {
			t.Errorf("late subscriber got %s, want done", st.State)
		}
	case <-time.After(time.Second):
		t.Error("late subscriber got nothing")
	}
}

// TestSlowSubscriberGetsTerminal: a subscriber that reads nothing until its
// job has finished loses intermediate snapshots to the full buffer, never
// the terminal one.
func TestSlowSubscriberGetsTerminal(t *testing.T) {
	m := testManager(t, 1)
	job, err := m.Submit(Spec{Configs: []string{cfgText(t, "slow0", 2)}, Seeds: []int64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := job.Subscribe()
	defer cancel()
	waitTerminal(t, job)
	var last Status
	for st := range ch {
		last = st
	}
	if last.State != Done {
		t.Errorf("slow subscriber's last snapshot is %s, want done", last.State)
	}
}

// TestCloseJobProgress: a close job's progress never runs backwards, and its
// terminal ran/cached/cycles equal its report's units, closure unit
// included: both count simulated cycles only, as the engine does.
func TestCloseJobProgress(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("..", "..", "configs", "closure", "regbank.cfg"))
	if err != nil {
		t.Fatal(err)
	}
	m := testManager(t, 1)
	job, err := m.Submit(Spec{Configs: []string{string(text)}, Close: true})
	if err != nil {
		t.Fatal(err)
	}
	events, cancel := job.Subscribe()
	defer cancel()
	done := 0
	for st := range events {
		if st.Progress.Done < done {
			t.Errorf("progress ran backwards: done %d after %d", st.Progress.Done, done)
		}
		done = st.Progress.Done
	}
	st := job.Status()
	if st.State != Done {
		t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
	}
	if len(job.Closures()) != 1 {
		t.Fatalf("%d closure trajectories, want 1", len(job.Closures()))
	}
	got := regress.UnitTotals{Ran: st.Progress.Ran, Cached: st.Progress.Cached, Cycles: st.Progress.Cycles}
	if rep := job.Report(); got != rep.Units {
		t.Errorf("terminal status counts %+v, report units %+v", got, rep.Units)
	}
	if st.Progress.Done != st.Progress.Total || st.Progress.Done != got.Ran+got.Cached {
		t.Errorf("terminal progress %+v: done must equal total and ran+cached", st.Progress)
	}
}
