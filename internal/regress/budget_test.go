package regress_test

// The job manager's one simulation budget, seen from inside the engine:
// these tests drive jobs.Manager with Slots 2 and Workers 1, a budget of two
// tokens, and watch the units that simulate through regress.SwapRunPair.

import (
	"context"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"

	"crve/internal/arb"
	"crve/internal/core"
	"crve/internal/jobs"
	"crve/internal/nodespec"
	"crve/internal/regress"
	"crve/internal/stbus"
)

// budgetManager starts a manager with two slots of one worker over a fresh
// cache, and drains it when the test ends.
func budgetManager(t *testing.T) *jobs.Manager {
	t.Helper()
	cache, err := regress.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := jobs.NewManager(jobs.Options{Cache: cache, Slots: 2, Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Drain(ctx)
	})
	return m
}

// budgetSpec is a one-configuration job over the named tests at seed 1.
func budgetSpec(t *testing.T, name string, tests ...string) jobs.Spec {
	return jobs.Spec{Configs: []string{budgetCfg(name)}, Tests: tests, Seeds: []int64{1}}
}

// budgetCfg is the text of a small lint-clean configuration.
func budgetCfg(name string) string {
	return regress.FormatConfig(nodespec.Config{
		Name:    name,
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: 2, NumTgt: 2,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.LRU, RespArb: arb.Priority,
		Map:      stbus.UniformMap(2, 0x1000, 0x800),
		PipeSize: 2,
	}.WithDefaults())
}

// onSimulate swaps the engine's simulation for the rest of the test: each
// unit calls enter with its configuration's name before it simulates, and
// calls the function enter returns once it has.
func onSimulate(t *testing.T, enter func(cfg string) (exit func())) {
	t.Cleanup(regress.SwapRunPair(func(ctx context.Context, cfg nodespec.Config, test core.Test, seed int64, opt core.RunOptions) (*core.PairResult, error) {
		defer enter(cfg.Name)()
		return core.RunPairCtx(ctx, cfg, test, seed, opt)
	}))
}

// overlap counts the units simulating at once. Each unit holds its
// simulation until want units have simulated together, or for at most
// wait, so a budget that lets want units simulate at once shows it in peak.
type overlap struct {
	want int
	wait time.Duration

	mu        sync.Mutex
	cur, peak int
	reached   chan struct{}
}

func newOverlap(want int, wait time.Duration) *overlap {
	return &overlap{want: want, wait: wait, reached: make(chan struct{})}
}

func (o *overlap) enter() (exit func()) {
	o.mu.Lock()
	o.cur++
	if o.cur > o.peak {
		o.peak = o.cur
		if o.peak == o.want {
			close(o.reached)
		}
	}
	o.mu.Unlock()
	select {
	case <-o.reached:
	case <-time.After(o.wait):
	}
	return func() {
		o.mu.Lock()
		o.cur--
		o.mu.Unlock()
	}
}

func (o *overlap) max() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.peak
}

func submit(t *testing.T, m *jobs.Manager, spec jobs.Spec) *jobs.Job {
	t.Helper()
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// await waits for the job to reach state.
func await(t *testing.T, job *jobs.Job, state jobs.State, within time.Duration) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		st := job.Status()
		if st.State.Terminal() || time.Now().After(deadline) {
			if st.State != state {
				t.Fatalf("job %s is %s (%s) after %v, want %s", job.ID, st.State, st.Error, within, state)
			}
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Goroutines blocked in runUnit's token wait, and in the cache's flight
// wait, as the runtime's stack dump shows them.
var (
	tokenWait  = regexp.MustCompile(`\[select[^\]]*\]:\ncrve/internal/regress\.runUnit\(`)
	flightWait = regexp.MustCompile(`\[select[^\]]*\]:\ncrve/internal/regress\.\(\*Cache\)\.acquire\(`)
)

// awaitBlocked waits until some goroutine's stack matches re.
func awaitBlocked(t *testing.T, re *regexp.Regexp, what string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if re.Match(buf[:runtime.Stack(buf, true)]) {
			return
		}
	}
	t.Fatalf("no unit %s", what)
}

// TestManagerSharesOneBudget: with Slots 2 and Workers 1, a lone job
// simulates two units at once, and two running jobs together never simulate
// more than two.
func TestManagerSharesOneBudget(t *testing.T) {
	o := newOverlap(2, 5*time.Second)
	onSimulate(t, func(string) func() { return o.enter() })
	m := budgetManager(t)

	lone := submit(t, m, budgetSpec(t, "lone", "basic_write_read", "error_paths"))
	await(t, lone, jobs.Done, time.Minute)
	if got := o.max(); got != 2 {
		t.Errorf("a lone job simulated at most %d units at once, want 2 (Slots 2 × Workers 1)", got)
	}

	// Each job's engine has two workers; a third unit simulating beside
	// two others would overstep the budget.
	o = newOverlap(3, 50*time.Millisecond)
	tests := []string{"basic_write_read", "error_paths", "random_mixed", "out_of_order"}
	a := submit(t, m, budgetSpec(t, "pairA", tests...))
	b := submit(t, m, budgetSpec(t, "pairB", tests...))
	for _, job := range []*jobs.Job{a, b} {
		if st := await(t, job, jobs.Done, time.Minute); st.Progress.Ran != len(tests) {
			t.Errorf("job %s simulated %d units, want %d", job.ID, st.Progress.Ran, len(tests))
		}
	}
	if got := o.max(); got > 2 {
		t.Errorf("two running jobs simulated %d units at once, more than the budget of 2", got)
	}
}

// TestFlightWaiterHoldsNoToken: while one job simulates a unit, a second
// job that also needs it waits on its flight without holding a token. The
// second job's other unit simulates on the budget's second token, and the
// shared unit waits on the flight while both tokens are held by units that
// simulate; it is then served from the cache, simulated once in all.
func TestFlightWaiterHoldsNoToken(t *testing.T) {
	stall := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(stall) }) }
	entered := make(chan string, 4)
	onSimulate(t, func(cfg string) func() {
		entered <- cfg
		<-stall
		return func() {}
	})
	m := budgetManager(t)
	defer release()

	spec := budgetSpec(t, "held", "basic_write_read")
	first := submit(t, m, spec)
	if got := <-entered; got != "held" {
		t.Fatalf("first simulation is of %s, want held", got)
	}
	spec.Configs = append(spec.Configs, budgetCfg("other"))
	second := submit(t, m, spec)
	select {
	case got := <-entered:
		if got != "other" {
			t.Fatalf("second simulation is of %s, want other", got)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the second job's own unit never got the second token: its unit waiting on the flight holds it")
	}
	awaitBlocked(t, flightWait, "waits on the first job's flight while both tokens simulate")
	release()

	if st := await(t, first, jobs.Done, time.Minute); st.Progress.Ran != 1 {
		t.Errorf("first job simulated %d units, want 1", st.Progress.Ran)
	}
	if st := await(t, second, jobs.Done, time.Minute); st.Progress.Ran != 1 || st.Progress.Cached != 1 {
		t.Errorf("second job simulated %d units and loaded %d, want 1 and 1", st.Progress.Ran, st.Progress.Cached)
	}
}

// TestCancelWhileWaitingForTokens: a job whose units wait for tokens that
// another job holds ends cancelled as soon as it is cancelled, and leaves
// the whole budget to the next job.
func TestCancelWhileWaitingForTokens(t *testing.T) {
	stall := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(stall) }) }
	hogging := make(chan struct{}, 2)
	o := newOverlap(2, 5*time.Second)
	onSimulate(t, func(cfg string) func() {
		switch cfg {
		case "hog":
			hogging <- struct{}{}
			<-stall
		case "next":
			return o.enter()
		}
		return func() {}
	})
	m := budgetManager(t)
	defer release()

	hog := submit(t, m, budgetSpec(t, "hog", "basic_write_read", "error_paths"))
	for range 2 {
		select {
		case <-hogging:
		case <-time.After(30 * time.Second):
			t.Fatal("the first job never held both tokens")
		}
	}
	starved := submit(t, m, budgetSpec(t, "starved", "basic_write_read", "error_paths"))
	awaitBlocked(t, tokenWait, "waits for a token")
	if err := m.Cancel(starved.ID); err != nil {
		t.Fatal(err)
	}
	if st := await(t, starved, jobs.Cancelled, 10*time.Second); st.Progress.Ran != 0 {
		t.Errorf("the cancelled job simulated %d units without a token", st.Progress.Ran)
	}
	release()
	await(t, hog, jobs.Done, time.Minute)

	next := submit(t, m, budgetSpec(t, "next", "basic_write_read", "error_paths"))
	await(t, next, jobs.Done, time.Minute)
	if got := o.max(); got != 2 {
		t.Errorf("after the cancel the next job simulated at most %d units at once, want the whole budget of 2", got)
	}
}
