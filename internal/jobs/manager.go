package jobs

// This file is the bounded scheduler: a fixed pool of executor slots pulls
// queued jobs and drives the regression driver, closure.Run, under a per-job
// cancellation context. Every job shares the manager's content-addressed
// result cache, so overlapping submissions dedupe at the work-unit level —
// the cache's in-process flight group guarantees a unit is simulated at most
// once even when identical jobs run concurrently. Every job also shares the
// manager's one simulation budget (regress.Options.Tokens): a running job
// may simulate on every token its neighbours leave idle.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"crve/internal/closure"
	"crve/internal/core"
	"crve/internal/regress"
	"crve/internal/vcd"
)

// Options configures a Manager.
type Options struct {
	// Cache is the shared result store. Optional but strongly recommended:
	// without it every job simulates everything and nothing dedupes.
	Cache *regress.Cache
	// Workers is the number of simulations per job slot (0 = GOMAXPROCS).
	// Running jobs share them: the manager holds one budget of Slots ×
	// Workers simulation tokens, and any running job may use every token
	// the others leave idle, so the daemon never simulates more units at
	// once than its slots could with Workers each.
	Workers int
	// Slots bounds how many jobs run concurrently (default 2).
	Slots int
	// QueueDepth bounds the submission queue (default 256); Submit fails
	// fast when the backlog is full instead of blocking the API.
	QueueDepth int
	// Log, when non-nil, receives one line per job state transition.
	Log io.Writer
}

// keepFinished bounds the finished jobs a manager keeps: when a job
// finishes, the oldest finished jobs beyond it are dropped, and their IDs
// read as unknown. Queued and running jobs are never dropped.
const keepFinished = 256

// Manager owns the job table and the executor pool.
type Manager struct {
	opt Options

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int
	closed bool
	keep   int // keepFinished; lowered by tests

	queue     chan *Job
	budget    chan struct{} // Slots × Workers simulation tokens, shared by every job
	wg        sync.WaitGroup
	baseCtx   context.Context
	cancelAll context.CancelFunc
}

// NewManager starts a manager with opt.Slots executor goroutines.
func NewManager(opt Options) *Manager {
	if opt.Slots <= 0 {
		opt.Slots = 2
	}
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = 256
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opt:       opt,
		jobs:      make(map[string]*Job),
		keep:      keepFinished,
		queue:     make(chan *Job, opt.QueueDepth),
		budget:    make(chan struct{}, opt.Slots*opt.Workers),
		baseCtx:   ctx,
		cancelAll: cancel,
	}
	for i := 0; i < opt.Slots; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for job := range m.queue {
				m.execute(job)
			}
		}()
	}
	return m
}

// Submit resolves spec, registers a queued job and hands it to the
// executor pool. A spec that cannot resolve (unknown test, bad config text,
// a lint error, nothing to run) fails here, before a job ID exists.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	cfgs, rep, opt, err := spec.Resolve(nil, nil)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("jobs: manager is draining, not accepting jobs")
	}
	m.nextID++
	job := &Job{
		ID:      fmt.Sprintf("j%04d", m.nextID),
		Spec:    spec,
		cfgs:    cfgs,
		opt:     opt,
		state:   Queued,
		created: time.Now(),
		subs:    make(map[chan Status]struct{}),
		waves:   make(map[string]*vcd.Recording),
	}
	// A job's engine has a worker per token, so a job running alone, or
	// beside a job that waits on a client or on a flight, simulates on the
	// whole budget.
	job.opt.Workers, job.opt.Tokens, job.opt.Cache = cap(m.budget), m.budget, m.opt.Cache
	job.opt.Log, job.opt.Progress = jobLog{job}, job.onProgress
	for _, d := range rep.Diags {
		fmt.Fprintf(job.opt.Log, "lint: %s\n", d)
	}
	job.progress.Total = len(cfgs) * len(opt.Tests) * len(opt.Seeds)
	// Enqueue under the lock: Drain closes the queue under the same lock,
	// so a submission can never race a send onto a closed channel.
	select {
	case m.queue <- job:
	default:
		m.mu.Unlock()
		return nil, fmt.Errorf("jobs: queue full (%d pending)", cap(m.queue))
	}
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	m.mu.Unlock()
	m.logf("job %s queued (%d configs, %d tests, %d seeds)",
		job.ID, len(cfgs), len(opt.Tests), len(opt.Seeds))
	return job, nil
}

// Get returns the job with the given ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns every job in submission order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cache exposes the shared result store (nil when the manager runs
// cacheless).
func (m *Manager) Cache() *regress.Cache { return m.opt.Cache }

// Cancel stops a job: a queued job goes terminal immediately (the executor
// skips it), a running job has its context cancelled and reaches the
// cancelled state once the engine unwinds. Cancelling a terminal job is a
// no-op.
func (m *Manager) Cancel(id string) error {
	job, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("jobs: unknown job %q", id)
	}
	job.mu.Lock()
	switch {
	case job.state == Queued:
		job.state = Cancelled
		job.finished = time.Now()
		job.closeSubsLocked()
		m.logf("job %s cancelled while queued", job.ID)
	case job.state == Running && job.cancel != nil:
		job.cancel()
		m.logf("job %s cancel requested", job.ID)
	}
	job.mu.Unlock()
	m.prune()
	return nil
}

// terminal reports whether the job has finished.
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// prune drops the oldest finished jobs beyond m.keep from the table.
func (m *Manager) prune() {
	m.mu.Lock()
	defer m.mu.Unlock()
	finished := make([]bool, len(m.order))
	drop := -m.keep
	for k, id := range m.order {
		if finished[k] = m.jobs[id].terminal(); finished[k] {
			drop++
		}
	}
	kept := m.order[:0]
	for k, id := range m.order {
		if drop > 0 && finished[k] {
			delete(m.jobs, id)
			drop--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// Drain stops accepting submissions, cancels everything still queued and
// waits for running jobs to finish — the graceful-shutdown path. If ctx
// expires first, running jobs are cancelled and the drain waits for them to
// unwind to their terminal states.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	ids := append([]string(nil), m.order...)
	// Close under the lock — see Submit for the pairing.
	close(m.queue)
	m.mu.Unlock()

	// Queued jobs will never get a slot once the queue closes; cancel them
	// so clients see a terminal state instead of an eternal "queued".
	for _, id := range ids {
		if job, ok := m.Get(id); ok {
			job.mu.Lock()
			if job.state == Queued {
				job.state = Cancelled
				job.finished = time.Now()
				job.closeSubsLocked()
			}
			job.mu.Unlock()
		}
	}
	m.prune()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.cancelAll()
		<-done
		return ctx.Err()
	}
}

// execute drives one job start to finish on an executor slot.
func (m *Manager) execute(job *Job) {
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()

	job.mu.Lock()
	if job.state != Queued { // cancelled while waiting for a slot
		job.mu.Unlock()
		return
	}
	job.state = Running
	job.started = time.Now()
	job.cancel = cancel
	job.broadcastLocked()
	job.mu.Unlock()
	m.logf("job %s running", job.ID)

	res, rep, err := build(ctx, job)
	m.finish(job, res, rep, err)
	m.prune()
}

// drive is the regression driver a job runs; tests swap it to fail a job
// outside any work unit.
var drive = closure.Run

// build runs the job and builds its canonical report. A panic outside any
// work unit — in the closure planner or the report — fails the job with the
// panic and its stack, and the executor slot goes on serving; a panic
// inside a unit already fails that unit and gives back its token
// (regress.runUnit).
func build(ctx context.Context, job *Job) (res *closure.Result, rep *regress.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, rep, err = nil, nil, fmt.Errorf("jobs: panic: %v\n%s", r, debug.Stack())
		}
	}()
	if res, err = drive(ctx, job.cfgs, job.opt); err != nil {
		return nil, nil, err
	}
	return res, regress.BuildReport(res.Results, res.Stats), nil
}

// finish moves the job to its terminal state, keeps its report and builds
// the waveform index, and releases subscribers.
func (m *Manager) finish(job *Job, res *closure.Result, rep *regress.Report, err error) {
	job.mu.Lock()
	defer job.mu.Unlock()
	job.finished = time.Now()
	job.cancel = nil
	switch {
	case err == nil:
		job.state = Done
		job.closures = res.Trajectories
		job.stats = res.Stats
		job.stats.Duration = job.finished.Sub(job.started)
		job.report = rep
		for _, cr := range res.Results {
			for _, run := range cr.Runs {
				for view, r := range map[string]*core.RunResult{"rtl": run.Pair.RTL, "bca": run.Pair.BCA} {
					if r.Wave != nil {
						job.waves[waveKey(cr.Cfg.Name, run.Test, run.Seed, view)] = r.Wave
					}
					// The manager keeps the latest finished jobs. It serves each
					// run's verdicts, alignment and kernel profile, and the
					// coverage merged per configuration; a run's own
					// coverage maps and latencies, which nothing serves once
					// they are merged, are not kept for the life of the
					// daemon.
					r.Coverage, r.CodeCov, r.Latencies = nil, nil, nil
				}
			}
		}
		job.results = res.Results
	case errors.Is(err, context.Canceled):
		job.state = Cancelled
		job.err = err.Error()
	default:
		job.state = Failed
		job.err = err.Error()
	}
	job.closeSubsLocked()
	m.logf("job %s %s", job.ID, job.state)
}

func (m *Manager) logf(format string, args ...any) {
	if m.opt.Log != nil {
		fmt.Fprintf(m.opt.Log, "regressd: "+format+"\n", args...)
	}
}
