// Package jobs is the job tier of the served verification flow: it wraps
// the regression driver (closure.Run) in an explicit job lifecycle
// (queued → running → done/failed/cancelled) behind a bounded scheduler, so
// many clients can submit matrix runs into one long-lived process sharing
// one content-addressed result cache. The HTTP surface (internal/api) and
// the dashboard (internal/web) are thin views over this package; nothing in
// it knows about HTTP.
package jobs

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"crve/internal/closure"
	"crve/internal/core"
	"crve/internal/nodespec"
	"crve/internal/regress"
	"crve/internal/vcd"
)

// State is a job's lifecycle position.
type State string

const (
	// Queued — accepted, waiting for an executor slot.
	Queued State = "queued"
	// Running — an executor is driving the engine.
	Running State = "running"
	// Done — the run completed; results and the report are available.
	Done State = "done"
	// Failed — the run errored (a simulation, cache or report failure).
	Failed State = "failed"
	// Cancelled — the client (or shutdown) cancelled the job before it
	// completed. Work units finished before the cancel remain in the shared
	// cache; nothing else ran.
	Cancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Cancelled
}

// Spec is a job submission, the POST /api/v1/jobs body: the request every
// front end fills, resolved and linted at submit (closure.Request.Resolve).
type Spec = closure.Request

// ProgressStatus is the live counter block of a job status.
type ProgressStatus struct {
	// Total is the planned work-unit count; Done counts units merged so
	// far, split into Ran (simulated) and Cached (served from the store).
	Total  int `json:"total"`
	Done   int `json:"done"`
	Ran    int `json:"ran"`
	Cached int `json:"cached"`
	// Cycles totals simulated cycles so far (both views, ran units only);
	// CyclesPerSec is the engine-computed throughput over the job's
	// wall-clock so far.
	Cycles       uint64  `json:"cycles"`
	ElapsedMS    int64   `json:"elapsed_ms"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	// Config/Test/Seed identify the most recently merged unit.
	Config string `json:"config,omitempty"`
	Test   string `json:"test,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
}

// Status is a point-in-time snapshot of a job — the GET /api/v1/jobs/{id}
// body and the SSE event payload.
type Status struct {
	ID       string         `json:"id"`
	State    State          `json:"state"`
	Spec     Spec           `json:"spec"`
	Created  time.Time      `json:"created"`
	Started  *time.Time     `json:"started,omitempty"`
	Finished *time.Time     `json:"finished,omitempty"`
	Error    string         `json:"error,omitempty"`
	Progress ProgressStatus `json:"progress"`
	// SignedOff/Total summarise the result once the job is done.
	SignedOff int `json:"signed_off,omitempty"`
	Configs   int `json:"configs,omitempty"`
}

// Job is one submitted verification run. All mutable state is behind mu;
// accessors hand out snapshots.
type Job struct {
	ID   string
	Spec Spec

	// cfgs and opt are the resolved spec; opt carries the job's own sinks.
	cfgs []nodespec.Config
	opt  closure.Options

	mu        sync.Mutex
	state     State
	err       string
	created   time.Time
	started   time.Time
	finished  time.Time
	progress  ProgressStatus
	log       strings.Builder
	cancel    func()
	results   []*regress.ConfigResult
	stats     regress.Stats
	report    *regress.Report
	closures  []*core.ClosureTrajectory
	waves     map[string]*vcd.Recording
	subs      map[chan Status]struct{}
	subClosed bool
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() Status {
	st := Status{
		ID: j.ID, State: j.state, Spec: j.Spec,
		Created: j.created, Error: j.err, Progress: j.progress,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
		elapsed := time.Since(j.started)
		if !j.finished.IsZero() {
			elapsed = j.finished.Sub(j.started)
		}
		st.Progress.ElapsedMS = elapsed.Milliseconds()
		if elapsed > 0 {
			st.Progress.CyclesPerSec = float64(st.Progress.Cycles) / elapsed.Seconds()
		}
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.report != nil {
		st.SignedOff, st.Configs = j.report.SignedOff, j.report.Total
	}
	return st
}

// Report returns the canonical JSON report, or nil until the job is done.
func (j *Job) Report() *regress.Report {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

// Results returns the per-configuration aggregates, or nil until done.
func (j *Job) Results() []*regress.ConfigResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.results
}

// Stats returns the engine statistics of a finished job.
func (j *Job) Stats() regress.Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Closures returns the coverage-closure trajectories, if the job ran any.
func (j *Job) Closures() []*core.ClosureTrajectory {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.closures
}

// Log returns the accumulated progress log.
func (j *Job) Log() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.String()
}

// Wave returns the stored waveform recording for a unit key of the form
// "config/test/seed/view" (view "rtl" or "bca"), or nil.
func (j *Job) Wave(unit string) *vcd.Recording {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.waves[unit]
}

// WaveUnits lists the unit keys with stored recordings, in report order.
func (j *Job) WaveUnits() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	var keys []string
	for _, cr := range j.results {
		for _, run := range cr.Runs {
			for _, view := range []string{"rtl", "bca"} {
				k := waveKey(cr.Cfg.Name, run.Test, run.Seed, view)
				if _, ok := j.waves[k]; ok {
					keys = append(keys, k)
				}
			}
		}
	}
	return keys
}

func waveKey(cfg, test string, seed int64, view string) string {
	return fmt.Sprintf("%s/%s/%d/%s", cfg, test, seed, view)
}

// Subscribe registers for status events: one snapshot per merged work unit
// and per state change, closing after the terminal snapshot. Subscribing to
// a finished job yields exactly the terminal snapshot. The returned cancel
// function is idempotent and must be called when the consumer stops early.
func (j *Job) Subscribe() (<-chan Status, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan Status, 16)
	if j.subClosed || j.state.Terminal() {
		ch <- j.statusLocked()
		close(ch)
		return ch, func() {}
	}
	j.subs[ch] = struct{}{}
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
	}
}

// broadcastLocked sends the current status to every subscriber without
// blocking: a slow consumer misses intermediate snapshots, never stalls the
// engine. Callers hold mu.
func (j *Job) broadcastLocked() {
	st := j.statusLocked()
	for ch := range j.subs {
		select {
		case ch <- st:
		default:
		}
	}
}

// closeSubsLocked delivers the terminal snapshot and closes every
// subscriber. Callers hold mu.
func (j *Job) closeSubsLocked() {
	st := j.statusLocked()
	for ch := range j.subs {
		select {
		case ch <- st:
		default:
		}
		close(ch)
		delete(j.subs, ch)
	}
	j.subClosed = true
}

// onProgress is the engine's injected sink (regress.Options.Progress),
// called from the merge goroutine in canonical order with whole-run
// counters: closure units count on from the suite.
func (j *Job) onProgress(p regress.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress = ProgressStatus{
		Total: p.Total, Done: p.Done, Ran: p.Ran, Cached: p.Cached, Cycles: p.Cycles,
		Config: p.Config, Test: p.Test, Seed: p.Seed,
	}
	j.broadcastLocked()
}

// jobLog adapts the job to io.Writer for regress.Options.Log.
type jobLog struct{ j *Job }

// logCap bounds the per-job log; runaway logs truncate with a marker rather
// than growing without bound in a long-lived server.
const logCap = 1 << 20

func (w jobLog) Write(p []byte) (int, error) {
	w.j.mu.Lock()
	defer w.j.mu.Unlock()
	if w.j.log.Len() < logCap {
		w.j.log.Write(p)
		if w.j.log.Len() >= logCap {
			w.j.log.WriteString("\n... log truncated ...\n")
		}
	}
	return len(p), nil
}
