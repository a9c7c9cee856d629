// Command perfledger is the sign-off ledger: the repository's benchmark. It
// times the waits a user of the common verification environment has — a
// full-matrix sign-off into an empty result cache, the same sign-off served
// from a filled cache, and one-config jobs served by regressd over loopback
// HTTP — checks every report it produces against the engine's, and prints
// the ledger's metrics by name with their units.
//
//	perfledger --workload signoff-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it replays
// the workload through the same public calls with a span around each one and
// prints the per-layer metrics instead; the spans are written to
// <workdir>/spans. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics. The exit code is 0 only
// when every output check passed.
//
// The benchmark drives the program only through its public entry points
// (regress.Run, core.RunPairCtx/RunTestCtx, regress.Cache, regress.BuildReport
// and WriteJSON, jobs.Manager behind api.Server, bca.RunStandalone, tlm.RunTest)
// with default options. LEDGER.md records why each workload exists and which
// layer metric should move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	plain, traced func(context.Context, *runEnv) (*outcome, error)
}{
	"signoff-cold":  {runCold, traceCold},
	"signoff-warm":  {runWarm, traceWarm},
	"service-mixed": {runService, traceService},
}

// runEnv is what one benchmark run needs: its inputs' size, the workload
// seed, the measuring window and where to put scratch files and spans.
type runEnv struct {
	workload string
	seed     int64
	window   time.Duration
	size     size
	scratch  string    // removed when the run ends
	spanDir  string    // traced runs write their spans here
	out      io.Writer // human-readable lines
}

// outcome is what a run reports: the operations attempted and failed (units
// in the batch workloads, jobs in service-mixed), whether every output check
// passed, and the metrics by name.
type outcome struct {
	attempted, failed int
	correct           bool
	metrics           map[string]float64
}

func newOutcome() *outcome {
	return &outcome{correct: true, metrics: make(map[string]float64)}
}

// fail records failed operations and marks the run incorrect.
func (o *outcome) fail(n int) {
	o.failed += n
	o.correct = false
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: signoff-cold, signoff-warm or service-mixed")
	seed := flag.Int64("seed", 1, "workload seed; the test seeds and job specs derive from it")
	seconds := flag.Int("seconds", 10, "measuring window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced replay and prints the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for result caches and span files")
	flag.Parse()
	code, err := run(*workload, *seed, *seconds, *trace, *workdir, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfledger:", err)
	}
	os.Exit(code)
}

// run executes one benchmark run and prints its lines and result. It returns
// the exit code: 0 when the run completed and every check passed, 1 when a
// check failed (the result is still printed), 2 when the run could not
// complete (no result is printed).
func run(workload string, seed int64, seconds, trace int, workdir string, stdout io.Writer) (int, error) {
	w, ok := workloads[workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return 2, fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1")
	}
	env, cleanup, err := newEnv(workload, seed, time.Duration(seconds)*time.Second, fullSize, workdir, stdout)
	if err != nil {
		return 2, err
	}
	defer cleanup()
	fn, names := w.plain, endToEnd
	if trace == 1 {
		fn, names = w.traced, perLayer
	}
	o, err := fn(context.Background(), env)
	if err != nil {
		return 2, err
	}
	res, err := o.result(names)
	if err != nil {
		return 2, err
	}
	printMetrics(stdout, res, o)
	if !res.Correct {
		return 1, fmt.Errorf("%s seed %d: output check failed (%d of %d operations failed)",
			workload, seed, res.Failed, res.Attempted)
	}
	return 0, nil
}

// newEnv prepares the run's scratch directory under workdir.
func newEnv(workload string, seed int64, window time.Duration, sz size, workdir string, out io.Writer) (*runEnv, func(), error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, nil, err
	}
	scratch, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, nil, err
	}
	env := &runEnv{
		workload: workload, seed: seed, window: window, size: sz,
		scratch: scratch, spanDir: filepath.Join(workdir, "spans"), out: out,
	}
	return env, func() { os.RemoveAll(scratch) }, nil
}

// result checks that o holds a finite value for every named metric and
// builds the result line.
func (o *outcome) result(names []metric) (result, error) {
	res := result{
		Correct: o.correct && o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(names)),
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	for _, m := range names {
		v, ok := o.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s was not measured (%v)", m.name, v)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res, nil
}

// printMetrics prints one "metric" line per metric, the failure ratio, and
// the result line last.
func printMetrics(w io.Writer, res result, o *outcome) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "metric %-36s %14.6g %s\n", "fail_ratio", float64(o.failed)/float64(o.attempted), "ratio")
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}
