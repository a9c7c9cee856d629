package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is a ledger metric: its name and unit, as BENCHMARK.json lists it.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the flow sees, printed with --trace 0.
// Every workload prints every one; LEDGER.md gives each one's meaning on
// each workload.
var endToEnd = []metric{
	{"signoff_s", "s"},
	{"units_per_s", "1/s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, printed with --trace 1.
var perLayer = []metric{
	{"regress.cache.key_us", "us"},
	{"regress.cache.load_us", "us"},
	{"regress.cache.result_us", "us"},
	{"regress.cache.store_us", "us"},
	{"regress.cache.entry_bytes", "bytes"},
	{"regress.cache.hit_ratio", "ratio"},
	{"regress.merge_us", "us"},
	{"regress.report.build_ms", "ms"},
	{"regress.report.encode_ms", "ms"},
	{"regress.report.bytes", "bytes"},
	{"lint.gate_ms", "ms"},
	{"core.pair_ms", "ms"},
	{"core.pair_p90_ms", "ms"},
	{"core.rtl_us_per_kcycle", "us/kcycle"},
	{"core.bca_us_per_kcycle", "us/kcycle"},
	{"rtl.elab_us", "us"},
	{"bca.elab_us", "us"},
	{"catg.genops_us", "us"},
	{"sim.deltas_per_cycle", "1/cycle"},
	{"sim.evals_per_cycle", "1/cycle"},
	{"sim.closure_evals_per_cycle", "1/cycle"},
	{"rtl.proc_us_per_kcycle", "us/kcycle"},
	{"bca.proc_us_per_kcycle", "us/kcycle"},
	{"catg.bfm_us_per_kcycle", "us/kcycle"},
	{"sim.hooks_us_per_kcycle", "us/kcycle"},
	{"vcd.record_us_per_kcycle", "us/kcycle"},
	{"vcd.crw_bytes_per_kcycle", "bytes/kcycle"},
	{"stba.observe_us_per_kcycle", "us/kcycle"},
	{"coverage.equal_us", "us"},
	{"runtime.alloc_bytes_per_unit", "bytes"},
	{"runtime.allocs_per_unit", "count"},
	{"runtime.alloc_bytes_per_cycle", "bytes/cycle"},
	{"runtime.gc_per_pass", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"api.submit_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"api.notify_ms", "ms"},
	{"api.report_ms", "ms"},
	{"api.report_bytes", "bytes"},
	{"jobs.simulated_per_planned", "ratio"},
	{"bench.trace_overhead_pct", "%"},
	{"sim.compiled_over_levelized", "ratio"},
	{"sim.lanes16_over_scalar", "ratio"},
	{"e5.rtl_kcycles_per_s", "kcycles/s"},
	{"e5.bca_wrapped_kcycles_per_s", "kcycles/s"},
	{"bca.standalone_kcycles_per_s", "kcycles/s"},
	{"tlm.ports_kcycles_per_s", "kcycles/s"},
}

// size scales a run's inputs. The benchmark always runs fullSize; the
// self-test runs a tiny one through the same code.
type size struct {
	configs, tests, seeds int // the matrix: leading configs and tests, test seeds per unit
	setups                int // set-up repetitions; setup_s is their median
	minRounds             int // service rounds always run, and covered by the digest
	probeRounds           int // service rounds of the traced batch runs' service probe
	probeUnits            int // units sampled for the elaboration, tap and kernel-tier probes
	laneGroups            int // (config, test) pairs run as 16 lanes and as 16 scalar pairs
	shapeRepeats          int // repetitions of each paper speed-shape run
}

var fullSize = size{
	configs: 36, tests: 12, seeds: 4,
	setups: 3, minRounds: 10, probeRounds: 5,
	probeUnits: 144, laneGroups: 4, shapeRepeats: 3,
}

// quantile returns the q-quantile of xs by linear interpolation (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapWindow measures the Go heap and the garbage collector over a window.
type heapWindow struct {
	ms         runtime.MemStats
	gcCPU, cpu float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPU() (gc, total float64) {
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func startHeap() heapWindow {
	var h heapWindow
	runtime.ReadMemStats(&h.ms)
	h.gcCPU, h.cpu = readCPU()
	return h
}

// heapUse is the heap activity of one window.
type heapUse struct {
	allocBytes, allocs, gcs uint64
	gcCPUFraction           float64
}

func (h heapWindow) stop() heapUse {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, cpu := readCPU()
	u := heapUse{
		allocBytes: ms.TotalAlloc - h.ms.TotalAlloc,
		allocs:     ms.Mallocs - h.ms.Mallocs,
		gcs:        uint64(ms.NumGC - h.ms.NumGC),
	}
	if cpu > h.cpu {
		u.gcCPUFraction = (gc - h.gcCPU) / (cpu - h.cpu)
	}
	return u
}

// add folds the use of one of n windows into h; the GC CPU fraction
// becomes the mean over the windows.
func (h *heapUse) add(u heapUse, n int) {
	h.allocBytes += u.allocBytes
	h.allocs += u.allocs
	h.gcs += u.gcs
	h.gcCPUFraction += u.gcCPUFraction / float64(n)
}

// setHeapMetrics fills the runtime.* per-layer metrics from a window that
// completed units, cycles and passes.
func (o *outcome) setHeapMetrics(u heapUse, units int, cycles uint64, passes int) {
	o.metrics["runtime.alloc_bytes_per_unit"] = float64(u.allocBytes) / float64(units)
	o.metrics["runtime.allocs_per_unit"] = float64(u.allocs) / float64(units)
	o.metrics["runtime.alloc_bytes_per_cycle"] = float64(u.allocBytes) / float64(cycles)
	o.metrics["runtime.gc_per_pass"] = float64(u.gcs) / float64(passes)
	o.metrics["runtime.gc_cpu_fraction"] = u.gcCPUFraction
}
