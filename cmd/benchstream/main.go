// Command benchstream measures the streaming-STBA pipeline against the
// legacy VCD round trip and emits the comparison as JSON (checked in and
// archived by CI as BENCH_streaming.json): paired sign-off throughput in
// simulated cycles per second, waveform bytes written per sign-off, and the
// alignment cost in nanoseconds per compared cycle for both pipelines.
//
// Usage:
//
//	benchstream                                  # JSON on stdout
//	benchstream -out BENCH_streaming.json -repeat 5
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"crve/internal/arb"
	"crve/internal/core"
	"crve/internal/nodespec"
	"crve/internal/stba"
	"crve/internal/stbus"
	"crve/internal/testcases"
	"crve/internal/vcd"
)

// pipeline is one measured alignment pipeline.
type pipeline struct {
	// CyclesPerSec is paired sign-off throughput: simulated cycles across
	// both views divided by wall time for the full pair (runs + alignment).
	CyclesPerSec float64 `json:"cycles_per_s"`
	// AlignNsPerCycle is the alignment cost alone, per compared cycle.
	AlignNsPerCycle float64 `json:"align_ns_per_cycle"`
	// WaveformBytes is what the pipeline writes to disk per sign-off by
	// default (legacy: two text VCDs; streaming: nothing).
	WaveformBytes int `json:"waveform_bytes_per_signoff"`
}

type report struct {
	Config        string   `json:"config"`
	Test          string   `json:"test"`
	Seed          int64    `json:"seed"`
	PairCycles    uint64   `json:"pair_cycles"`
	AlignedCycles uint64   `json:"aligned_cycles"`
	Streaming     pipeline `json:"streaming"`
	Legacy        pipeline `json:"legacy"`
	// CrwBytesOptIn is the size of the opt-in compact recordings (-wave)
	// for the same pair — the artifact that replaces text VCD when a
	// waveform is wanted at all.
	CrwBytesOptIn int `json:"crw_bytes_opt_in"`
	// PairSpeedup is streaming over legacy paired throughput.
	PairSpeedup float64 `json:"pair_speedup"`
}

func refCfg() nodespec.Config {
	return nodespec.Config{
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: 3, NumTgt: 2,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.LRU, RespArb: arb.Priority,
		Map: stbus.UniformMap(2, 0x1000, 0x1000),
	}.WithDefaults()
}

func main() {
	var (
		out    = flag.String("out", "", "write JSON here instead of stdout")
		repeat = flag.Int("repeat", 5, "timing repetitions (best of N)")
		seed   = flag.Int64("seed", 1, "test seed")
	)
	flag.Parse()
	if err := run(*out, *repeat, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchstream:", err)
		os.Exit(1)
	}
}

// best times f over n runs and returns the fastest wall time, the usual
// way to strip scheduler noise from a single-figure benchmark.
func best(n int, f func() error) (time.Duration, error) {
	min := time.Duration(0)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if min == 0 || d < min {
			min = d
		}
	}
	return min, nil
}

func run(out string, repeat int, seed int64) error {
	cfg := refCfg()
	tc, err := testcases.ByName("back_to_back")
	if err != nil {
		return err
	}

	// One pair of each flavor up front for sizes and cycle counts; the
	// timed runs below discard their results.
	str, err := core.RunPairOpt(cfg, tc, seed, core.RunOptions{RecordWave: true})
	if err != nil {
		return err
	}
	leg, err := core.RunPairOpt(cfg, tc, seed, core.RunOptions{LegacyAlignment: true, DumpVCD: true})
	if err != nil {
		return err
	}
	if str.Alignment.MinRate() != 100 || leg.Alignment.MinRate() != 100 {
		return fmt.Errorf("clean reference pair failed to align")
	}
	rep := report{
		Config:     cfg.Name,
		Test:       tc.Name,
		Seed:       seed,
		PairCycles: str.RTL.Cycles + str.BCA.Cycles,
		Legacy:     pipeline{WaveformBytes: len(leg.RTL.VCD) + len(leg.BCA.VCD)},
		CrwBytesOptIn: len(str.RTL.Wave.Encode()) +
			len(str.BCA.Wave.Encode()),
	}
	// Every port spans the same pair of dumps, so any port's Cycles is the
	// number of compared cycles.
	rep.AlignedCycles = str.Alignment.Ports[0].Cycles

	// Paired throughput, both pipelines.
	tStream, err := best(repeat, func() error {
		_, err := core.RunPairOpt(cfg, tc, seed, core.RunOptions{})
		return err
	})
	if err != nil {
		return err
	}
	tLegacy, err := best(repeat, func() error {
		_, err := core.RunPairOpt(cfg, tc, seed, core.RunOptions{LegacyAlignment: true})
		return err
	})
	if err != nil {
		return err
	}
	rep.Streaming.CyclesPerSec = float64(rep.PairCycles) / tStream.Seconds()
	rep.Legacy.CyclesPerSec = float64(rep.PairCycles) / tLegacy.Seconds()
	rep.PairSpeedup = tLegacy.Seconds() / tStream.Seconds()

	// Alignment cost in isolation. Streaming: the pair runs the views in
	// lockstep with the reference sampled on the RTL view and the observer
	// on the BCA view, so its cost is the pair minus the same two views run
	// with no taps on either. Legacy: parse both dumps and Compare.
	tBare, err := best(repeat, func() error {
		if _, err := core.RunTest(cfg, core.RTLView, tc, seed, core.RunOptions{}); err != nil {
			return err
		}
		_, err := core.RunTest(cfg, core.BCAView, tc, seed, core.RunOptions{})
		return err
	})
	if err != nil {
		return err
	}
	streamAlign := tStream - tBare
	if streamAlign < 0 {
		streamAlign = 0 // within run-to-run noise
	}
	rep.Streaming.AlignNsPerCycle = float64(streamAlign.Nanoseconds()) / float64(rep.AlignedCycles)

	tCompare, err := best(repeat, func() error {
		fr, err := vcd.Parse(bytes.NewReader(leg.RTL.VCD))
		if err != nil {
			return err
		}
		fb, err := vcd.Parse(bytes.NewReader(leg.BCA.VCD))
		if err != nil {
			return err
		}
		_, err = stba.Compare(fr, fb, nil)
		return err
	})
	if err != nil {
		return err
	}
	rep.Legacy.AlignNsPerCycle = float64(tCompare.Nanoseconds()) / float64(rep.AlignedCycles)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}
