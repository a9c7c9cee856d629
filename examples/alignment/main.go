// Alignment demonstrates the bus-accurate comparison leg of the flow: it
// runs the same test with the same seed on the RTL and the BCA views with
// the streaming STBus Analyzer attached (per-port alignment rates and the
// 99 % sign-off check come straight off the co-simulation — no VCD round
// trip), writes the compact binary waveform recordings to disk alongside a
// full-fidelity text VCD re-served from one of them, and extracts the
// transaction stream directly from the recording.
//
//	go run ./examples/alignment [outdir]
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"crve/internal/arb"
	"crve/internal/bca"
	"crve/internal/catg"
	"crve/internal/core"
	"crve/internal/nodespec"
	"crve/internal/stba"
	"crve/internal/stbus"
	"crve/internal/vcd"
)

func main() {
	outDir := os.TempDir()
	if len(os.Args) > 1 {
		outDir = os.Args[1]
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	cfg := nodespec.Config{
		Name:    "align",
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: 2, NumTgt: 2,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.LRU, RespArb: arb.Priority,
		Map: stbus.UniformMap(2, 0x1000, 0x1000),
	}
	// Both initiators hammer target 0 so the arbiter decides every cycle —
	// the workload that makes an arbitration bug visible in the waveforms.
	test := core.Test{
		Name:    "alignment_demo",
		Traffic: catg.TrafficConfig{Ops: 60, Targets: []int{0}},
		Target:  catg.TargetConfig{MinLatency: 2, MaxLatency: 4},
	}

	run := func(label string, bugs bca.Bugs) {
		pair, err := core.RunPairCtx(context.Background(), cfg, test, 9, core.RunOptions{RecordWave: true, Bugs: bugs})
		if err != nil {
			log.Fatal(err)
		}
		rtlPath := filepath.Join(outDir, label+"_rtl.crw")
		bcaPath := filepath.Join(outDir, label+"_bca.crw")
		if err := os.WriteFile(rtlPath, pair.RTL.Wave.Encode(), 0o644); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(bcaPath, pair.BCA.Wave.Encode(), 0o644); err != nil {
			log.Fatal(err)
		}
		// Full-fidelity text VCD on demand, byte-identical to what a live
		// writer would have dumped.
		vcdPath := filepath.Join(outDir, label+"_rtl.vcd")
		if err := os.WriteFile(vcdPath, pair.RTL.Wave.VCD(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s (recordings: %s, %s; text VCD: %s)\n", label, rtlPath, bcaPath, vcdPath)
		fmt.Print(pair.Alignment)
		fmt.Printf("sign-off: %v\n\n", pair.Alignment.AllPass())

		// Transaction extraction straight from the stored recording, the
		// other half of what the paper's analyzer does — round-tripped
		// through the binary encoding to show nothing is lost.
		raw, err := os.ReadFile(rtlPath)
		if err != nil {
			log.Fatal(err)
		}
		rec, err := vcd.DecodeRecording(raw)
		if err != nil {
			log.Fatal(err)
		}
		txs, err := stba.ExtractTransactions(rec.File(), cfg.Name+".init0", cfg.Port.Type)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("transactions extracted from %s at %s.init0: %d; first three:\n", label, cfg.Name, len(txs))
		for i, tr := range txs {
			if i == 3 {
				break
			}
			fmt.Printf("  %v\n", tr)
		}
		fmt.Println()
	}

	run("clean", bca.Bugs{})
	run("bug_lru_init", bca.Bugs{LRUInit: true})
	fmt.Println("the clean model signs off at 100%; the bugged model falls under the 99% line,")
	fmt.Println("which in the paper's Figure 4 loops the BCA model back for fixing.")
}
