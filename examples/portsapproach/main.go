// Portsapproach demonstrates the paper's future-work item (Section 6): the
// next-generation CATG "ports approach" plugs the BCA model into the
// verification environment directly — no signal-level wrapper — recovering
// most of the transaction engine's speed while observing exactly the same
// behaviour. The program runs the same test and seed three ways and compares
// results and throughput:
//
//  1. RTL view in the signal-level common bench,
//
//  2. BCA view wrapped into the same signal-level bench (today's flow),
//
//  3. BCA engine in the ports bench, core.RunPorts (the future flow).
//
//     go run ./examples/portsapproach
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"reflect"
	"time"

	"crve/internal/arb"
	"crve/internal/bca"
	"crve/internal/catg"
	"crve/internal/core"
	"crve/internal/nodespec"
	"crve/internal/stbus"
)

func main() {
	cfg := nodespec.Config{
		Name:    "ports",
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: 3, NumTgt: 2,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.LRU, RespArb: arb.Priority,
		Map: stbus.UniformMap(2, 0x1000, 0x1000),
	}
	test := core.Test{
		Name:    "ports_demo",
		Traffic: catg.TrafficConfig{Ops: 300, UnmappedPct: 3, IdlePct: 5},
		Target:  catg.TargetConfig{MinLatency: 1, MaxLatency: 4, GntGapPct: 10},
	}
	const seed = 21

	type row struct {
		name string
		res  *core.RunResult
		el   time.Duration
	}
	var rows []row
	timeIt := func(name string, run func() (*core.RunResult, error)) {
		start := time.Now()
		res, err := run()
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{name, res, time.Since(start)})
	}
	timeIt("RTL, signal bench", func() (*core.RunResult, error) {
		return core.RunTest(cfg, core.RTLView, test, seed, core.RunOptions{})
	})
	timeIt("BCA wrapped, signal bench", func() (*core.RunResult, error) {
		return core.RunTest(cfg, core.BCAView, test, seed, core.RunOptions{})
	})
	timeIt("BCA ports approach (TLM)", func() (*core.RunResult, error) {
		return core.RunPorts(context.Background(), cfg, test, seed, bca.Bugs{})
	})

	fmt.Printf("%-28s %8s %6s %9s %12s %14s %6s\n",
		"bench", "cycles", "txs", "coverage", "elapsed", "cycles/sec", "pass")
	for _, r := range rows {
		fmt.Printf("%-28s %8d %6d %8.1f%% %12s %14.0f %6v\n",
			r.name, r.res.Cycles, r.res.Transactions, r.res.Coverage.Percent(), r.el.Round(time.Microsecond),
			float64(r.res.Cycles)/r.el.Seconds(), r.res.Passed())
	}
	// Every bench must observe what the RTL bench observes: the same cycles,
	// transactions, violations and scoreboard errors, and the same hits in
	// every coverage bin.
	same := true
	for _, r := range rows[1:] {
		ref, got := rows[0].res, r.res
		eq, why := ref.Coverage.EqualHits(got.Coverage)
		if !eq {
			fmt.Printf("%s: coverage differs from the RTL bench: %s\n", r.name, why)
		}
		same = same && eq && got.Cycles == ref.Cycles && got.Transactions == ref.Transactions &&
			reflect.DeepEqual(got.Violations, ref.Violations) && reflect.DeepEqual(got.ScoreErrors, ref.ScoreErrors)
	}
	fmt.Printf("\nidentical observations across all three benches: %v\n", same)
	fmt.Println("(the ports approach keeps the environment's view of the DUT unchanged while")
	fmt.Println(" shedding the wrapper cost — the paper: direct interfacing \"should enhance")
	fmt.Println(" simulation performance\")")
	if !same {
		os.Exit(1)
	}
}
