package experiments

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"time"

	"crve/internal/arb"
	"crve/internal/bca"
	"crve/internal/core"
	"crve/internal/testcases"
)

// E7PortsApproach regenerates the paper's future-work claim (Section 6): a
// CATG with "ports approach" support plugs the model directly into the
// verification environment, which "should enhance simulation performance" —
// without changing what the environment observes. The experiment verifies
// both halves: the ports bench (core.RunPorts) reports results identical to
// the wrapped signal-level bench (same cycles, transactions, violations and
// scoreboard errors, bin-identical coverage), and it does so faster.
func E7PortsApproach(w io.Writer) error {
	cfg := RefConfig()
	cfg.ReqArb = arb.LRU
	cfg.ProgPort = false
	tc, err := testcases.ByName("back_to_back")
	if err != nil {
		return err
	}
	tc.Traffic.Ops = 300
	seed := int64(7)

	fmt.Fprintf(w, "E7 (future work): ports approach — direct model integration\n")

	startW := time.Now()
	wrapped, err := core.RunTest(cfg, core.BCAView, tc, seed, core.RunOptions{})
	if err != nil {
		return err
	}
	elW := time.Since(startW)

	startP := time.Now()
	ports, err := core.RunPorts(context.Background(), cfg, tc, seed, bca.Bugs{})
	if err != nil {
		return err
	}
	elP := time.Since(startP)

	eq, why := wrapped.Coverage.EqualHits(ports.Coverage)
	sameTxs := wrapped.Transactions == ports.Transactions
	sameViolations := reflect.DeepEqual(wrapped.Violations, ports.Violations)
	sameErrors := reflect.DeepEqual(wrapped.ScoreErrors, ports.ScoreErrors)
	fmt.Fprintf(w, "%-32s %10s %12s %14s %6s %8s\n", "bench", "cycles", "elapsed", "cycles/sec", "txs", "passed")
	fmt.Fprintf(w, "%-32s %10d %12s %14.0f %6d %8v\n", "BCA wrapped (signal bench)", wrapped.Cycles,
		elW.Round(time.Microsecond), float64(wrapped.Cycles)/elW.Seconds(), wrapped.Transactions, wrapped.Passed())
	fmt.Fprintf(w, "%-32s %10d %12s %14.0f %6d %8v\n", "BCA ports approach (TLM bench)", ports.Cycles,
		elP.Round(time.Microsecond), float64(ports.Cycles)/elP.Seconds(), ports.Transactions, ports.Passed())
	fmt.Fprintf(w, "identical results: transactions %v, coverage bins %v, violations %v, score errors %v",
		sameTxs, eq, sameViolations, sameErrors)
	if !eq {
		fmt.Fprintf(w, " (%s)", why)
	}
	fmt.Fprintln(w)
	speedup := (float64(ports.Cycles) / elP.Seconds()) / (float64(wrapped.Cycles) / elW.Seconds())
	fmt.Fprintf(w, "ports-approach speedup over the wrapped bench: %.1fx\n", speedup)
	fmt.Fprintf(w, "paper claim: direct interfacing \"should enhance simulation performance\"\n")
	if !eq || !sameTxs || !sameViolations || !sameErrors {
		return fmt.Errorf("experiments: ports approach diverged from the wrapped bench")
	}
	return nil
}
