// Command experiments regenerates the paper's evaluation (see DESIGN.md §4
// and EXPERIMENTS.md): each experiment prints the table or narrative the
// paper's flow reports.
//
// Usage:
//
//	experiments -exp e1           # regression matrix (add -quick for a slice)
//	experiments -exp e2           # bug detection: past flow vs common flow
//	experiments -exp e3           # coverage equality between views
//	experiments -exp e4           # per-port alignment rates
//	experiments -exp e5           # simulation throughput
//	experiments -exp e6           # code coverage (RTL only)
//	experiments -exp e7           # future work: ports approach (TLM bench)
//	experiments -exp a1           # ablation: shared bus vs crossbar performance
//	experiments -exp a2           # ablation: pipe-size sweep
//	experiments -exp m1           # motivation: fast BCA design-space exploration
//	experiments -exp flow         # Figures 4/5 step-by-step narrative
//	experiments -exp all -quick   # everything
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"crve/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment: e1..e7, a1, a2, m1, flow, or all")
		quick = flag.Bool("quick", false, "e1: run a 6-configuration slice instead of the full matrix")
	)
	flag.Parse()
	if err := run(os.Stdout, *exp, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, quick bool) error {
	runOne := func(name string) error {
		switch name {
		case "e1":
			return experiments.E1RegressionMatrix(w, quick)
		case "e2":
			return experiments.E2BugDetection(w)
		case "e3":
			return experiments.E3CoverageEquality(w)
		case "e4":
			return experiments.E4Alignment(w)
		case "e5":
			_, err := experiments.E5Speed(w)
			return err
		case "e6":
			return experiments.E6CodeCoverage(w)
		case "e7":
			return experiments.E7PortsApproach(w)
		case "a1":
			return experiments.AblationArch(w)
		case "a2":
			return experiments.AblationPipe(w)
		case "m1":
			return experiments.Exploration(w)
		case "flow":
			return experiments.Flow(w)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}
	if exp != "all" {
		return runOne(exp)
	}
	for _, name := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "a1", "a2", "m1", "flow"} {
		if err := runOne(name); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
