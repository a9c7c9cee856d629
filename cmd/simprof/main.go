// Command simprof profiles the simulation kernel on a single (configuration,
// test, seed, view) run: it executes the run with kernel profiling enabled
// and prints the schedule shape (levelized ranks, SCC inventory), the
// deltas/cycle convergence metric, the settle-depth histogram, and the top-N
// processes ranked by sampled wall time (falling back to evaluation count) —
// the data that says where simulation time goes before reaching for a CPU
// profiler.
//
// Usage:
//
//	simprof -matrix-index 0 -test back_to_back -seed 7        # matrix config
//	simprof -config node.cfg -test priority_pressure -view bca  # config file
//	simprof -matrix-index 4 -test back_to_back -top 20 -json  # full JSON dump
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"crve/internal/core"
	"crve/internal/nodespec"
	"crve/internal/regress"
	"crve/internal/testcases"
)

func main() {
	var (
		configFile  = flag.String("config", "", "node configuration file (.cfg)")
		matrixIndex = flag.Int("matrix-index", -1, "index into the standard configuration matrix")
		testName    = flag.String("test", "back_to_back", "test case name (see -list)")
		seed        = flag.Int64("seed", 1, "test seed")
		view        = flag.String("view", "rtl", "design view: rtl or bca")
		top         = flag.Int("top", 10, "number of hottest processes to print")
		jsonOut     = flag.Bool("json", false, "emit the full profile as JSON")
		list        = flag.Bool("list", false, "list test case names and matrix configurations, then exit")
	)
	flag.Parse()
	if err := run(*configFile, *matrixIndex, *testName, *seed, *view, *top, *jsonOut, *list); err != nil {
		fmt.Fprintln(os.Stderr, "simprof:", err)
		os.Exit(1)
	}
}

func run(configFile string, matrixIndex int, testName string, seed int64, view string, top int, jsonOut, list bool) error {
	if list {
		fmt.Println("tests:", strings.Join(testcases.Names(), ", "))
		fmt.Println("matrix:")
		for i, cfg := range regress.StandardMatrix() {
			fmt.Printf("  %2d  %s (%v)\n", i, cfg.Name, cfg)
		}
		return nil
	}

	var cfg nodespec.Config
	switch {
	case configFile != "":
		cfgs, err := regress.LoadConfigs(configFile)
		if err != nil {
			return err
		}
		if len(cfgs) != 1 {
			return fmt.Errorf("-config %s holds %d configurations, want one", configFile, len(cfgs))
		}
		cfg = cfgs[0]
	case matrixIndex >= 0:
		matrix := regress.StandardMatrix()
		if matrixIndex >= len(matrix) {
			return fmt.Errorf("matrix index %d out of range 0..%d", matrixIndex, len(matrix)-1)
		}
		cfg = matrix[matrixIndex]
	default:
		return fmt.Errorf("pass -config FILE or -matrix-index N (see -h, -list)")
	}

	tc, err := testcases.ByName(testName)
	if err != nil {
		return err
	}
	v := core.RTLView
	switch strings.ToLower(view) {
	case "rtl":
	case "bca":
		v = core.BCAView
	default:
		return fmt.Errorf("bad view %q: want rtl or bca", view)
	}

	res, err := core.RunTest(cfg, v, tc, seed, core.RunOptions{KernelStats: true})
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res.Kernel)
	}
	fmt.Printf("%s %v %s seed=%d: %d cycles, %d transactions, %s\n",
		cfg.Name, v, tc.Name, seed, res.Cycles, res.Transactions, passStr(res.Passed()))
	res.Kernel.Text(os.Stdout, top)
	return nil
}

func passStr(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}
