package regress

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"crve/internal/core"
)

// WriteReports materialises per-configuration reports and per-run waveform
// artifacts — compact binary recordings (.crw, re-servable as text VCD) when
// Options.RecordWave kept them — the artifacts the paper's tool leaves for
// the analyzer and the engineer.
func WriteReports(dir string, results []*ConfigResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, cr := range results {
		base := filepath.Join(dir, cr.Cfg.Name)
		if err := os.MkdirAll(base, 0o755); err != nil {
			return err
		}
		var report strings.Builder
		fmt.Fprintf(&report, "configuration: %v\n\n", cr.Cfg)
		for _, run := range cr.Runs {
			fmt.Fprintf(&report, "%s\n%s\n", run.Pair.RTL.Summary(), run.Pair.BCA.Summary())
			fmt.Fprintf(&report, "alignment min %.2f%%, coverage equal %v\n\n",
				run.Pair.Alignment.MinRate(), run.Pair.CoverageEqual)
			for view, res := range map[string]*core.RunResult{"rtl": run.Pair.RTL, "bca": run.Pair.BCA} {
				if res.Wave != nil {
					name := fmt.Sprintf("%s_seed%d_%s.crw", run.Test, run.Seed, view)
					if err := os.WriteFile(filepath.Join(base, name), res.Wave.Encode(), 0o644); err != nil {
						return err
					}
				}
			}
		}
		fmt.Fprintf(&report, "suite functional coverage:\n%s\n", cr.SuiteCoverage.Report())
		fmt.Fprintf(&report, "%s\n", cr.CodeCov.Report())
		if err := os.WriteFile(filepath.Join(base, "report.txt"), []byte(report.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
