package regress

// This file defines the canonical JSON encoding of a regression run — the
// one report shape both the CLI (cmd/regress -json) and the service
// (GET /api/v1/jobs/{id}/report) emit, byte for byte. Everything in it is
// deterministic: wall-clock duration lives in Stats (and the service's job
// status), never here, so the same matrix always serializes to the same
// bytes regardless of scheduling, parallelism or cache temperature — only
// the ran/cached split reflects the cache, as it must.

import (
	"encoding/json"
	"io"

	"crve/internal/coverage"
)

// ReportSchema names the canonical report layout. Bump it when the shape
// changes so consumers can gate on it.
const ReportSchema = "crve-regress-report-v1"

// RunReport is the canonical form of one (test, seed) pair run.
type RunReport struct {
	Test   string `json:"test"`
	Seed   int64  `json:"seed"`
	Cached bool   `json:"cached"`
	// Cycles sums both views' simulated cycles (cached units report their
	// recorded cost).
	Cycles        uint64  `json:"cycles"`
	Transactions  int     `json:"transactions"`
	RTLPass       bool    `json:"rtl_pass"`
	BCAPass       bool    `json:"bca_pass"`
	CoverageEqual bool    `json:"coverage_equal"`
	MinAlignment  float64 `json:"min_alignment"`
}

// ConfigReport is the canonical form of one configuration's suite aggregate.
type ConfigReport struct {
	Name string `json:"name"`
	// Params is the canonical parameter-file text (FormatConfig) — the
	// config by value, so a report is self-describing and diffable.
	Params         string      `json:"params"`
	Runs           []RunReport `json:"runs"`
	RTLFailures    int         `json:"rtl_failures"`
	BCAFailures    int         `json:"bca_failures"`
	CoverageEqual  bool        `json:"coverage_equal"`
	FuncCovPercent float64     `json:"func_cov_percent"`
	LineCovPercent float64     `json:"line_cov_percent"`
	MinAlignment   float64     `json:"min_alignment"`
	SignedOff      bool        `json:"signed_off"`
	// Holes lists the unhit functional-coverage bins, in declaration order.
	Holes []string `json:"holes,omitempty"`
}

// UnitTotals is the deterministic slice of Stats: how the run's work units
// were satisfied and what they cost in simulated cycles.
type UnitTotals struct {
	Ran    int    `json:"ran"`
	Cached int    `json:"cached"`
	Cycles uint64 `json:"cycles"`
}

// Report is the canonical JSON report of a whole matrix run.
type Report struct {
	Schema    string         `json:"schema"`
	Configs   []ConfigReport `json:"configs"`
	SignedOff int            `json:"signed_off"`
	Total     int            `json:"total"`
	Units     UnitTotals     `json:"units"`
}

// BuildReport assembles the canonical report from the engine's results and
// statistics.
func BuildReport(results []*ConfigResult, stats Stats) *Report {
	rep := &Report{
		Schema: ReportSchema,
		Total:  len(results),
		Units:  UnitTotals{Ran: stats.Ran, Cached: stats.Cached, Cycles: stats.Cycles},
	}
	if len(results) > 0 {
		rep.Configs = make([]ConfigReport, 0, len(results))
	}
	for _, cr := range results {
		crep := ConfigReport{
			Name:           cr.Cfg.Name,
			Params:         FormatConfig(cr.Cfg),
			RTLFailures:    cr.RTLFailures,
			BCAFailures:    cr.BCAFailures,
			CoverageEqual:  cr.CoverageAllEqual,
			FuncCovPercent: cr.SuiteCoverage.Percent(),
			LineCovPercent: cr.CodeCov.Percent(coverage.LinePoint),
			MinAlignment:   cr.MinAlignment,
			SignedOff:      cr.SignedOff(),
		}
		if len(cr.Runs) > 0 {
			crep.Runs = make([]RunReport, 0, len(cr.Runs))
		}
		for _, h := range cr.SuiteCoverage.Holes() {
			crep.Holes = append(crep.Holes, h.String())
		}
		for _, run := range cr.Runs {
			crep.Runs = append(crep.Runs, RunReport{
				Test:          run.Test,
				Seed:          run.Seed,
				Cached:        run.Cached,
				Cycles:        run.Pair.RTL.Cycles + run.Pair.BCA.Cycles,
				Transactions:  run.Pair.RTL.Transactions,
				RTLPass:       run.Pair.RTL.Passed(),
				BCAPass:       run.Pair.BCA.Passed(),
				CoverageEqual: run.Pair.CoverageEqual,
				MinAlignment:  run.Pair.Alignment.MinRate(),
			})
		}
		if crep.SignedOff {
			rep.SignedOff++
		}
		rep.Configs = append(rep.Configs, crep)
	}
	return rep
}

// WriteJSON writes v in the canonical encoding (two-space indent, trailing
// newline). Every JSON surface of the flow — CLI and HTTP — goes through
// this one function, which is what makes their outputs diffable.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
