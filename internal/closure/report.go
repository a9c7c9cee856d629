package closure

// Rendering of closure trajectories. Everything here is a pure function of
// the core.ClosureTrajectory record, so a report re-rendered from saved JSON
// is byte-identical to the one printed live — and the -j1/-jN determinism
// property can be asserted on the rendered bytes.

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

import "crve/internal/core"

// Summary returns the one-line outcome of a closure run, e.g.
//
//	converged full in 2 iteration(s): 100.0% functional coverage (118/118 bins), 10234 cycles, 7 unit(s) (0 cached, 0 failed)
func Summary(t *core.ClosureTrajectory) string {
	verdict := "converged " + t.Reason
	if !t.Converged {
		verdict = "stopped (" + t.Reason + ")"
	}
	units := t.UnitsRun + t.UnitsCached
	return fmt.Sprintf("%s in %d iteration(s): %.1f%% functional coverage (%d/%d bins), %d cycles, %d unit(s) (%d cached, %d failed)",
		verdict, len(t.Iterations), t.FinalPercent, t.TotalBins-t.HolesEnd, t.TotalBins,
		t.TotalCycles, units, t.UnitsCached, t.Failures)
}

// Text renders the full per-iteration closure report.
func Text(w io.Writer, t *core.ClosureTrajectory) {
	fmt.Fprintf(w, "closure %s: group %s, %d/%d bins after base suite (%.1f%%), %d hole(s)",
		t.Config, t.Group, t.TotalBins-t.HolesStart, t.TotalBins, t.StartPercent, t.HolesStart)
	if len(t.DeadBins) > 0 {
		fmt.Fprintf(w, " (%d statically unreachable: %s)", len(t.DeadBins), strings.Join(t.DeadBins, ", "))
	}
	fmt.Fprintln(w)
	for _, it := range t.Iterations {
		fmt.Fprintf(w, "  iter %d: %d hole(s), %d unit(s), %d cycles, %d cached -> closed %d, %d remaining\n",
			it.Iter, it.HolesBefore, len(it.Units), it.Cycles, it.CacheHits, it.NewBins, it.HolesAfter)
		for _, u := range it.Units {
			status := "pass"
			if !u.Passed {
				status = "FAIL"
			}
			suffix := ""
			if u.Cached {
				suffix = "  (cached)"
			}
			fmt.Fprintf(w, "    %-40s seed=%-8d new=%-3d cycles=%-6d %s  holes=[%s]%s\n",
				u.Test, u.Seed, u.NewBins, u.Cycles, status, strings.Join(u.Holes, " "), suffix)
		}
	}
	fmt.Fprintf(w, "closure %s: %s\n", t.Config, Summary(t))
}

// JSON renders the trajectory as indented JSON.
func JSON(w io.Writer, t *core.ClosureTrajectory) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}
