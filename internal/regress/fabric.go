package regress

import (
	"crve/internal/fabric"
	"crve/internal/lint"
)

// LintSet is the lint gate of a whole request: the rule set over srcs and
// seeds, plus each topology file in fabrics checked as a whole fabric
// (CRVE018–CRVE023, and the lint of every configuration it references), in
// one sorted report. Only an I/O failure on a topology file is an error.
// crvelint prints the report; closure.Request.Resolve refuses on its errors.
func LintSet(srcs []lint.Source, seeds []int64, fabrics []string) (*lint.Report, error) {
	rep := lint.CheckSet(srcs, seeds)
	for _, path := range fabrics {
		frep, err := fabric.CheckFile(path, loadSource)
		if err != nil {
			return nil, err
		}
		rep.Diags = append(rep.Diags, frep.Diags...)
	}
	rep.Sort()
	return rep, nil
}
