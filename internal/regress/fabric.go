package regress

import (
	"crve/internal/fabric"
	"crve/internal/lint"
)

// CheckFabric elaborates and checks one topology file: the whole-fabric
// rules (CRVE018–CRVE023) plus the per-config lint of every referenced
// configuration, resolving node configs through the regress parameter-file
// loader (node directives reference the same *.cfg format the regression
// matrix loads). Only I/O failures on the topology file itself are errors.
func CheckFabric(path string) (*lint.Report, error) {
	return fabric.CheckFile(path, loadSource)
}
