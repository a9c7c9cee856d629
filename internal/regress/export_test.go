package regress

import (
	"context"

	"crve/internal/core"
	"crve/internal/nodespec"
)

// SwapRunPair makes f simulate every unit until the returned function
// restores the engine's own simulation. The budget tests of package
// regress_test, which drive jobs.Manager, watch and stall simulations
// through it.
func SwapRunPair(f func(context.Context, nodespec.Config, core.Test, int64, core.RunOptions) (*core.PairResult, error)) (restore func()) {
	old := runPair
	runPair = f
	return func() { runPair = old }
}
