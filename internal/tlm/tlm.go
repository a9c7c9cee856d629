// Package tlm keeps the old entry to the paper's "ports approach" bench
// (Section 6) for callers that still compile against it. The bench itself
// runs in internal/core, by the loop that runs the signal views:
// core.RunPorts.
package tlm

import (
	"context"

	"crve/internal/bca"
	"crve/internal/catg"
	"crve/internal/core"
	"crve/internal/nodespec"
)

// Result is the report of a ports-approach run.
//
// Deprecated: use core.RunResult.
type Result = core.RunResult

// RunTest runs the ports-approach bench on a test whose every initiator
// takes traffic and every target takes target.
//
// Deprecated: call core.RunPorts, which takes the whole core.Test and a
// context.
func RunTest(cfg nodespec.Config, traffic catg.TrafficConfig, target catg.TargetConfig, seed int64, bugs bca.Bugs) (*Result, error) {
	return core.RunPorts(context.Background(), cfg, core.Test{Traffic: traffic, Target: target}, seed, bugs)
}
