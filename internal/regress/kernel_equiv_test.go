package regress

import (
	"bytes"
	"encoding/json"
	"testing"

	"crve/internal/bca"
	"crve/internal/core"
	"crve/internal/nodespec"
	"crve/internal/sim"
	"crve/internal/testcases"
)

// TestLevelizedKernelEquivalence is the determinism property the levelized
// scheduler must uphold across the whole standard matrix: for every
// configuration, running the same (test, seed) pair with the levelized
// scheduler and with the legacy delta loop produces byte-identical VCD
// dumps, functional-coverage groups and alignment reports on both views.
// One more input seeds two BCA bugs, so the kernels must also agree on the
// misaligned waveforms a bug produces, or the bug-detection experiment would
// depend on which kernel ran it. The paper's alignment methodology leans
// entirely on "same tests, same seeds, same waveforms"; a kernel that
// changed waveforms would silently invalidate every signed-off result.
func TestLevelizedKernelEquivalence(t *testing.T) {
	cfgs := StandardMatrix()
	if testing.Short() {
		cfgs = cfgs[:6]
	}
	tc, err := testcases.ByName("back_to_back")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7

	// Text VCD is now an opt-in artifact; the byte-equality check here still
	// wants the dumps, so request them explicitly.
	type input struct {
		name string
		cfg  nodespec.Config
		opt  core.RunOptions
	}
	var inputs []input
	for _, cfg := range cfgs {
		inputs = append(inputs, input{cfg.Name, cfg, core.RunOptions{DumpVCD: true}})
	}
	inputs = append(inputs, input{cfgs[0].Name + "_bugged", cfgs[0],
		core.RunOptions{DumpVCD: true, Bugs: bca.Bugs{LRUInit: true, PipeOffByOne: true}}})

	// ForceDeltaLoop is a package-level elaboration toggle, so the legacy
	// runs execute serially with the global set and restored around them.
	for _, in := range inputs {
		cfg, opt := in.cfg, in.opt
		t.Run(in.name, func(t *testing.T) {
			lvl, err := core.RunPairOpt(cfg, tc, seed, opt)
			if err != nil {
				t.Fatal(err)
			}
			sim.ForceDeltaLoop = true
			leg, err := core.RunPairOpt(cfg, tc, seed, opt)
			sim.ForceDeltaLoop = false
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lvl.RTL.VCD, leg.RTL.VCD) {
				t.Error("RTL VCD dumps differ between levelized and legacy kernels")
			}
			if !bytes.Equal(lvl.BCA.VCD, leg.BCA.VCD) {
				t.Error("BCA VCD dumps differ between levelized and legacy kernels")
			}
			for _, cmp := range []struct {
				name string
				a, b interface{}
			}{
				{"RTL coverage", lvl.RTL.Coverage, leg.RTL.Coverage},
				{"BCA coverage", lvl.BCA.Coverage, leg.BCA.Coverage},
				{"RTL code coverage", lvl.RTL.CodeCov, leg.RTL.CodeCov},
				{"alignment report", lvl.Alignment, leg.Alignment},
			} {
				aj, err := json.Marshal(cmp.a)
				if err != nil {
					t.Fatal(err)
				}
				bj, err := json.Marshal(cmp.b)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(aj, bj) {
					t.Errorf("%s differs between levelized and legacy kernels", cmp.name)
				}
			}
		})
	}
}
