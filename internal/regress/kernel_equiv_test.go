package regress

import (
	"context"
	"testing"

	"crve/internal/bca"
	"crve/internal/core"
	"crve/internal/nodespec"
)

// TestLevelizedKernelEquivalence pins the kernel's waveforms across the whole
// standard matrix: for every configuration, the back_to_back pair at seed 7
// must reproduce its golden corpus line — the digests of its encoded
// PairRecord and of both views' encoded recordings, its alignment, coverage
// equality and verdict. One more input seeds two BCA bugs, so the misaligned
// waveforms a bug produces are pinned too, and the bug-detection experiment
// cannot depend on a kernel change. The paper's alignment methodology leans
// entirely on "same tests, same seeds, same waveforms"; a kernel that changed
// waveforms would silently invalidate every signed-off result.
func TestLevelizedKernelEquivalence(t *testing.T) {
	cfgs := StandardMatrix()
	if testing.Short() {
		cfgs = cfgs[:6]
	}
	tc := equivTest(t)
	gc := loadGolden(t)

	type input struct {
		name string
		cfg  nodespec.Config
		bugs bca.Bugs
	}
	var inputs []input
	for _, cfg := range cfgs {
		inputs = append(inputs, input{cfg.Name, cfg, bca.Bugs{}})
	}
	inputs = append(inputs, input{cfgs[0].Name + "_bugged", cfgs[0], equivBugged})

	for _, in := range inputs {
		in := in
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			pr, err := core.RunPairCtx(context.Background(), in.cfg, tc, equivSeed, core.RunOptions{RecordWave: true, Bugs: in.bugs})
			if err != nil {
				t.Fatal(err)
			}
			if d := gc.diff(goldenLine(goldenKey(in.cfg.Name, tc, equivSeed, in.bugs), pr, true)); d != "" {
				t.Error(d)
			}
		})
	}
}
