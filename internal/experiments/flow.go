package experiments

import (
	"fmt"
	"io"

	"crve/internal/arb"
	"crve/internal/bca"
	"crve/internal/core"
	"crve/internal/nodespec"
	"crve/internal/testcases"
)

// Flow walks the complete common verification flow of the paper's Figures 4
// and 5 on the reference configuration, narrating each step, including the
// two loop-backs: "low alignment rate" sends the BCA model back for fixing,
// and sign-off requires full coverage first.
func Flow(w io.Writer) error {
	cfg := RefConfig()
	tc, err := testcases.ByName("random_mixed")
	if err != nil {
		return err
	}
	say := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }

	say("F4/F5: common verification flow, step by step")
	say("[1] functional specification signed off       -> NODE-SPEC.md (stable)")
	say("[2] verification implementation               -> CATG bench for %v", cfg)
	say("[3] RTL model verification")
	rtlRes, err := core.RunTest(cfg, core.RTLView, tc, 1, core.RunOptions{})
	if err != nil {
		return err
	}
	say("    %s", rtlRes.Summary())
	if !rtlRes.Passed() {
		return fmt.Errorf("flow: RTL model did not pass")
	}
	say("[4] BCA model verification — first drop has a model bug (lru-init)")
	buggy, err := core.RunPair(cfg2LRU(cfg), tc, 1, bca.Bugs{LRUInit: true})
	if err != nil {
		return err
	}
	say("    BCA: %s", buggy.BCA.Summary())
	say("    bus-accurate comparison: min alignment %.2f%% -> %s", buggy.Alignment.MinRate(),
		loopback(buggy.Alignment.AllPass()))
	say("[5] model fixed, rerun with the same tests and seeds")
	clean, err := core.RunPair(cfg2LRU(cfg), tc, 1, bca.Bugs{})
	if err != nil {
		return err
	}
	say("    BCA: %s", clean.BCA.Summary())
	say("    functional coverage equal: %v", clean.CoverageEqual)
	say("[6] compare VCD results (full functional coverage reached)")
	say("%s", clean.Alignment)
	say("[7] sign-off: %v (both pass, coverage equal, every port >= 99%%)", clean.SignedOff())
	if !clean.SignedOff() {
		return fmt.Errorf("flow: clean pair failed sign-off")
	}
	return nil
}

// cfg2LRU switches the reference config to the LRU arbiter (the policy the
// first seeded bug lives in) without a programming port.
func cfg2LRU(cfg nodespec.Config) nodespec.Config {
	cfg.ReqArb = arb.LRU
	cfg.ProgPort = false
	return cfg
}

func loopback(pass bool) string {
	if pass {
		return "proceed"
	}
	return "LOW ALIGNMENT RATE: back to BCA model fixing (Figure 4 loop)"
}
