package core_test

import (
	"bytes"
	"testing"

	"crve/internal/bca"
	"crve/internal/core"
	"crve/internal/nodespec"
	"crve/internal/regress"
	"crve/internal/testcases"
)

// checkForcedSplit runs one pair as sign-off runs it, then again split at
// its first, middle and last round and at each of extra (modulo the pair's
// round count), and fails unless every forced run encodes to the unforced
// record: until the views differ, a pair's BCA half replays the RTL view's
// stimulus and is judged from the RTL view's samples, and a split is to
// change nothing.
func checkForcedSplit(t *testing.T, cfg nodespec.Config, test core.Test, seed int64, bugs bca.Bugs, extra ...int) {
	t.Helper()
	want, pair := runRecord(t, cfg, test, seed, bugs)
	n := int(max(pair.RTL.Cycles, pair.BCA.Cycles))
	rounds := []int{0, n / 2, n - 1}
	for _, round := range extra {
		rounds = append(rounds, round%(n+1))
	}
	for _, round := range rounds {
		restore := core.ForceSplit(round)
		got, _ := runRecord(t, cfg, test, seed, bugs)
		restore()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s/%s seed %d bugs %v: split at round %d of %d changes the pair's record",
				cfg.Name, test.Name, seed, bugs.List(), round, n)
		}
	}
}

// runRecord runs one pair and returns its encoded record.
func runRecord(t *testing.T, cfg nodespec.Config, test core.Test, seed int64, bugs bca.Bugs) ([]byte, *core.PairResult) {
	t.Helper()
	pair, err := core.RunPair(cfg, test, seed, bugs)
	if err != nil {
		t.Fatal(err)
	}
	return encodeRecord(pair.Record()), pair
}

// TestForcedSplitMatchesNatural splits every pair of the quick matrix × the
// twelve tests at seed 1, clean and under each of the five bugs, at its
// first, middle and last round.
func TestForcedSplitMatchesNatural(t *testing.T) {
	for _, bugs := range append([]bca.Bugs{{}}, bca.AllBugs()...) {
		for _, cfg := range regress.StandardMatrix()[:6] {
			for _, test := range testcases.All() {
				checkForcedSplit(t, cfg, test, 1, bugs)
			}
		}
	}
}

// bugsOf selects the bugs of bca.AllBugs whose bits are set in mask.
func bugsOf(mask uint8) bca.Bugs {
	var b bca.Bugs
	for i, one := range bca.AllBugs() {
		if mask&(1<<i) != 0 {
			b.LRUInit = b.LRUInit || one.LRUInit
			b.ChunkLckIgnored = b.ChunkLckIgnored || one.ChunkLckIgnored
			b.PipeOffByOne = b.PipeOffByOne || one.PipeOffByOne
			b.ErrRespTIDZero = b.ErrRespTIDZero || one.ErrRespTIDZero
			b.T2OrderIgnored = b.T2OrderIgnored || one.T2OrderIgnored
		}
	}
	return b
}

// FuzzForcedSplit decodes a quick-matrix configuration, a test, a seed, a
// set of bugs and a split round, and requires a split there, and at the
// first, middle and last round, to change nothing.
func FuzzForcedSplit(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1), uint8(0), uint16(0))
	f.Add(uint8(2), uint8(3), int64(7), uint8(1), uint16(40))
	f.Add(uint8(5), uint8(11), int64(-3), uint8(0x1f), uint16(500))
	cfgs := regress.StandardMatrix()[:6]
	tests := testcases.All()
	f.Fuzz(func(t *testing.T, cfgIdx, testIdx uint8, seed int64, mask uint8, round uint16) {
		checkForcedSplit(t, cfgs[int(cfgIdx)%len(cfgs)], tests[int(testIdx)%len(tests)], seed, bugsOf(mask), int(round))
	})
}
