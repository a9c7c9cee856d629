package regress

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"crve/internal/bca"
	"crve/internal/core"
	"crve/internal/nodespec"
	"crve/internal/testcases"
)

// The golden sign-off corpus pins the paper's verdicts with checked-in
// results: one line per (config, test, seed, bugs) unit, holding the SHA-256
// of the unit's encoded PairRecord (kernel profile off), its minimum port
// alignment, whether functional coverage matched and the sign-off verdict.
// Units run with recordings also carry the SHA-256 of both views' encoded
// waveforms. A changed line is a unit whose result moved, so the corpus is
// rewritten only on request, and the diff is read before it is committed:
//
//	go test ./internal/regress -run TestGoldenSignoff -update
var updateGolden = flag.Bool("update", false, "rewrite "+goldenPath+" from this run")

const goldenPath = "testdata/golden/signoff.txt"

// goldenGroup is one Run over a configuration set: every test at one seed,
// under one bug set. wave keeps both views' recordings, so the group's lines
// also pin the waveforms.
type goldenGroup struct {
	cfgs  []nodespec.Config
	tests []core.Test
	seed  int64
	bugs  bca.Bugs
	wave  bool
}

// equivSeed and equivTest are the unit the two equivalence tests run on
// every configuration.
const equivSeed = 7

func equivTest(t testing.TB) core.Test {
	t.Helper()
	tc, err := testcases.ByName("back_to_back")
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// cutShortTest stops error_paths early. Under the ordering bug it leaves most
// views undrained and stops some pairs' views at different cycles, one of
// them drained and the other not.
func cutShortTest(t testing.TB) core.Test {
	t.Helper()
	tc, err := testcases.ByName("error_paths")
	if err != nil {
		t.Fatal(err)
	}
	tc.MaxCycles = 120
	return tc
}

// equivBugged is the bugged input of TestLevelizedKernelEquivalence, run on
// the first configuration only.
var equivBugged = bca.Bugs{LRUInit: true, PipeOffByOne: true}

// goldenGroups lists the corpus: the sign-off units (every configuration ×
// the twelve tests × seed 1, clean and under each of the five bugs), then
// the units of the two equivalence tests at seed 7.
func goldenGroups(t testing.TB, cfgs []nodespec.Config) []goldenGroup {
	all := append([]bca.Bugs{{}}, bca.AllBugs()...)
	var gs []goldenGroup
	for _, bugs := range all {
		gs = append(gs, goldenGroup{cfgs: cfgs, tests: testcases.All(), seed: 1, bugs: bugs})
	}
	b2b := []core.Test{equivTest(t)}
	for _, bugs := range all {
		gs = append(gs, goldenGroup{cfgs: cfgs, tests: b2b, seed: equivSeed, bugs: bugs, wave: !bugs.Any()})
	}
	gs = append(gs,
		goldenGroup{cfgs: cfgs, tests: []core.Test{cutShortTest(t)}, seed: equivSeed, bugs: bca.Bugs{T2OrderIgnored: true}},
		goldenGroup{cfgs: cfgs[:1], tests: b2b, seed: equivSeed, bugs: equivBugged, wave: true})
	return gs
}

// goldenKey is a unit's key: config, test, seed and bugs. A test cut short
// is named with its cycle limit.
func goldenKey(cfg string, test core.Test, seed int64, bugs bca.Bugs) string {
	name := test.Name
	if test.MaxCycles != 0 {
		name += "@" + strconv.Itoa(test.MaxCycles)
	}
	b := "clean"
	if bugs.Any() {
		b = strings.Join(bugs.List(), "+")
	}
	return fmt.Sprintf("%s %s %d %s", cfg, name, seed, b)
}

// goldenLine renders one unit's corpus line.
func goldenLine(key string, pr *core.PairResult, wave bool) string {
	line := fmt.Sprintf("%s %x %s %v %s", key, sha256.Sum256(encodeRecord(pr)),
		strconv.FormatFloat(pr.Alignment.MinRate(), 'g', -1, 64), pr.CoverageEqual, passStr(pr.SignedOff()))
	if wave {
		line += fmt.Sprintf(" %x %x", sha256.Sum256(pr.RTL.Wave.Encode()), sha256.Sum256(pr.BCA.Wave.Encode()))
	}
	return line
}

// runGolden simulates every group through Run and returns the lines in
// corpus order.
func runGolden(t *testing.T, groups []goldenGroup) []string {
	t.Helper()
	var lines []string
	for _, g := range groups {
		results, _, err := Run(g.cfgs, Options{
			Tests: g.tests, Seeds: []int64{g.seed}, Bugs: g.bugs, RecordWave: g.wave, NoLint: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, cr := range results {
			for i, run := range cr.Runs {
				key := goldenKey(cr.Cfg.Name, g.tests[i], run.Seed, g.bugs)
				lines = append(lines, goldenLine(key, run.Pair, g.wave))
			}
		}
	}
	return lines
}

// goldenCorpus is the parsed corpus: lines by key, and keys in file order.
type goldenCorpus struct {
	lines map[string]string
	keys  []string
}

// lineKey returns the first four fields of a corpus line.
func lineKey(line string) string {
	f := strings.Fields(line)
	if len(f) < 4 {
		return line
	}
	return strings.Join(f[:4], " ")
}

func loadGolden(t testing.TB) goldenCorpus {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	defer f.Close()
	gc := goldenCorpus{lines: map[string]string{}}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key := lineKey(line)
		if _, dup := gc.lines[key]; dup {
			t.Fatalf("%s: duplicate unit %q", goldenPath, key)
		}
		gc.lines[key] = line
		gc.keys = append(gc.keys, key)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return gc
}

func writeGolden(t *testing.T, lines []string) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("# Golden sign-off corpus. Regenerate only with\n")
	sb.WriteString("#   go test ./internal/regress -run TestGoldenSignoff -update\n")
	sb.WriteString("# and read the diff. Fields: config test seed bugs record-sha256 min-align\n")
	sb.WriteString("# coverage-equal signoff [rtl-wave-sha256 bca-wave-sha256]\n")
	for _, l := range lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// diff compares one simulated line with its corpus line and returns a
// description of the difference, or "" when they agree.
func (gc goldenCorpus) diff(line string) string {
	key := lineKey(line)
	want, ok := gc.lines[key]
	switch {
	case !ok:
		return fmt.Sprintf("%s: not in the corpus\n  got  %s", key, line)
	case want != line:
		return fmt.Sprintf("%s: moved\n  got  %s\n  want %s", key, line, want)
	}
	return ""
}

// TestGoldenSignoff simulates every corpus unit through Run and requires each
// line to match the checked-in corpus, then asserts the paper's verdicts over
// the corpus. Under -short it simulates only the first six configurations'
// units. It runs in parallel, after the package's quick sequential tests.
func TestGoldenSignoff(t *testing.T) {
	t.Parallel()
	cfgs := StandardMatrix()
	if testing.Short() {
		if *updateGolden {
			t.Fatal("-update rewrites the whole corpus; run it without -short")
		}
		cfgs = cfgs[:6]
	}
	lines := runGolden(t, goldenGroups(t, cfgs))
	if *updateGolden {
		writeGolden(t, lines)
	}
	gc := loadGolden(t)

	var moved []string
	seen := make(map[string]bool, len(lines))
	for _, line := range lines {
		seen[lineKey(line)] = true
		if d := gc.diff(line); d != "" {
			moved = append(moved, d)
		}
	}
	if !testing.Short() {
		for _, key := range gc.keys {
			if !seen[key] {
				moved = append(moved, fmt.Sprintf("%s: in the corpus but not simulated", key))
			}
		}
	}
	if len(moved) > 0 {
		t.Errorf("%d of %d units differ from %s:\n%s", len(moved), len(lines), goldenPath, strings.Join(moved, "\n"))
	}
	checkPaperVerdicts(t, gc)
}

// goldenRow is a corpus line's fields that the verdict checks read.
type goldenRow struct {
	cfg, test, bugs string
	seed            int64
	minAlign        float64
	covEqual        bool
	signedOff       bool
}

func parseGoldenRow(t *testing.T, line string) goldenRow {
	t.Helper()
	f := strings.Fields(line)
	if len(f) != 8 && len(f) != 10 {
		t.Fatalf("malformed corpus line %q", line)
	}
	seed, err1 := strconv.ParseInt(f[2], 10, 64)
	align, err2 := strconv.ParseFloat(f[5], 64)
	if err1 != nil || err2 != nil || (f[6] != "true" && f[6] != "false") || (f[7] != "pass" && f[7] != "FAIL") {
		t.Fatalf("malformed corpus line %q", line)
	}
	return goldenRow{cfg: f[0], test: f[1], seed: seed, bugs: f[3],
		minAlign: align, covEqual: f[6] == "true", signedOff: f[7] == "pass"}
}

// e4Tests names, per bug, the suite test experiments.E4Alignment compares
// it under.
var e4Tests = map[string]string{
	"lru-init":          "hot_target",
	"chunk-lck-ignored": "chunked",
	"pipe-off-by-one":   "back_to_back",
	"err-resp-tid-zero": "error_paths",
	"t2-order-ignored":  "random_mixed",
}

// checkPaperVerdicts asserts E1–E4 over the whole corpus.
func checkPaperVerdicts(t *testing.T, gc goldenCorpus) {
	rows := make(map[string]goldenRow, len(gc.keys))
	for _, key := range gc.keys {
		r := parseGoldenRow(t, gc.lines[key])
		rows[key] = r
		if r.bugs != "clean" {
			continue
		}
		// E3: bin-exact coverage equality; E4: clean views align fully.
		if !r.covEqual {
			t.Errorf("E3: %s: coverage differs between the views", key)
		}
		if r.minAlign != 100 {
			t.Errorf("E4: %s: clean pair aligned at %v %%, want 100", key, r.minAlign)
		}
	}
	// E1: every configuration signs off on all twelve tests.
	for _, cfg := range StandardMatrix() {
		for _, tc := range testcases.All() {
			key := goldenKey(cfg.Name, tc, 1, bca.Bugs{})
			if r, ok := rows[key]; !ok || !r.signedOff {
				t.Errorf("E1: %s: clean unit missing or not signed off", key)
			}
		}
	}
	// E2: each bug fails sign-off on at least one configuration; E4: each
	// bug aligns below 99 % on its E4 test for at least one configuration.
	for _, name := range bca.BugNames() {
		failed, low := map[string]bool{}, 0
		for _, r := range rows {
			if r.bugs != name || r.seed != 1 {
				continue
			}
			if !r.signedOff {
				failed[r.cfg] = true
			}
			if r.test == e4Tests[name] && r.minAlign < 99 {
				low++
			}
		}
		if len(failed) == 0 {
			t.Errorf("E2: bug %s fails sign-off on no configuration", name)
		}
		if low == 0 {
			t.Errorf("E4: bug %s aligns at 99 %% or more on %s in every configuration", name, e4Tests[name])
		}
		t.Logf("%s: fails sign-off on %d configurations, below 99 %% on %s on %d", name, len(failed), e4Tests[name], low)
	}
}
