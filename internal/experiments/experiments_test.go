package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestE2BugDetectionFinds5Misses0(t *testing.T) {
	var buf bytes.Buffer
	if err := E2BugDetection(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "past flow found 0/5") {
		t.Errorf("past flow should find 0/5:\n%s", out)
	}
	if !strings.Contains(out, "common environment found 5/5") {
		t.Errorf("common flow should find 5/5:\n%s", out)
	}
}

func TestE3CoverageEquality(t *testing.T) {
	var buf bytes.Buffer
	if err := E3CoverageEquality(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "coverage equal on every test = true") {
		t.Errorf("coverage inequality:\n%s", buf.String())
	}
}

func TestE4Alignment(t *testing.T) {
	var buf bytes.Buffer
	if err := E4Alignment(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "clean BCA (min rate 100.00%") {
		t.Errorf("clean run should align 100%%:\n%s", out)
	}
	if !strings.Contains(out, "sign-off false") {
		t.Errorf("at least one bug should fail sign-off:\n%s", out)
	}
}

func TestE5SpeedOrdering(t *testing.T) {
	var buf bytes.Buffer
	res, err := E5Speed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d rows", len(res))
	}
	rtl, wrapped, standalone := res[0], res[1], res[2]
	// The paper's shape: standalone BCA much faster than RTL; wrapped BCA in
	// the same ballpark as RTL (the advantage is lost).
	if standalone.CyclesPerSec < 3*rtl.CyclesPerSec {
		t.Errorf("standalone BCA should be several times faster than RTL: %.0f vs %.0f",
			standalone.CyclesPerSec, rtl.CyclesPerSec)
	}
	if wrapped.CyclesPerSec > standalone.CyclesPerSec/2 {
		t.Errorf("wrapped BCA should lose most of the standalone advantage: wrapped %.0f, standalone %.0f",
			wrapped.CyclesPerSec, standalone.CyclesPerSec)
	}
}

func TestE6CodeCoverage(t *testing.T) {
	var buf bytes.Buffer
	if err := E6CodeCoverage(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "line=100.0%") {
		t.Errorf("full suite should reach 100%% justified line coverage:\n%s", out)
	}
	if !strings.Contains(out, "not available") {
		t.Errorf("BCA code coverage should be reported unavailable:\n%s", out)
	}
}

func TestE1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix slice")
	}
	var buf bytes.Buffer
	if err := E1RegressionMatrix(&buf, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "6/6 configurations signed off") {
		t.Errorf("quick matrix should sign off all 6 configs:\n%s", out)
	}
}

func TestFlowNarrative(t *testing.T) {
	var buf bytes.Buffer
	if err := Flow(&buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"LOW ALIGNMENT RATE", "sign-off: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("flow narrative missing %q:\n%s", want, out)
		}
	}
}

func TestAblationArchShape(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationArch(&buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "shared bus takes") {
		t.Errorf("missing summary:\n%s", buf.String())
	}
}

func TestE7PortsApproachIdentity(t *testing.T) {
	var buf bytes.Buffer
	if err := E7PortsApproach(&buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "identical results: transactions true, coverage bins true, violations true, score errors true") {
		t.Errorf("ports approach not identical:\n%s", buf.String())
	}
}

func TestAblationPipeShape(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationPipe(&buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
}

func TestExplorationPicksBudgetWinner(t *testing.T) {
	var buf bytes.Buffer
	if err := Exploration(&buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "winner:") {
		t.Errorf("no winner reported:\n%s", buf.String())
	}
}
