package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden")

var (
	// elapsedRate is an elapsed-time column and the cycles/sec column after
	// it (the E5 and E7 tables).
	elapsedRate = regexp.MustCompile(`\s+\d+(\.\d+)?(ns|µs|ms|s)\s+\d+`)
	// speedup is a ratio of two measured rates (the E5 and E7 speedup lines).
	speedup = regexp.MustCompile(`\d+(\.\d+)?x`)
	// sweepTime is M1's wall time for the whole sweep.
	sweepTime = regexp.MustCompile(`whole sweep: \S+ wall time`)
)

// maskTiming replaces every figure of the report that depends on the
// machine's speed, so the rest can be compared byte for byte.
func maskTiming(out string) string {
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		l = elapsedRate.ReplaceAllString(l, " <elapsed> <cycles/sec>")
		if strings.Contains(l, "speedup") {
			l = speedup.ReplaceAllString(l, "<n>x")
		}
		lines[i] = sweepTime.ReplaceAllString(l, "whole sweep: <time> wall time")
	}
	return strings.Join(lines, "\n")
}

// TestAllGolden pins the output of every paper experiment (-exp all), timing
// masked, to testdata/all.golden. Regenerate with -update and read the
// diff: a changed line is a changed result.
func TestAllGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "all", false); err != nil {
		t.Fatal(err)
	}
	got := maskTiming(buf.String())
	golden := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("output differs from %s at line %d:\n got  %q\n want %q", golden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, %s has %d", len(gl), golden, len(wl))
}
