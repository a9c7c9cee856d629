package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunNamesTheBadDump drives the CLI on a dump whose time runs back from
// #50 to #0 (vcd's TestParseRejectsDecreasingTime pair): the comparison and
// the extraction must fail naming that file, not only the timestamp.
func TestRunNamesTheBadDump(t *testing.T) {
	const defs = "$scope module tb $end\n$scope module p $end\n$var wire 1 ! req $end\n" +
		"$var wire 1 \" gnt $end\n$upscope $end\n$upscope $end\n$enddefinitions $end\n"
	dir := t.TempDir()
	inOrder, swapped := filepath.Join(dir, "in_order.vcd"), filepath.Join(dir, "swapped.vcd")
	for path, text := range map[string]string{
		inOrder: defs + "#0\n$dumpvars\n0!\n0\"\n$end\n#50\n1!\n1\"\n",
		swapped: defs + "#50\n1!\n1\"\n#0\n$dumpvars\n0!\n0\"\n$end\n",
	} {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name    string
		extract string
		args    []string
	}{
		{"compare", "", []string{inOrder, swapped}},
		{"extract", "p", []string{swapped}},
	} {
		err := run("", c.extract, "", 3, c.args)
		if err == nil || !strings.Contains(err.Error(), swapped) || !strings.Contains(err.Error(), "#0") {
			t.Errorf("%s: run returned %v, want an error naming %s and #0", c.name, err, swapped)
		}
	}
}

// TestRunRefusesOverwideValue drives the CLI on two hand-written dumps of
// one port whose 1-bit p.req rises at #0, once as 1! and once as b11 !: the
// comparison must fail naming the second file, the variable and the
// timestamp, where it used to report 0.00 % alignment.
func TestRunRefusesOverwideValue(t *testing.T) {
	const defs = "$scope module tb $end\n$scope module p $end\n$var wire 1 ! req $end\n" +
		"$var wire 1 \" gnt $end\n$upscope $end\n$upscope $end\n$enddefinitions $end\n"
	dir := t.TempDir()
	narrow, wide := filepath.Join(dir, "narrow.vcd"), filepath.Join(dir, "wide.vcd")
	for path, text := range map[string]string{
		narrow: defs + "#0\n$dumpvars\n1!\n0\"\n$end\n#50\n0!\n",
		wide:   defs + "#0\n$dumpvars\nb11 !\n0\"\n$end\n#50\n0!\n",
	} {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	err := run("", "", "", 3, []string{narrow, wide})
	if err == nil || !strings.Contains(err.Error(), wide) || !strings.Contains(err.Error(), "p.req") || !strings.Contains(err.Error(), "#0") {
		t.Errorf("run returned %v, want an error naming %s, p.req and #0", err, wide)
	}
}
