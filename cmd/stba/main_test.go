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
