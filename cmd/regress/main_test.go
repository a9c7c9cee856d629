package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crve/internal/jobs"
	"crve/internal/regress"
)

// regbank is the shipped configuration the suite leaves one hole in.
const regbank = "../../configs/closure/regbank.cfg"

// runArgs invokes the command body and returns its exit code and streams.
func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestCloseReportMatchesService: the CLI's -close -json report equals, byte
// for byte, the report of the same close job run by the job service, and
// both count the closure unit beside the suite: 12 suite units plus one
// 130-cycle closure unit.
func TestCloseReportMatchesService(t *testing.T) {
	code, cli, stderr := runArgs("-config", "../../configs/closure", "-close", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}

	text, err := os.ReadFile(regbank)
	if err != nil {
		t.Fatal(err)
	}
	m := jobs.NewManager(jobs.Options{})
	defer m.Drain(context.Background())
	job, err := m.Submit(jobs.Spec{Configs: []string{string(text)}, Close: true})
	if err != nil {
		t.Fatal(err)
	}
	events, cancel := job.Subscribe()
	defer cancel()
	for range events { // closes after the terminal snapshot
	}
	if st := job.Status(); st.State != jobs.Done {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	var served bytes.Buffer
	if err := regress.WriteJSON(&served, job.Report()); err != nil {
		t.Fatal(err)
	}
	if served.String() != cli {
		t.Errorf("served close report differs from the CLI's:\n--- served ---\n%s--- cli ---\n%s", served.String(), cli)
	}

	var rep regress.Report
	if err := json.Unmarshal([]byte(cli), &rep); err != nil {
		t.Fatal(err)
	}
	want := regress.UnitTotals{Ran: 13, Cached: 0, Cycles: 3658}
	if rep.Units != want {
		t.Errorf("CLI report units %+v, want %+v", rep.Units, want)
	}
	if got := job.Report().Units; got != want {
		t.Errorf("served report units %+v, want %+v", got, want)
	}
}

// TestClosePlan: -close -plan runs the suite, reports the hole and the unit
// the first closure iteration would run, and simulates no closure unit. The
// suite's 12 units land in one cache segment, which serves all of them to a
// second run.
func TestClosePlan(t *testing.T) {
	cache := t.TempDir()
	args := []string{"-config", regbank, "-close", "-plan", "-cache", cache}
	code, stdout, stderr := runArgs(args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	want := "work units: 12 ran, 0 cached\n" +
		"regbank: 97.7% functional coverage, 1 hole(s)\n" +
		"  hole opcode/SWAP1\n" +
		"  plan closure/opcode_swap@90948eb13281104a -> [opcode/SWAP1]\n"
	if !strings.HasSuffix(stdout, want) {
		t.Errorf("plan output:\n%s\nwant it to end with:\n%s", stdout, want)
	}
	files, err := filepath.Glob(filepath.Join(cache, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || filepath.Ext(files[0]) != ".crp" {
		t.Errorf("cache holds %v after -plan, want exactly one .crp segment", files)
	}
	code, stdout, stderr = runArgs(args...)
	if code != 0 {
		t.Fatalf("second run: exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "work units: 0 ran, 12 cached\n") {
		t.Errorf("second run must serve the 12 suite units from the cache:\n%s", stdout)
	}

	if code, _, stderr := runArgs("-config", regbank, "-plan"); code != 1 || !strings.Contains(stderr, "-plan needs -close") {
		t.Errorf("-plan without -close: exit %d, stderr %q", code, stderr)
	}
}

// TestConfigFileMatchesDir: -config FILE prints the same report as -config
// DIR for a directory holding only that file, and an unnamed configuration
// takes its file name either way.
func TestConfigFileMatchesDir(t *testing.T) {
	text, err := os.ReadFile(regbank)
	if err != nil {
		t.Fatal(err)
	}
	unnamed := strings.Replace(string(text), "name      = regbank\n", "", 1)
	dir := t.TempDir()
	file := filepath.Join(dir, "solo.cfg")
	if err := os.WriteFile(file, []byte(unnamed), 0o644); err != nil {
		t.Fatal(err)
	}
	var outs [2]string
	for i, path := range []string{dir, file} {
		code, stdout, stderr := runArgs("-config", path, "-tests", "basic_write_read")
		if code != 0 {
			t.Fatalf("-config %s: exit %d, stderr:\n%s", path, code, stderr)
		}
		outs[i] = stdout
	}
	if outs[0] != outs[1] {
		t.Errorf("-config DIR and -config FILE differ:\n--- dir ---\n%s--- file ---\n%s", outs[0], outs[1])
	}
	if !strings.Contains(outs[1], "\nsolo ") {
		t.Errorf("unnamed config did not take its file name:\n%s", outs[1])
	}
}
