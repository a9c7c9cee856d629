package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crve/internal/api"
	"crve/internal/jobs"
	"crve/internal/regress"
)

// regbank is the shipped configuration the suite leaves one hole in;
// unreachable is the bad corpus's CRVE005 configuration, which runs under
// nolint and signs off.
const (
	regbank     = "../../configs/closure/regbank.cfg"
	unreachable = "../../configs/bad/crve005_unreachable.cfg"
)

// runArgs invokes the command body and returns its exit code and streams.
func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// serve starts the job service as regressd does — a manager behind
// api.New — on an httptest server.
func serve(t *testing.T) *httptest.Server {
	t.Helper()
	m := jobs.NewManager(jobs.Options{})
	srv := httptest.NewServer(api.New(m).Handler())
	t.Cleanup(func() {
		srv.Close()
		m.Drain(context.Background())
	})
	return srv
}

// body expands a JSON job body: each of the words REGBANK and UNREACHABLE
// becomes that configuration file's text as a JSON string.
func body(t *testing.T, tmpl string) string {
	t.Helper()
	for word, path := range map[string]string{"REGBANK": regbank, "UNREACHABLE": unreachable} {
		if !strings.Contains(tmpl, word) {
			continue
		}
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		quoted, err := json.Marshal(string(text))
		if err != nil {
			t.Fatal(err)
		}
		tmpl = strings.ReplaceAll(tmpl, word, string(quoted))
	}
	return tmpl
}

// call sends one request to the service and returns its status code and
// body.
func call(t *testing.T, method, url, reqBody string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// servedReport submits a job body, polls the job to done and returns its
// served report.
func servedReport(t *testing.T, srv *httptest.Server, jobBody string) string {
	t.Helper()
	code, data := call(t, http.MethodPost, srv.URL+"/api/v1/jobs", jobBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d: %s", code, data)
	}
	var st jobs.Status
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(5 * time.Millisecond) {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			break
		}
		_, data = call(t, http.MethodGet, srv.URL+"/api/v1/jobs/"+st.ID, "")
	}
	if st.State != jobs.Done {
		t.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	_, data = call(t, http.MethodGet, srv.URL+"/api/v1/jobs/"+st.ID+"/report", "")
	return string(data)
}

// TestCloseReportMatchesService: for every request field, the CLI's -json
// report equals, byte for byte, the report the job service serves for the
// equivalent JSON body. The close run counts the closure unit beside the
// suite on both sides: 12 suite units plus one 130-cycle closure unit.
func TestCloseReportMatchesService(t *testing.T) {
	srv := serve(t)
	units := map[string]regress.UnitTotals{
		"close":               {Ran: 13, Cached: 0, Cycles: 3658},
		"matrix quick config": {Ran: 7, Cached: 0, Cycles: 1880},
	}
	for _, row := range []struct {
		name string
		args []string
		body string
	}{
		{"matrix quick", []string{"-matrix", "-quick", "-tests", "basic_write_read"},
			`{"matrix": true, "quick": true, "tests": ["basic_write_read"]}`},
		{"tests", []string{"-config", regbank, "-tests", "basic_write_read,error_paths"},
			`{"configs": [REGBANK], "tests": ["basic_write_read", "error_paths"]}`},
		{"seeds", []string{"-config", regbank, "-tests", "basic_write_read", "-seeds", "3,1"},
			`{"configs": [REGBANK], "tests": ["basic_write_read"], "seeds": [3, 1]}`},
		{"nolint", []string{"-config", unreachable, "-nolint", "-tests", "basic_write_read"},
			`{"configs": [UNREACHABLE], "nolint": true, "tests": ["basic_write_read"]}`},
		{"kernelstats", []string{"-config", regbank, "-tests", "basic_write_read", "-kernelstats"},
			`{"configs": [REGBANK], "tests": ["basic_write_read"], "kernelstats": true}`},
		{"wave", []string{"-config", regbank, "-tests", "basic_write_read", "-wave"},
			`{"configs": [REGBANK], "tests": ["basic_write_read"], "record_wave": true}`},
		{"close", []string{"-config", regbank, "-close"},
			`{"configs": [REGBANK], "close": true}`},
		{"max-iters", []string{"-config", regbank, "-close", "-max-iters", "1"},
			`{"configs": [REGBANK], "close": true, "max_iters": 1}`},
		{"budget", []string{"-config", regbank, "-close", "-budget", "1000"},
			`{"configs": [REGBANK], "close": true, "budget": 1000}`},
		{"matrix quick config", []string{"-matrix", "-quick", "-config", regbank, "-tests", "basic_write_read"},
			`{"matrix": true, "quick": true, "configs": [REGBANK], "tests": ["basic_write_read"]}`},
	} {
		t.Run(row.name, func(t *testing.T) {
			code, cli, stderr := runArgs(append(row.args, "-json")...)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr)
			}
			if served := servedReport(t, srv, body(t, row.body)); served != cli {
				t.Errorf("served report differs from the CLI's:\n--- served ---\n%s--- cli ---\n%s", served, cli)
			}
			var rep regress.Report
			if err := json.Unmarshal([]byte(cli), &rep); err != nil {
				t.Fatal(err)
			}
			if want, ok := units[row.name]; ok && rep.Units != want {
				t.Errorf("report units %+v, want %+v", rep.Units, want)
			}
		})
	}
}

// TestInvalidRequestsFailAlike: an invalid request fails with the same
// message from the CLI (after its "regress: " prefix, exit 1) and from the
// service (a 400 whose body is the message), once the CLI's file path is
// read as the inline configuration's name, configs[0].
func TestInvalidRequestsFailAlike(t *testing.T) {
	srv := serve(t)
	unparsable := filepath.Join(t.TempDir(), "unparsable.cfg")
	if err := os.WriteFile(unparsable, []byte("pipe_size = what\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name string
		args []string
		body string
		path string // the CLI's source, named configs[0] by the service
	}{
		{"quick sans matrix", []string{"-quick", "-config", regbank}, `{"configs": [REGBANK], "quick": true}`, regbank},
		{"unknown test", []string{"-config", regbank, "-tests", "nope"}, `{"configs": [REGBANK], "tests": ["nope"]}`, regbank},
		{"unparsable config", []string{"-config", unparsable}, `{"configs": ["pipe_size = what\n"]}`, unparsable},
		{"lint error", []string{"-config", unreachable}, `{"configs": [UNREACHABLE]}`, unreachable},
		{"empty request", nil, `{}`, ""},
	} {
		t.Run(row.name, func(t *testing.T) {
			code, _, stderr := runArgs(row.args...)
			cli, ok := strings.CutPrefix(stderr, "regress: ")
			if code != 1 || !ok {
				t.Fatalf("CLI: exit %d, stderr %q; want exit 1 and a regress: message", code, stderr)
			}
			if row.path != "" {
				cli = strings.ReplaceAll(cli, row.path, "configs[0]")
			}
			status, data := call(t, http.MethodPost, srv.URL+"/api/v1/jobs", body(t, row.body))
			var served struct{ Error string }
			if err := json.Unmarshal(data, &served); err != nil {
				t.Fatal(err)
			}
			if status != http.StatusBadRequest || served.Error+"\n" != cli {
				t.Errorf("service: %d %q\nCLI: %q", status, served.Error, cli)
			}
		})
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
