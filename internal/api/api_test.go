package api_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"crve/internal/api"
	"crve/internal/arb"
	"crve/internal/core"
	"crve/internal/jobs"
	"crve/internal/nodespec"
	"crve/internal/regress"
	"crve/internal/stbus"
	"crve/internal/testcases"
	"crve/internal/vcd"
)

// testCfg is the configuration every test in this file runs.
func testCfg(t *testing.T, name string) nodespec.Config {
	t.Helper()
	cfg := nodespec.Config{
		Name:    name,
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: 2, NumTgt: 2,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.LRU, RespArb: arb.Priority,
		Map:      stbus.UniformMap(2, 0x1000, 0x800),
		PipeSize: 4,
	}.WithDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// newTestServer starts the full service in-process: shared cache, manager,
// API over httptest.
func newTestServer(t *testing.T) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	cache, err := regress.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := jobs.NewManager(jobs.Options{Cache: cache, Slots: 2, Workers: 2})
	srv := httptest.NewServer(api.New(mgr).Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Drain(ctx)
	})
	return srv, mgr
}

// postJob submits a spec and returns the queued status.
func postJob(t *testing.T, srv *httptest.Server, spec jobs.Spec) jobs.Status {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /jobs: %d: %s", resp.StatusCode, data)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// pollDone polls the status endpoint until the job is terminal.
func pollDone(t *testing.T, srv *httptest.Server, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st jobs.Status
		getJSON(t, srv, "/api/v1/jobs/"+id, &st)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobs.Status{}
}

func getJSON(t *testing.T, srv *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, data)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

func getBytes(t *testing.T, srv *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, data)
	}
	return data
}

// TestServiceE2E is the full HTTP lifecycle of the acceptance criteria:
// submit a job, stream its events, poll it done, fetch the canonical report
// (byte-identical to the engine-local encoding), coverage, alignment and
// kernel profiles, and download a stored .crw waveform.
func TestServiceE2E(t *testing.T) {
	srv, _ := newTestServer(t)
	cfg := testCfg(t, "api0")
	spec := jobs.Spec{
		Configs:     []string{regress.FormatConfig(cfg)},
		Tests:       []string{"basic_write_read", "error_paths"},
		Seeds:       []int64{1},
		KernelStats: true,
		RecordWave:  true,
	}
	units := 2

	st := postJob(t, srv, spec)
	if st.ID == "" || st.State.Terminal() {
		t.Fatalf("submitted job: id %q state %s", st.ID, st.State)
	}

	// Live SSE stream: read frames until the terminal one.
	sawTerminal := sseStates(t, srv, st.ID)
	if !sawTerminal {
		t.Error("SSE stream ended without a terminal event")
	}

	final := pollDone(t, srv, st.ID)
	if final.State != jobs.Done {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	if final.Progress.Ran != units || final.Progress.Cached != 0 || final.Progress.Done != units {
		t.Errorf("cold job progress %+v, want %d ran", final.Progress, units)
	}
	if final.Progress.ElapsedMS < 0 || final.Progress.Cycles == 0 {
		t.Errorf("progress lacks cycle/elapsed accounting: %+v", final.Progress)
	}

	// The HTTP report must be byte-identical to encoding the engine's own
	// results locally — the same canonical path cmd/regress -json uses.
	httpReport := getBytes(t, srv, "/api/v1/jobs/"+st.ID+"/report")
	results, stats, err := regress.Run([]nodespec.Config{cfg}, regress.Options{
		Tests:       suite(t, spec.Tests...),
		Seeds:       spec.Seeds,
		KernelStats: true,
		RecordWave:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	if err := regress.WriteJSON(&local, regress.BuildReport(results, stats)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(httpReport, local.Bytes()) {
		t.Errorf("HTTP report differs from the local canonical encoding:\n%s\nvs\n%s", httpReport, local.String())
	}

	// Structured views all serve.
	var covOut struct {
		Configs []struct {
			Name           string   `json:"name"`
			FuncCovPercent float64  `json:"func_cov_percent"`
			Holes          []string `json:"holes"`
		} `json:"configs"`
	}
	getJSON(t, srv, "/api/v1/jobs/"+st.ID+"/coverage", &covOut)
	if len(covOut.Configs) != 1 || covOut.Configs[0].Name != cfg.Name || covOut.Configs[0].FuncCovPercent <= 0 {
		t.Errorf("coverage endpoint: %+v", covOut)
	}

	var alignOut struct {
		Configs []struct {
			Name         string  `json:"name"`
			MinAlignment float64 `json:"min_alignment"`
			Runs         []any   `json:"runs"`
		} `json:"configs"`
	}
	getJSON(t, srv, "/api/v1/jobs/"+st.ID+"/alignment", &alignOut)
	if len(alignOut.Configs) != 1 || alignOut.Configs[0].MinAlignment < 99 || len(alignOut.Configs[0].Runs) != units {
		t.Errorf("alignment endpoint: %+v", alignOut)
	}

	var kernOut struct {
		Configs []struct {
			Name string `json:"name"`
			View string `json:"view"`
			Runs int    `json:"runs"`
		} `json:"configs"`
	}
	getJSON(t, srv, "/api/v1/jobs/"+st.ID+"/kernelstats", &kernOut)
	// Only the RTL view runs on a signal kernel; the BCA view of a pair is
	// the ports bench, which has no kernel profile.
	if len(kernOut.Configs) != 1 || kernOut.Configs[0].View != "RTL" || kernOut.Configs[0].Runs != units {
		t.Errorf("kernelstats endpoint: want the RTL view's %d runs, got %+v", units, kernOut)
	}

	// Waveforms: list the units, download one, decode it.
	var waveOut struct {
		Units []string `json:"units"`
	}
	getJSON(t, srv, "/api/v1/jobs/"+st.ID+"/waves", &waveOut)
	if len(waveOut.Units) != units*2 { // each unit stores rtl + bca
		t.Fatalf("waves endpoint: %d units, want %d", len(waveOut.Units), units*2)
	}
	raw := getBytes(t, srv, "/api/v1/jobs/"+st.ID+"/wave/"+waveOut.Units[0])
	rec, err := vcd.DecodeRecording(raw)
	if err != nil {
		t.Fatalf("served .crw does not decode: %v", err)
	}
	if rec == nil {
		t.Fatal("decoded recording is nil")
	}

	// Log endpoint serves text.
	if resp, err := http.Get(srv.URL + "/api/v1/jobs/" + st.ID + "/log"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("log endpoint: %v %v", resp.Status, err)
	} else {
		resp.Body.Close()
	}
}

// sseStates consumes the SSE stream until a terminal event (or EOF) and
// reports whether a terminal state was seen.
func sseStates(t *testing.T, srv *httptest.Server, id string) bool {
	t.Helper()
	resp, err := http.Get(srv.URL + "/api/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var st jobs.Status
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		if st.ID != id {
			t.Fatalf("SSE frame for job %s on stream %s", st.ID, id)
		}
		if st.State.Terminal() {
			return true
		}
	}
	return false
}

func suite(t *testing.T, names ...string) []core.Test {
	t.Helper()
	var tests []core.Test
	for _, name := range names {
		tc, err := testcases.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tests = append(tests, tc)
	}
	return tests
}

// TestServiceDuplicateJobs is the shared-store dedupe criterion over HTTP: a
// sequential resubmission simulates zero units, and two jobs submitted
// concurrently split every unit between them exactly once.
func TestServiceDuplicateJobs(t *testing.T) {
	srv, _ := newTestServer(t)
	spec := jobs.Spec{
		Configs: []string{regress.FormatConfig(testCfg(t, "dup0"))},
		Tests:   []string{"basic_write_read", "error_paths", "random_mixed"},
		Seeds:   []int64{1},
	}
	units := 3

	// Concurrent identical jobs on a cold cache: the flight group must make
	// them simulate each unit exactly once between them.
	a := postJob(t, srv, spec)
	b := postJob(t, srv, spec)
	finalA := pollDone(t, srv, a.ID)
	finalB := pollDone(t, srv, b.ID)
	for _, st := range []jobs.Status{finalA, finalB} {
		if st.State != jobs.Done {
			t.Fatalf("job %s ended %s (%s)", st.ID, st.State, st.Error)
		}
		if st.Progress.Ran+st.Progress.Cached != units {
			t.Errorf("job %s covered %d units, want %d", st.ID, st.Progress.Ran+st.Progress.Cached, units)
		}
	}
	if ran := finalA.Progress.Ran + finalB.Progress.Ran; ran != units {
		t.Errorf("concurrent duplicate jobs simulated %d units total, want exactly %d", ran, units)
	}

	// Sequential resubmission: everything is already stored.
	c := postJob(t, srv, spec)
	finalC := pollDone(t, srv, c.ID)
	if finalC.State != jobs.Done {
		t.Fatalf("job %s ended %s (%s)", c.ID, finalC.State, finalC.Error)
	}
	if finalC.Progress.Ran != 0 || finalC.Progress.Cached != units {
		t.Errorf("resubmitted job simulated %d units, want 0 (all %d cached)", finalC.Progress.Ran, units)
	}
}

// TestServiceErrors covers the client-error surface.
func TestServiceErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	unmapped := testCfg(t, "er2") // target 1 loses its region: CRVE005
	unmapped.Map = unmapped.Map[:1]

	for path, want := range map[string]int{
		"/api/v1/jobs/nope":        http.StatusNotFound,
		"/api/v1/jobs/nope/report": http.StatusNotFound,
		"/api/v1/jobs/nope/waves":  http.StatusNotFound,
	} {
		if resp, err := http.Get(srv.URL + path); err != nil {
			t.Fatal(err)
		} else {
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("GET %s: %d, want %d", path, resp.StatusCode, want)
			}
		}
	}

	for name, body := range map[string]string{
		"unknown field":     `{"matrx": true}`,
		"retired lanes":     `{"matrix": true, "quick": true, "lanes": 4}`,
		"retired kernel":    `{"matrix": true, "quick": true, "kernel": "compiled"}`,
		"quick sans matrix": `{"quick": true}`,
		"empty spec":        `{}`,
		"unknown test":      fmt.Sprintf(`{"configs": [%q], "tests": ["nope"]}`, regress.FormatConfig(testCfg(t, "er0"))),
		"lint error":        fmt.Sprintf(`{"configs": [%q]}`, regress.FormatConfig(unmapped)),
	} {
		resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST /jobs returned %d, want 400", name, resp.StatusCode)
		}
	}

	// Results of an unfinished job are a conflict, not a panic: submit and
	// immediately ask for the report (the job is queued or running).
	st := postJob(t, srv, jobs.Spec{
		Configs: []string{regress.FormatConfig(testCfg(t, "er1"))},
		Tests:   []string{"basic_write_read"},
	})
	resp, err := http.Get(srv.URL + "/api/v1/jobs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
		t.Errorf("report on unfinished job: %d, want 409 (or 200 if it already finished)", resp.StatusCode)
	}
	pollDone(t, srv, st.ID)

	// Version and tests are always served.
	var ver struct {
		CodeVersion string `json:"code_version"`
	}
	getJSON(t, srv, "/api/v1/version", &ver)
	if ver.CodeVersion == "" {
		t.Error("version endpoint returned nothing")
	}
	var tl struct {
		Tests []string `json:"tests"`
	}
	getJSON(t, srv, "/api/v1/tests", &tl)
	if len(tl.Tests) != 12 {
		t.Errorf("tests endpoint listed %d tests, want 12", len(tl.Tests))
	}
}

// TestServiceRejectsOversizedSpec drives a submission past the spec body
// limit: it must be refused with a 4xx before the body is read whole, and the
// server must keep answering afterwards.
func TestServiceRejectsOversizedSpec(t *testing.T) {
	srv, mgr := newTestServer(t)
	body := `{"configs": ["` + strings.Repeat("x", 1<<20) + `"]}`
	resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized spec: POST /jobs returned %d, want 413", resp.StatusCode)
	}
	if n := len(mgr.List()); n != 0 {
		t.Errorf("oversized spec created %d job(s)", n)
	}

	var ver struct {
		CodeVersion string `json:"code_version"`
	}
	getJSON(t, srv, "/api/v1/version", &ver)
	resp, err = http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("submit after an oversized spec: %d, want 400", resp.StatusCode)
	}
}

// TestServiceCancelOverHTTP: POST .../cancel moves a running job to
// cancelled.
func TestServiceCancelOverHTTP(t *testing.T) {
	srv, _ := newTestServer(t)
	st := postJob(t, srv, jobs.Spec{
		Configs: []string{regress.FormatConfig(testCfg(t, "cx0"))},
		Seeds:   []int64{1, 2, 3}, // all 12 tests, 3 seeds: enough to catch mid-run
	})
	resp, err := http.Post(srv.URL+"/api/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	final := pollDone(t, srv, st.ID)
	if final.State != jobs.Cancelled && final.State != jobs.Done {
		t.Fatalf("cancelled job ended %s, want cancelled (or done if it outran the cancel)", final.State)
	}
}
