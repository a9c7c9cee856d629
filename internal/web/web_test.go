package web_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"crve/internal/arb"
	"crve/internal/jobs"
	"crve/internal/nodespec"
	"crve/internal/regress"
	"crve/internal/stbus"
	"crve/internal/web"
)

func testCfgText(t *testing.T, name string) string {
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
	return regress.FormatConfig(cfg)
}

func getPage(t *testing.T, srv *httptest.Server, path string, want int) string {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("GET %s: %d, want %d: %s", path, resp.StatusCode, want, body)
	}
	return string(body)
}

// TestDashboard renders every template against a real finished job — a field
// renamed out from under a template fails here, not in production.
func TestDashboard(t *testing.T) {
	cache, err := regress.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := jobs.NewManager(jobs.Options{Cache: cache, Slots: 1, Workers: 2})
	srv := httptest.NewServer(web.New(mgr).Handler())
	defer srv.Close()

	// Empty index renders, with one form input per request flag plus the
	// inline-config textarea.
	page := getPage(t, srv, "/", http.StatusOK)
	if !strings.Contains(page, "no jobs yet") {
		t.Errorf("empty index is missing the empty-state hint:\n%s", page)
	}
	fs := flag.NewFlagSet("request", flag.ContinueOnError)
	new(jobs.Spec).Flags(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) {
		names = append(names, f.Name)
		if n := strings.Count(page, fmt.Sprintf(`name=%q`, f.Name)); n != 1 {
			t.Errorf("form has %d inputs named %s, want 1", n, f.Name)
		}
	})
	if n := strings.Count(page, "<input "); n != len(names) {
		t.Errorf("form has %d inputs, want one per request flag (%d)", n, len(names))
	}
	if n := strings.Count(page, `<textarea name="config"`); n != 1 {
		t.Errorf("form has %d config textareas, want 1", n)
	}

	job, err := mgr.Submit(jobs.Spec{
		Configs:    []string{testCfgText(t, "web0")},
		Tests:      []string{"basic_write_read", "error_paths"},
		RecordWave: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for !job.Status().State.Terminal() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := job.Status(); st.State != jobs.Done {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}

	index := getPage(t, srv, "/", http.StatusOK)
	for _, want := range []string{job.ID, "done"} {
		if !strings.Contains(index, want) {
			t.Errorf("index page is missing %q:\n%s", want, index)
		}
	}

	detail := getPage(t, srv, "/jobs/"+job.ID, http.StatusOK)
	for _, want := range []string{"web0", "basic_write_read", "Matrix", "Waveforms", "sign-off"} {
		if !strings.Contains(detail, want) {
			t.Errorf("job page is missing %q", want)
		}
	}
	// The Matrix and Runs tables render the job's canonical report.
	cr := job.Report().Configs[0]
	for _, want := range []string{
		fmt.Sprintf("</span> %.1f%%</td>", cr.FuncCovPercent),
		fmt.Sprintf("</span> %.1f%%</td>", cr.LineCovPercent),
		fmt.Sprintf("<td>%.3f</td>", cr.MinAlignment),
	} {
		if !strings.Contains(detail, want) {
			t.Errorf("job page is missing the report's %q", want)
		}
	}
	if len(cr.Runs) != 2 {
		t.Fatalf("report has %d runs, want 2", len(cr.Runs))
	}
	for _, run := range cr.Runs {
		row := fmt.Sprintf("<td>%s</td>\n  <td>%d</td>", run.Test, run.Seed)
		if n := strings.Count(detail, row); n != 1 {
			t.Errorf("job page has %d rows for run %s seed %d, want 1", n, run.Test, run.Seed)
		}
	}

	getPage(t, srv, "/jobs/nope", http.StatusNotFound)

	// The submit form round-trips into a redirect to the new job's page.
	resp, err := srv.Client().PostForm(srv.URL+"/submit", url.Values{
		"config": {testCfgText(t, "web1")},
		"tests":  {"basic_write_read"},
		"seeds":  {"1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The default client follows the 303 to the job page.
	if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Request.URL.Path, "/jobs/") {
		t.Errorf("form submit landed on %s (%d), want a /jobs/{id} page", resp.Request.URL.Path, resp.StatusCode)
	}

	// Posting every request field gives the spec the equivalent JSON body
	// gives.
	text := strings.TrimSpace(testCfgText(t, "web2"))
	form := url.Values{
		"matrix": {"true"}, "quick": {"true"}, "tests": {"basic_write_read"}, "seeds": {"2, 3"},
		"nolint": {"true"}, "kernelstats": {"true"}, "wave": {"true"}, "close": {"true"},
		"max-iters": {"2"}, "budget": {"5000"}, "config": {text},
	}
	for _, name := range names {
		if _, ok := form[name]; !ok {
			t.Fatalf("the form post does not set request flag %s", name)
		}
	}
	quoted, err := json.Marshal(text)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(`{"matrix": true, "quick": true, "tests": ["basic_write_read"],
		"seeds": [2, 3], "nolint": true, "kernelstats": true, "record_wave": true, "close": true,
		"max_iters": 2, "budget": 5000, "configs": [` + string(quoted) + `]}`))
	dec.DisallowUnknownFields()
	var want jobs.Spec
	if err := dec.Decode(&want); err != nil {
		t.Fatal(err)
	}
	resp, err = srv.Client().PostForm(srv.URL+"/submit", form)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	full, ok := mgr.Get(strings.TrimPrefix(resp.Request.URL.Path, "/jobs/"))
	if !ok {
		t.Fatalf("full form submit landed on %s (%d), want a job page", resp.Request.URL.Path, resp.StatusCode)
	}
	if !reflect.DeepEqual(full.Spec, want) {
		t.Errorf("form spec %+v, want the JSON body's %+v", full.Spec, want)
	}
	mgr.Cancel(full.ID)
	for deadline := time.Now().Add(60 * time.Second); !full.Status().State.Terminal() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}

	// Bad form input is a client error.
	resp2, err := srv.Client().PostForm(srv.URL+"/submit", url.Values{"seeds": {"zap"}})
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad seed form: %d, want 400", resp2.StatusCode)
	}
}
