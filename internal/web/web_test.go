package web_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
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

	// Empty index renders.
	if page := getPage(t, srv, "/", http.StatusOK); !strings.Contains(page, "no jobs yet") {
		t.Errorf("empty index is missing the empty-state hint:\n%s", page)
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
