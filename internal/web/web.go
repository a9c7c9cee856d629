// Package web is the embedded dashboard of the served verification flow: a
// few server-rendered html/template pages over the job manager — job list
// with a submit form, and a per-job page with the matrix grid, coverage
// bars and closure trajectories. Everything ships inside the binary via
// embed.FS; the dashboard needs no assets, no build step and no JavaScript
// (running pages poll by meta-refresh).
package web

import (
	"embed"
	"flag"
	"html/template"
	"io"
	"net/http"
	"strings"

	"crve/internal/jobs"
	"crve/internal/regress"
)

//go:embed templates/*.html
var templates embed.FS

// Server renders the dashboard over a job manager.
type Server struct {
	mgr *jobs.Manager
	mux *http.ServeMux
	tpl *template.Template
}

// New builds the dashboard for mgr.
func New(mgr *jobs.Manager) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux()}
	s.tpl = template.Must(template.ParseFS(templates, "templates/*.html"))
	s.mux.HandleFunc("GET /{$}", s.index)
	s.mux.HandleFunc("POST /submit", s.submit)
	s.mux.HandleFunc("GET /jobs/{id}", s.job)
	return s
}

// Handler returns the routable handler.
func (s *Server) Handler() http.Handler { return s.mux }

// indexData feeds templates/index.html. Bools and Texts are the submit
// form's inputs, one per request flag: checkboxes and text fields.
type indexData struct {
	Jobs         []jobs.Status
	Bools, Texts []*flag.Flag
	Version      string
	CacheOn      bool
}

// requestFlags is the request's field table on a throwaway flag set: the
// form renders from it and parses through it.
func requestFlags(spec *jobs.Spec) *flag.FlagSet {
	fs := flag.NewFlagSet("form", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	spec.Flags(fs)
	return fs
}

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	all := s.mgr.List()
	data := indexData{Version: regress.CodeVersion(), CacheOn: s.mgr.Cache() != nil}
	var spec jobs.Spec
	fs := requestFlags(&spec)
	spec.Matrix, spec.Quick = true, true // the form starts on the quick matrix
	fs.VisitAll(func(f *flag.Flag) {
		f.Usage = strings.ReplaceAll(f.Usage, "`", "") // backquotes name a value in -h output
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
			data.Bools = append(data.Bools, f)
		} else {
			data.Texts = append(data.Texts, f)
		}
	})
	for i := len(all) - 1; i >= 0; i-- { // newest first
		data.Jobs = append(data.Jobs, all[i].Status())
	}
	s.render(w, "index.html", data)
}

// submit accepts the dashboard form and redirects to the new job's page.
// Each non-empty form value sets its request flag, and the config textarea
// adds an inline configuration; an input left empty keeps its default.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseForm(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var spec jobs.Spec
	fs := requestFlags(&spec)
	for name, values := range r.PostForm {
		for _, v := range values {
			if v = strings.TrimSpace(v); v == "" {
				continue
			}
			if name == "config" {
				spec.Configs = append(spec.Configs, v)
			} else if err := fs.Set(name, v); err != nil {
				http.Error(w, "bad "+name+": "+err.Error(), http.StatusBadRequest)
				return
			}
		}
	}
	job, err := s.mgr.Submit(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	http.Redirect(w, r, "/jobs/"+job.ID, http.StatusSeeOther)
}

// trajIter / trajRow are the pre-digested closure view models: templates
// only format, never compute. The matrix and runs tables render the job's
// canonical report (regress.BuildReport) as it is.
type trajIter struct {
	Iter    int
	Percent float64
	NewBins int
	Units   int
	Cycles  uint64
}

type trajRow struct {
	Config       string
	Reason       string
	Converged    bool
	StartPercent float64
	FinalPercent float64
	Iters        []trajIter
}

// jobData feeds templates/job.html.
type jobData struct {
	St       jobs.Status
	Live     bool
	Percent  float64
	Configs  []regress.ConfigReport
	Kernels  []regress.KernelProfile
	Closures []trajRow
	Waves    []string
	LogTail  string
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	st := job.Status()
	data := jobData{St: st, Live: !st.State.Terminal(), Waves: job.WaveUnits()}
	if st.Progress.Total > 0 {
		data.Percent = 100 * float64(st.Progress.Done) / float64(st.Progress.Total)
	}
	if rep := job.Report(); rep != nil {
		data.Configs = rep.Configs
	}
	data.Kernels = regress.KernelProfiles(job.Results())
	for _, traj := range job.Closures() {
		tr := trajRow{
			Config: traj.Config, Reason: traj.Reason, Converged: traj.Converged,
			StartPercent: traj.StartPercent, FinalPercent: traj.FinalPercent,
		}
		for _, it := range traj.Iterations {
			pct := 0.0
			if traj.TotalBins > 0 {
				pct = 100 * float64(traj.TotalBins-it.HolesAfter) / float64(traj.TotalBins)
			}
			tr.Iters = append(tr.Iters, trajIter{
				Iter: it.Iter, Percent: pct, NewBins: it.NewBins,
				Units: len(it.Units), Cycles: it.Cycles,
			})
		}
		data.Closures = append(data.Closures, tr)
	}
	if log := job.Log(); log != "" {
		const tail = 4000
		if len(log) > tail {
			log = "..." + log[len(log)-tail:]
		}
		data.LogTail = log
	}
	s.render(w, "job.html", data)
}

func (s *Server) render(w http.ResponseWriter, name string, data any) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := s.tpl.ExecuteTemplate(w, name, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
