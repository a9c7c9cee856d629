// Command crvelint statically analyzes bench configuration files before any
// cycle runs: it parses each *.cfg, runs the internal/lint rule set over the
// parsed configurations, and reports every problem of the whole set in one
// pass — through regress.LintSet, the gate every regression request passes
// before it runs.
//
// Usage:
//
//	crvelint [flags] path...
//
// Each path is a configuration file, a topology file (*.fab) or a directory.
// A directory contributes its *.cfg files to the lint set and its *.fab
// files to the fabric checks. All configurations named on one command line
// are linted as a single set, so cross-configuration rules (duplicate names)
// see everything at once; each topology is elaborated and checked as a whole
// fabric (CRVE018–CRVE023), including the per-config lint of every node
// configuration it references.
//
// Flags:
//
//	-json          emit the report as JSON instead of text
//	-seeds list    comma-separated seed list to lint alongside the configs
//	-codes         print the diagnostic-code table and exit
//	-fabric list   comma-separated topology files to check as whole fabrics
//	-fix           rewrite configs to repair mechanical diagnostics, then re-lint
//
// -fix repairs what has exactly one mechanical resolution — duplicate
// configuration names (CRVE015: later duplicates are renamed after their
// file) and non-power-of-two pipe depths (CRVE013: rounded up to the next
// power of two) — by rewriting the file through the regress.FormatConfig
// round trip, which normalizes formatting and drops comments. Duplicate
// seeds (CRVE016) are dropped from the seed list for the re-lint (the flag
// itself cannot be rewritten). Files with parse errors are never touched.
// A second -fix pass finds nothing left to repair and changes zero bytes.
//
// Exit status is 0 when the set is clean (warnings allowed), 1 when any
// Error-severity diagnostic remains, and 2 on usage or I/O failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"crve/internal/closure"
	"crve/internal/lint"
	"crve/internal/regress"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: it lints the paths named in args and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crvelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var seeds closure.SeedList
	var fabrics closure.StringList
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	fs.Var(&seeds, "seeds", "comma-separated seed `list` to lint alongside the configs")
	codes := fs.Bool("codes", false, "print the diagnostic-code table and exit")
	fs.Var(&fabrics, "fabric", "comma-separated `list` of topology files to check as whole fabrics")
	fix := fs.Bool("fix", false, "rewrite configs to repair mechanical diagnostics, then re-lint")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: crvelint [flags] path...")
		fmt.Fprintln(stderr, "Each path is a configuration file, a topology file (*.fab) or a directory")
		fmt.Fprintln(stderr, "of *.cfg and *.fab files.")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *codes {
		printCodes(stdout)
		return 0
	}
	if fs.NArg() == 0 && len(fabrics) == 0 {
		fs.Usage()
		return 2
	}

	var cfgPaths []string
	for _, path := range fs.Args() {
		info, err := os.Stat(path)
		if err != nil {
			fmt.Fprintf(stderr, "crvelint: %v\n", err)
			return 2
		}
		switch {
		case info.IsDir():
			fabs, err := fabFileNames(path)
			if err != nil {
				fmt.Fprintf(stderr, "crvelint: %v\n", err)
				return 2
			}
			fabrics = append(fabrics, fabs...)
			cfgPaths = append(cfgPaths, path)
		case strings.HasSuffix(path, ".fab"):
			fabrics = append(fabrics, path)
		default:
			cfgPaths = append(cfgPaths, path)
		}
	}

	srcs, err := loadSources(cfgPaths)
	if err != nil {
		fmt.Fprintf(stderr, "crvelint: %v\n", err)
		return 2
	}
	if *fix {
		seeds, err = applyFixes(srcs, seeds, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "crvelint: %v\n", err)
			return 2
		}
		// Re-lint what is actually on disk now, not the in-memory edits.
		if srcs, err = loadSources(cfgPaths); err != nil {
			fmt.Fprintf(stderr, "crvelint: %v\n", err)
			return 2
		}
	}

	report, err := regress.LintSet(srcs, seeds, fabrics)
	if err != nil {
		fmt.Fprintf(stderr, "crvelint: %v\n", err)
		return 2
	}
	if *jsonOut {
		if err := report.JSON(stdout); err != nil {
			fmt.Fprintf(stderr, "crvelint: %v\n", err)
			return 2
		}
	} else {
		report.Text(stdout)
	}
	if report.HasErrors() {
		return 1
	}
	return 0
}

// loadSources turns the configuration paths — directories of *.cfg files or
// single files — into lint sources. Parse failures become CRVE000
// diagnostics, not errors: only I/O problems stop the run.
func loadSources(paths []string) ([]lint.Source, error) {
	var srcs []lint.Source
	for _, path := range paths {
		s, err := regress.LoadSources(path)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, s...)
	}
	return srcs, nil
}

// fabFileNames lists the *.fab topology files of dir, sorted by name. An
// empty result is fine: most directories hold only configs.
func fabFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".fab") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	return paths, nil
}

// applyFixes repairs the mechanically fixable diagnostics in place:
// duplicate names (CRVE015) by renaming later duplicates after their file,
// and non-power-of-two pipe depths (CRVE013) by rounding up. Fixed files are
// rewritten through the FormatConfig round trip; untouched files keep their
// bytes, which is what makes a second pass a no-op. Returns the seed list
// with duplicates (CRVE016) dropped.
func applyFixes(srcs []lint.Source, seeds []int64, stderr io.Writer) ([]int64, error) {
	taken := map[string]bool{}
	for _, src := range srcs {
		taken[src.Cfg.WithDefaults().Name] = true
	}
	seen := map[string]bool{}
	for i := range srcs {
		src := &srcs[i]
		if parseBroken(*src) {
			continue // never rewrite a file the parser could not read back
		}
		cfg := src.Cfg.WithDefaults()
		changed := false

		if seen[cfg.Name] {
			base := strings.TrimSuffix(filepath.Base(src.File), ".cfg")
			name := base
			for n := 2; taken[name]; n++ {
				name = fmt.Sprintf("%s_%d", base, n)
			}
			fmt.Fprintf(stderr, "crvelint: fix %s: renamed %q -> %q (CRVE015)\n", src.File, cfg.Name, name)
			cfg.Name = name
			taken[name] = true
			changed = true
		}
		seen[cfg.Name] = true

		// A t3 node with pipe 1 (the other CRVE013 variant) is a design
		// decision, not a typo with one mechanical resolution; only the
		// depth rounding is safe to automate.
		if p := cfg.PipeSize; p > 1 && p <= 64 && p&(p-1) != 0 {
			next := 2
			for next < p {
				next *= 2
			}
			fmt.Fprintf(stderr, "crvelint: fix %s: pipe %d -> %d (CRVE013)\n", src.File, p, next)
			cfg.PipeSize = next
			changed = true
		}

		if changed {
			if err := os.WriteFile(src.File, []byte(regress.FormatConfig(cfg)), 0o644); err != nil {
				return nil, err
			}
		}
	}

	var out []int64
	dupSeen := map[int64]bool{}
	for _, s := range seeds {
		if dupSeen[s] {
			fmt.Fprintf(stderr, "crvelint: fix: dropped duplicate seed %d (CRVE016)\n", s)
			continue
		}
		dupSeen[s] = true
		out = append(out, s)
	}
	return out, nil
}

// parseBroken reports whether the source carries an Error-grade parse
// diagnostic.
func parseBroken(src lint.Source) bool {
	for _, d := range src.Parse {
		if d.Severity == lint.Error {
			return true
		}
	}
	return false
}

// printCodes renders the rule table: every diagnostic code, its severity
// and a one-line summary.
func printCodes(w io.Writer) {
	for _, rule := range lint.Rules() {
		fmt.Fprintf(w, "%s  %-7s  %s\n", rule.Code, rule.Severity, rule.Summary)
	}
}
