package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"

	"crve/internal/core"
	"crve/internal/nodespec"
	"crve/internal/regress"
	"crve/internal/testcases"
)

// inputs is one workload's matrix: configurations, tests and test seeds.
type inputs struct {
	cfgs  []nodespec.Config
	tests []core.Test
	seeds []int64
}

// makeInputs builds the standard matrix, the generic suite and the test
// seeds drawn from the workload seed, cut to sz.
func makeInputs(seed int64, sz size) inputs {
	return inputs{
		cfgs:  regress.StandardMatrix()[:sz.configs],
		tests: testcases.All()[:sz.tests],
		seeds: testSeeds(seed, sz.seeds),
	}
}

func (in inputs) units() int { return len(in.cfgs) * len(in.tests) * len(in.seeds) }

// testSeeds draws n distinct test seeds in [1, 2^20] from the workload seed.
// A longer draw extends a shorter one, so the lane probe's sixteen seeds
// start with the matrix's own.
func testSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int64]bool)
	var out []int64
	for len(out) < n {
		s := 1 + rng.Int63n(1<<20)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// normalise returns a copy of rep with the ran/cached split folded away:
// every run reads as simulated and the unit totals count every run and its
// cycles. What remains depends only on the matrix, the code and the seeds,
// so a cold, a warm, a traced and a served report of one matrix normalise to
// the same bytes.
func normalise(rep *regress.Report) *regress.Report {
	n := *rep
	n.Configs = make([]regress.ConfigReport, len(rep.Configs))
	n.Units = regress.UnitTotals{}
	for i, c := range rep.Configs {
		c.Runs = append([]regress.RunReport(nil), c.Runs...)
		for j := range c.Runs {
			c.Runs[j].Cached = false
			n.Units.Ran++
			n.Units.Cycles += c.Runs[j].Cycles
		}
		n.Configs[i] = c
	}
	return &n
}

// reportCheck is what the output check learns from one report.
type reportCheck struct {
	digest       string // SHA-256 of the normalised canonical report
	cycles       uint64 // simulated cycles of every run, both views
	transactions int
	signedOff    int // configurations signed off
	configs      int
	runs         int
	failedRuns   int // runs that fail sign-off on their own
}

// checkReport digests rep and counts its sign-off failures.
func checkReport(rep *regress.Report) (reportCheck, error) {
	n := normalise(rep)
	var buf bytes.Buffer
	if err := regress.WriteJSON(&buf, n); err != nil {
		return reportCheck{}, fmt.Errorf("encode report: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	rc := reportCheck{
		digest: hex.EncodeToString(sum[:]), cycles: n.Units.Cycles,
		signedOff: rep.SignedOff, configs: rep.Total,
	}
	for _, c := range n.Configs {
		for _, r := range c.Runs {
			rc.runs++
			rc.transactions += r.Transactions
			if !(r.RTLPass && r.BCAPass && r.CoverageEqual && r.MinAlignment >= 99) {
				rc.failedRuns++
			}
		}
	}
	return rc, nil
}

// verify applies the output check to one report of a matrix with wantRuns
// runs over wantConfigs configurations: every configuration signs off, every
// run passes, and the digest equals want (when want is set). It returns how
// many of the report's operations failed — every run when the report as a
// whole is wrong — and a description of the first problem.
func verify(rc reportCheck, want string, wantConfigs, wantRuns int) (failed int, problem string) {
	switch {
	case rc.configs != wantConfigs || rc.runs != wantRuns:
		return wantRuns, fmt.Sprintf("report covers %d configs and %d runs, want %d and %d",
			rc.configs, rc.runs, wantConfigs, wantRuns)
	case want != "" && rc.digest != want:
		return wantRuns, fmt.Sprintf("report digest %s differs from the reference %s", rc.digest, want)
	case rc.failedRuns > 0 || rc.signedOff != rc.configs:
		return rc.failedRuns, fmt.Sprintf("%d/%d configs signed off, %d runs failed",
			rc.signedOff, rc.configs, rc.failedRuns)
	}
	return 0, ""
}

// printLedger prints the exact-comparison line of one workload and seed.
func printLedger(w io.Writer, workload string, seed int64, what string, rc reportCheck) {
	fmt.Fprintf(w, "ledger %s seed=%d %s: signed_off=%d/%d cycles=%d transactions=%d sha256=%s\n",
		workload, seed, what, rc.signedOff, rc.configs, rc.cycles, rc.transactions, rc.digest)
}
