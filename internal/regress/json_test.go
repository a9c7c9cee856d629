package regress

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"crve/internal/nodespec"
)

// encodeReport renders the canonical bytes the CLI (-json) and the service
// report endpoint both emit.
func encodeReport(t *testing.T, results []*ConfigResult, stats Stats) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, BuildReport(results, stats)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReportBytesDeterministic is the byte-identity contract behind the
// service: the canonical JSON report must not depend on worker width, on
// whether units came from the cache, or on wall-clock time.
func TestReportBytesDeterministic(t *testing.T) {
	cfgs := []nodespec.Config{engineCfg(t, "js0", 4), engineCfg(t, "js1", 2)}
	suite := engineSuite(t, "basic_write_read", "error_paths")
	base := Options{Tests: suite, Seeds: []int64{1, 2}}

	serialOpt := base
	serialOpt.Workers = 1
	serialRes, serialStats, err := RunCtx(context.Background(), cfgs, serialOpt)
	if err != nil {
		t.Fatal(err)
	}
	serial := encodeReport(t, serialRes, serialStats)

	parOpt := base
	parOpt.Workers = 8
	parRes, parStats, err := RunCtx(context.Background(), cfgs, parOpt)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeReport(t, parRes, parStats); !bytes.Equal(serial, got) {
		t.Errorf("report bytes differ between -j 1 and -j 8:\n%s\nvs\n%s", serial, got)
	}

	// Wall clock is the one non-deterministic stat; the report must exclude it.
	bumped := serialStats
	bumped.Duration += 5 * time.Hour
	if got := encodeReport(t, serialRes, bumped); !bytes.Equal(serial, got) {
		t.Error("report bytes depend on Stats.Duration")
	}

	// A cache-served re-run must also reproduce the same bytes.
	cache := testCache(t, "jsoncache")
	warmOpt := base
	warmOpt.Cache = cache
	if _, _, err := RunCtx(context.Background(), cfgs, warmOpt); err != nil {
		t.Fatal(err)
	}
	warmRes, warmStats, err := RunCtx(context.Background(), cfgs, warmOpt)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Cached == 0 {
		t.Fatal("warm run served nothing from cache")
	}
	warm := encodeReport(t, warmRes, warmStats)
	// The units block legitimately differs (ran vs cached); everything else
	// must match. Compare with the units normalised away.
	if got := stripUnits(t, warm); !bytes.Equal(stripUnits(t, serial), got) {
		t.Errorf("cache-served report differs beyond the units block:\n%s\nvs\n%s", serial, warm)
	}
}

// stripUnits decodes a report, zeroes the ran/cached split and the per-run
// cached flags, and re-encodes canonically.
func stripUnits(t *testing.T, data []byte) []byte {
	t.Helper()
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	rep.Units = UnitTotals{}
	for _, cfg := range rep.Configs {
		for i := range cfg.Runs {
			cfg.Runs[i].Cached = false
		}
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, &rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStatsThroughput: cycles/duration, computed once in the engine, read
// everywhere.
func TestStatsThroughput(t *testing.T) {
	s := Stats{Cycles: 1000, Duration: 2 * time.Second}
	if got := s.Throughput(); got != 500 {
		t.Errorf("Throughput() = %v, want 500", got)
	}
	if got := (Stats{Cycles: 100}).Throughput(); got != 0 {
		t.Errorf("zero-duration Throughput() = %v, want 0", got)
	}
	if got := (Stats{Ran: 3, Cached: 4}).String(); got != "3 ran, 4 cached" {
		t.Errorf("Stats.String() = %q, want %q (CI greps this exact shape)", got, "3 ran, 4 cached")
	}
}

// TestEngineFillsDurationAndCycles: the engine stamps wall clock and
// simulated cycles so no caller recomputes them.
func TestEngineFillsDurationAndCycles(t *testing.T) {
	_, stats, err := RunCtx(context.Background(), []nodespec.Config{engineCfg(t, "dur", 2)},
		Options{Tests: engineSuite(t, "basic_write_read"), Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Duration <= 0 {
		t.Errorf("Stats.Duration = %v, want > 0", stats.Duration)
	}
	if stats.Cycles == 0 {
		t.Error("Stats.Cycles = 0, want simulated cycles counted")
	}
}
