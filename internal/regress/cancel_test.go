package regress

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"crve/internal/nodespec"
)

// TestRunCtxCancelMidMatrix is the service tier's cancellation contract:
// cancelling the context mid-matrix stops the engine promptly (well short of
// the full unit count), surfaces context.Canceled, leaves every stored cache
// entry whole, and lets a follow-up run finish the remainder incrementally.
func TestRunCtxCancelMidMatrix(t *testing.T) {
	cache := testCache(t, "cancel")
	var cfgs []nodespec.Config
	for _, name := range []string{"cx0", "cx1", "cx2", "cx3"} {
		cfgs = append(cfgs, engineCfg(t, name, 2))
	}
	suite := engineSuite(t, "basic_write_read", "error_paths", "random_mixed")
	units := len(cfgs) * len(suite) * 2

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var events atomic.Int64
	opt := Options{
		Tests: suite, Seeds: []int64{1, 2}, Cache: cache, Workers: 2,
		Progress: func(p Progress) {
			// Cancel as soon as the first unit merges.
			if events.Add(1) == 1 {
				cancel()
			}
		},
	}
	_, _, err := RunCtx(ctx, cfgs, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	merged := int(events.Load())
	if merged == 0 || merged >= units {
		t.Fatalf("cancelled run merged %d of %d units, want some but not all", merged, units)
	}

	// Every entry the cancelled run stored must be whole: the finishing run
	// serves them as cache hits and still signs everything off.
	results, stats, err := RunCtx(context.Background(), cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ran+stats.Cached != units {
		t.Fatalf("finishing run covered %d units, want %d", stats.Ran+stats.Cached, units)
	}
	if stats.Cached == 0 {
		t.Error("finishing run reused nothing from the cancelled run")
	}
	for _, cr := range results {
		if !cr.SignedOff() {
			t.Errorf("%s: lost sign-off after a cancel/resume cycle", cr.Cfg.Name)
		}
	}
}

// TestRunCtxCancelBeforeStart: a context cancelled before the run starts
// simulates nothing at all.
func TestRunCtxCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	opt := Options{
		Tests: engineSuite(t, "basic_write_read"), Seeds: []int64{1},
		Progress: func(p Progress) { ran++ },
	}
	_, _, err := RunCtx(ctx, []nodespec.Config{engineCfg(t, "pre", 2)}, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Errorf("%d units merged on a pre-cancelled context, want 0", ran)
	}
}
