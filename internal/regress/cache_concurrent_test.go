package regress

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"crve/internal/bca"
	"crve/internal/core"
	"crve/internal/nodespec"
)

// fakeRecord builds a minimal valid cache payload (Load requires both views).
func fakeRecord(test string, seed int64) *core.PairRecord {
	return &core.PairRecord{
		RTL: &core.RunRecord{Test: test, Seed: seed, Cycles: 10},
		BCA: &core.RunRecord{Test: test, Seed: seed, Cycles: 10},
	}
}

// TestCacheConcurrentStoreLoad hammers the store from many goroutines — same
// key and distinct keys interleaved — and requires every load to return a
// whole entry or a clean miss, never a torn one. Run under -race this is the
// store's concurrency contract.
func TestCacheConcurrentStoreLoad(t *testing.T) {
	c := testCache(t, "conc")
	cfg := StandardMatrix()[0]
	const (
		goroutines = 16
		rounds     = 25
		sharedKeys = 4
	)
	var wg sync.WaitGroup
	var torn atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Contended keys: everyone stores and loads the same few.
				test := fmt.Sprintf("shared%d", i%sharedKeys)
				key := c.Key(cfg, test, 1, bca.Bugs{}, "")
				if err := c.Store(key, cfg, test, 1, fakeRecord(test, 1)); err != nil {
					t.Error(err)
					return
				}
				if rec, ok := c.Load(key); ok {
					if rec.RTL == nil || rec.BCA == nil || rec.RTL.Test != test {
						torn.Add(1)
					}
				}
				// Private keys: one writer each, must always hit after store.
				priv := fmt.Sprintf("private%d_%d", g, i)
				pkey := c.Key(cfg, priv, int64(g), bca.Bugs{}, "")
				if err := c.Store(pkey, cfg, priv, int64(g), fakeRecord(priv, int64(g))); err != nil {
					t.Error(err)
					return
				}
				if rec, ok := c.Load(pkey); !ok || rec.RTL.Test != priv {
					t.Errorf("private key %s: lost or torn entry", priv)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := torn.Load(); n > 0 {
		t.Errorf("%d torn entries observed", n)
	}
}

// TestCacheFlightGroupDedupes is the served tier's dedupe contract: two
// engine runs submitting identical unit sets against one shared cache, at
// the same time, must simulate each unit exactly once between them — the
// in-process flight group blocks the second run's miss until the first run's
// entry lands.
func TestCacheFlightGroupDedupes(t *testing.T) {
	cache := testCache(t, "flight")
	cfgs := []nodespec.Config{engineCfg(t, "fl0", 4), engineCfg(t, "fl1", 2)}
	suite := engineSuite(t, "basic_write_read", "error_paths")
	units := len(cfgs) * len(suite)
	opt := Options{Tests: suite, Seeds: []int64{1}, Cache: cache, Workers: 4}

	const jobsN = 3
	stats := make([]Stats, jobsN)
	var wg sync.WaitGroup
	for i := 0; i < jobsN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, st, err := RunCtx(context.Background(), cfgs, opt)
			if err != nil {
				t.Error(err)
				return
			}
			stats[i] = st
		}(i)
	}
	wg.Wait()
	totalRan, totalCached := 0, 0
	for i, st := range stats {
		if st.Ran+st.Cached != units {
			t.Errorf("job %d: %d ran + %d cached != %d units", i, st.Ran, st.Cached, units)
		}
		totalRan += st.Ran
		totalCached += st.Cached
	}
	if totalRan != units {
		t.Errorf("concurrent identical jobs simulated %d units, want exactly %d (one per unique unit)", totalRan, units)
	}
	if totalCached != (jobsN-1)*units {
		t.Errorf("cache served %d units, want %d", totalCached, (jobsN-1)*units)
	}
}

// TestCacheFlightOwnerFailureReleasesWaiters: when a flight owner never
// stores (simulation failed), a blocked waiter must take over instead of
// hanging or treating the miss as a hit.
func TestCacheFlightOwnerFailureReleasesWaiters(t *testing.T) {
	c := testCache(t, "fail")
	cfg := StandardMatrix()[0]
	key := c.Key(cfg, "t", 1, bca.Bugs{}, "")

	rec, release, err := c.acquire(context.Background(), key)
	if err != nil || rec != nil || release == nil {
		t.Fatalf("first acquire: want ownership, got rec=%v owner=%v err=%v", rec, release != nil, err)
	}

	got := make(chan error, 1)
	go func() {
		rec2, release2, err2 := c.acquire(context.Background(), key)
		if err2 != nil {
			got <- err2
			return
		}
		if rec2 != nil {
			got <- fmt.Errorf("waiter got a record although the owner stored nothing")
			return
		}
		release2() // waiter became the new owner
		got <- nil
	}()

	release() // owner gives up without storing
	if err := <-got; err != nil {
		t.Fatal(err)
	}

	// Cancellation while waiting must return the context error.
	_, release3, _ := c.acquire(context.Background(), key)
	defer release3()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.acquire(ctx, key); err == nil {
		t.Fatal("acquire with a cancelled context while another owner is in flight must fail")
	}
}
