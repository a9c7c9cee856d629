package regress

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/fstest"

	"crve/internal/bca"
	"crve/internal/nodespec"
)

// testCache builds a cache with a pinned version so tests control
// invalidation explicitly.
func testCache(t *testing.T, version string) *Cache {
	t.Helper()
	return openTestCache(t, t.TempDir(), version)
}

// openTestCache opens dir as a cache with a pinned version.
func openTestCache(t testing.TB, dir, version string) *Cache {
	t.Helper()
	c, err := openCache(dir, version)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// segments lists the segment files in dir.
func segments(t testing.TB, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*"+segmentExt))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func TestCacheKeyDiscriminates(t *testing.T) {
	c := testCache(t, "v1")
	cfg := StandardMatrix()[0]
	base := c.Key(cfg, "basic_write_read", 1, bca.Bugs{}, "")
	if base != c.Key(cfg, "basic_write_read", 1, bca.Bugs{}, "") {
		t.Error("key is not stable")
	}
	// The kernel argument is ignored: there is one kernel.
	for _, kernel := range []string{"levelized", "compiled"} {
		if base != c.Key(cfg, "basic_write_read", 1, bca.Bugs{}, kernel) {
			t.Errorf("kernel argument %q must not change the key", kernel)
		}
	}
	edited := cfg
	edited.PipeSize++
	c2 := testCache(t, "v2")
	distinct := map[string]string{
		"config":  c.Key(edited, "basic_write_read", 1, bca.Bugs{}, ""),
		"test":    c.Key(cfg, "error_paths", 1, bca.Bugs{}, ""),
		"seed":    c.Key(cfg, "basic_write_read", 2, bca.Bugs{}, ""),
		"bugs":    c.Key(cfg, "basic_write_read", 1, bca.Bugs{LRUInit: true}, ""),
		"version": c2.Key(cfg, "basic_write_read", 1, bca.Bugs{}, ""),
	}
	for dim, key := range distinct {
		if key == base {
			t.Errorf("changing the %s must change the key", dim)
		}
	}
	// Renaming alone must also invalidate: the name is part of the
	// canonical config text and of every report.
	renamed := cfg
	renamed.Name = "elsewhere"
	if c.Key(renamed, "basic_write_read", 1, bca.Bugs{}, "") == base {
		t.Error("renaming the config must change the key")
	}
}

func TestCacheCorruptAndVersionMismatchAreMisses(t *testing.T) {
	c := testCache(t, "v1")
	cfg := StandardMatrix()[0]
	first := c.Key(cfg, "first", 1, bca.Bugs{}, "")
	key := c.Key(cfg, "t", 1, bca.Bugs{}, "")
	if _, ok := c.Load(key); ok {
		t.Fatal("empty cache must miss")
	}
	for _, u := range []struct{ key, test string }{{first, "first"}, {key, "t"}} {
		if err := c.Store(u.key, cfg, u.test, 1, fakeRecord(u.test, 1)); err != nil {
			t.Fatal(err)
		}
	}
	segs := segments(t, c.Dir())
	if len(segs) != 1 {
		t.Fatalf("cache holds %d segments, want 1", len(segs))
	}
	seg := segs[0]
	valid, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := c.Load(key); !ok || rec.RTL.Test != "t" {
		t.Fatal("a valid entry must hit")
	}
	k, _ := parseKey(key)
	head, last := len(segmentHeader("v1")), int(c.index[k].off) // key's frame is the last
	writeSeg := func(data []byte) {
		t.Helper()
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// loadAs writes data as the segment and reports which entries a fresh
	// handle, scanning the segment from its header, serves.
	loadAs := func(data []byte) (firstHit, keyHit bool) {
		t.Helper()
		writeSeg(data)
		fresh := openTestCache(t, c.Dir(), "v1")
		_, firstHit = fresh.Load(first)
		_, keyHit = fresh.Load(key)
		return firstHit, keyHit
	}
	lastFrame := func(entry []byte) []byte {
		return appendFrame(append([]byte(nil), valid[:last]...), k, entry)
	}

	for n := last; n < len(valid); n++ {
		if firstHit, keyHit := loadAs(valid[:n]); keyHit || !firstHit {
			t.Fatalf("segment truncated to %d of %d bytes: entry hit %v, earlier entry hit %v; want only the earlier one", n, len(valid), keyHit, firstHit)
		}
	}
	entry := encodeEntry("v1", "t", 1, fakeRecord("t", 1))
	if !bytes.Equal(lastFrame(entry), valid) {
		t.Fatal("re-framing the stored entry does not rebuild the segment")
	}
	if _, keyHit := loadAs(lastFrame(append(entry, 0))); keyHit {
		t.Error("entry with a trailing byte must load as a miss")
	}
	if _, keyHit := loadAs(lastFrame(encodeEntry("v2", "t", 1, fakeRecord("t", 1)))); keyHit {
		t.Error("entry written under another version must load as a miss")
	}
	if firstHit, keyHit := loadAs(append(segmentHeader("v2"), valid[head:]...)); firstHit || keyHit {
		t.Error("segment written under another version must load as a miss")
	}
	// Files of older layouts are never read, even one holding exactly what
	// the one-file-per-entry store wrote for this key and version.
	v3 := `{"version":"v1","config":"","test":"t","seed":1,"pair":{"rtl":{"drained":true},"bca":{"drained":true}}}`
	for name, data := range map[string][]byte{key + ".crr": entry, key + ".json": []byte(v3)} {
		if err := os.WriteFile(filepath.Join(c.Dir(), name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, keyHit := loadAs(valid[:last]); keyHit {
		t.Error("a leftover .crr or .json entry must load as a miss")
	}
	if firstHit, keyHit := loadAs(valid); !firstHit || !keyHit {
		t.Error("restoring the valid bytes must hit again")
	}

	// On a handle that has indexed the segment, flipping any single byte of
	// a frame makes that entry miss and no other. (A fresh scan stops at the
	// first bad frame, so every entry after it misses too.)
	indexed := openTestCache(t, c.Dir(), "v1")
	frames := []struct {
		key        string
		start, end int
	}{{first, head, last}, {key, last, len(valid)}}
	for i, fr := range frames {
		other := frames[1-i].key
		for p := fr.start; p < fr.end; p++ {
			flipped := append([]byte(nil), valid...)
			flipped[p] ^= 0xff
			writeSeg(flipped)
			if _, ok := indexed.Load(fr.key); ok {
				t.Fatalf("segment byte %d flipped: its entry still hits", p)
			}
			if _, ok := indexed.Load(other); !ok {
				t.Fatalf("segment byte %d flipped: another frame's entry misses", p)
			}
		}
	}
	writeSeg(valid)
	for _, fr := range frames {
		if _, ok := indexed.Load(fr.key); !ok {
			t.Error("restoring the valid bytes must hit again on the indexed handle")
		}
	}
}

// TestRunIncremental is the cache's end-to-end contract: a warm re-run
// simulates nothing and reports the same bytes; editing one configuration
// re-simulates exactly that configuration's units.
func TestRunIncremental(t *testing.T) {
	cache := testCache(t, "pinned")
	cfgs := []nodespec.Config{
		engineCfg(t, "inc0", 4),
		engineCfg(t, "inc1", 2),
	}
	suite := engineSuite(t, "basic_write_read", "error_paths")
	opt := Options{Tests: suite, Seeds: []int64{1}, Cache: cache, Workers: 4}

	results1, stats1, err := RunCtx(context.Background(), cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	units := len(cfgs) * len(suite)
	if stats1.Ran != units || stats1.Cached != 0 {
		t.Fatalf("cold run stats %v, want %d ran, 0 cached", stats1, units)
	}
	rep1 := MatrixReport(results1)

	var log bytes.Buffer
	opt.Log = &log
	results2, stats2, err := RunCtx(context.Background(), cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Ran != 0 || stats2.Cached != units {
		t.Fatalf("warm run stats %v, want 0 ran, %d cached", stats2, units)
	}
	if rep2 := MatrixReport(results2); rep2 != rep1 {
		t.Errorf("cache-served report differs from simulated report:\n%s\nvs\n%s", rep1, rep2)
	}
	if !strings.Contains(log.String(), "(cached)") {
		t.Errorf("verbose log should mark cache-served runs:\n%s", log.String())
	}
	for _, cr := range results2 {
		if !cr.SignedOff() {
			t.Errorf("%s: cache-served aggregate lost sign-off", cr.Cfg.Name)
		}
	}

	// Edit one configuration: only its units re-simulate.
	opt.Log = nil
	edited := []nodespec.Config{cfgs[0], engineCfg(t, "inc1", 8)}
	_, stats3, err := RunCtx(context.Background(), edited, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(suite); stats3.Ran != want || stats3.Cached != units-want {
		t.Fatalf("incremental stats %v, want %d ran, %d cached", stats3, want, units-want)
	}

	// A fresh cache sees changed code (version bump): everything re-runs.
	bumped := openTestCache(t, cache.Dir(), "pinned-2")
	opt.Cache = bumped
	_, stats4, err := RunCtx(context.Background(), cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats4.Ran != units || stats4.Cached != 0 {
		t.Fatalf("version-bumped stats %v, want %d ran, 0 cached", stats4, units)
	}
}

func TestCodeVersionCarriesSchema(t *testing.T) {
	if !strings.HasPrefix(CodeVersion(), cacheSchema) {
		t.Errorf("CodeVersion %q must start with the schema tag", CodeVersion())
	}
}

// TestCodeVersionNamesTheSource: the version digests go.mod and the
// non-test internal/*/*.go files with the Go release, so one changed byte
// of such a file gives a new version, and a test file or a file outside
// that set does not. Before, every build of one commit (and every go run
// and go test binary, of any commit) shared a version.
func TestCodeVersionNamesTheSource(t *testing.T) {
	src := func() fstest.MapFS {
		return fstest.MapFS{
			"go.mod":                       {Data: []byte("module crve\n")},
			"internal/bca/engine.go":       {Data: []byte("package bca\n\nconst lruInit = false\n")},
			"internal/sim/kernel.go":       {Data: []byte("package sim\n")},
			"internal/bca/engine_test.go":  {Data: []byte("package bca\n")},
			"internal/bca/testdata/x.go":   {Data: []byte("package x\n")},
			"cmd/regress/main.go":          {Data: []byte("package main\n")},
			"internal/regress/testdata/gl": {Data: []byte("golden\n")},
		}
	}
	base := sourceVersion(src(), "go1.24.0")
	if !strings.HasPrefix(base, cacheSchema+"+") || base != sourceVersion(src(), "go1.24.0") {
		t.Fatalf("version %q must be the schema tag plus a stable digest", base)
	}
	for _, c := range []struct {
		name, path string
		data       string
		changes    bool
	}{
		{"model source", "internal/bca/engine.go", "package bca\n\nconst lruInit = true\n", true},
		{"go.mod", "go.mod", "module crve\n\ngo 1.22\n", true},
		{"new source", "internal/core/extra.go", "package core\n", true},
		{"test file", "internal/bca/engine_test.go", "package bca // changed\n", false},
		{"new test file", "internal/core/extra_test.go", "package core\n", false},
		{"testdata", "internal/bca/testdata/x.go", "package y\n", false},
		{"command", "cmd/regress/main.go", "package main // changed\n", false},
	} {
		fsys := src()
		fsys[c.path] = &fstest.MapFile{Data: []byte(c.data)}
		if got := sourceVersion(fsys, "go1.24.0"); (got != base) != c.changes {
			t.Errorf("%s: changing %s gives version %q against %q; want a change: %v", c.name, c.path, got, base, c.changes)
		}
	}
	if sourceVersion(src(), "go1.25.0") == base {
		t.Error("another Go release must give another version")
	}
}
