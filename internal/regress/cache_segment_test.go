package regress

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"crve/internal/bca"
	"crve/internal/core"
	"crve/internal/testcases"
)

// unitKeys returns the keys of n units named prefix0, prefix1, ...
func unitKeys(c *Cache, prefix string, n int) (keys, tests []string) {
	cfg := StandardMatrix()[0]
	for i := 0; i < n; i++ {
		test := fmt.Sprintf("%s%d", prefix, i)
		tests = append(tests, test)
		keys = append(keys, c.Key(cfg, test, 1, bca.Bugs{}, ""))
	}
	return keys, tests
}

// TestCacheSegmentsAcrossHandles: two handles on one directory stand in for
// two processes. Each stores its own keys concurrently, probing the other's
// as it goes; after a miss each serves all of the other's entries, a handle
// opened afterwards serves every entry, and each writer created exactly one
// segment.
func TestCacheSegmentsAcrossHandles(t *testing.T) {
	dir := t.TempDir()
	writers := []*Cache{openTestCache(t, dir, "x"), openTestCache(t, dir, "x")}
	const perWriter, goroutines = 24, 4
	keys := make([][]string, len(writers))
	tests := make([][]string, len(writers))
	for w, c := range writers {
		keys[w], tests[w] = unitKeys(c, fmt.Sprintf("w%d_", w), perWriter)
	}
	cfg := StandardMatrix()[0]
	var wg sync.WaitGroup
	for w, c := range writers {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(w, g int, c *Cache) {
				defer wg.Done()
				other := 1 - w
				for i := g; i < perWriter; i += goroutines {
					if err := c.Store(keys[w][i], cfg, tests[w][i], 1, fakeRecord(tests[w][i], 1)); err != nil {
						t.Error(err)
						return
					}
					// The other writer's entry may not be there yet, but a
					// hit is always whole.
					if rec, ok := c.Load(keys[other][i]); ok && rec.RTL.Test != tests[other][i] {
						t.Errorf("writer %d served %q for %q", w, rec.RTL.Test, tests[other][i])
					}
				}
			}(w, g, c)
		}
	}
	wg.Wait()

	later := openTestCache(t, dir, "x")
	for w := range writers {
		for i, key := range keys[w] {
			for h, c := range []*Cache{writers[0], writers[1], later} {
				if rec, ok := c.Load(key); !ok || rec.RTL.Test != tests[w][i] {
					t.Fatalf("handle %d does not serve writer %d's entry %s", h, w, tests[w][i])
				}
			}
		}
	}
	if segs := segments(t, dir); len(segs) != len(writers) {
		t.Errorf("%d writers left %d segments, want one each", len(writers), len(segs))
	}
}

// TestCacheListsOnlyWhenTheDirectoryChanges: a miss re-reads the directory
// listing only when the directory's mtime has moved since the last listing,
// or is too recent to prove that nothing changed since. Another handle's new
// segment moves the mtime; its later appends do not, and are seen without a
// listing. The test sets the mtime by hand to stand in for the clock.
func TestCacheListsOnlyWhenTheDirectoryChanges(t *testing.T) {
	dir := t.TempDir()
	c := openTestCache(t, dir, "x")
	keys, tests := unitKeys(c, "u", 3)
	cfg := StandardMatrix()[0]
	missing := c.Key(cfg, "missing", 1, bca.Bugs{}, "")
	setMtime := func(m time.Time) {
		t.Helper()
		if err := os.Chtimes(dir, m, m); err != nil {
			t.Fatal(err)
		}
	}
	store := func(w *Cache, i int) {
		t.Helper()
		if err := w.Store(keys[i], cfg, tests[i], 1, fakeRecord(tests[i], 1)); err != nil {
			t.Fatal(err)
		}
	}
	served := func(i int) bool {
		rec, ok := c.Load(keys[i])
		return ok && rec.RTL.Test == tests[i]
	}

	// A segment created in the same tick as the listing leaves the mtime as
	// it was; an mtime that recent is listed again.
	recent := time.Now().Add(time.Hour)
	setMtime(recent)
	c.Load(missing)
	store(openTestCache(t, dir, "x"), 0)
	setMtime(recent)
	if !served(0) {
		t.Error("a segment created in the tick of the last listing is not seen")
	}

	// An older mtime that has not moved since the listing proves the
	// directory unchanged.
	old := time.Now().Add(-time.Hour)
	setMtime(old)
	c.Load(missing)
	listed := c.listedAt
	if c.Load(missing); !c.listedAt.Equal(listed) {
		t.Error("a miss re-read the listing of an unchanged directory")
	}
	w := openTestCache(t, dir, "x")
	store(w, 1) // creates w's segment
	if !served(1) || c.listedAt.Equal(listed) {
		t.Error("another handle's new segment is not listed")
	}
	setMtime(old)
	c.Load(missing)
	listed = c.listedAt
	store(w, 2) // appends to it
	if !served(2) || !c.listedAt.Equal(listed) {
		t.Error("another handle's append is not served, or is served only after a listing")
	}
}

// TestCacheSegmentOnFirstStore: a handle that only loads creates no file,
// and any number of stores create exactly one.
func TestCacheSegmentOnFirstStore(t *testing.T) {
	c := testCache(t, "x")
	keys, tests := unitKeys(c, "u", 10)
	for _, key := range keys {
		if _, ok := c.Load(key); ok {
			t.Fatal("empty cache must miss")
		}
	}
	if ents, err := os.ReadDir(c.Dir()); err != nil || len(ents) != 0 {
		t.Fatalf("a handle that only loaded left %d files (%v)", len(ents), err)
	}
	cfg := StandardMatrix()[0]
	for i, key := range keys {
		if err := c.Store(key, cfg, tests[i], 1, fakeRecord(tests[i], 1)); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(c.Dir())
	if err != nil || len(ents) != 1 || filepath.Ext(ents[0].Name()) != segmentExt {
		t.Fatalf("%d stores left %v (%v), want one segment", len(keys), ents, err)
	}
}

// TestCacheTornFrameOfAnotherWriter: when another writer's segment ends in
// a half-written frame, that entry misses, and it is served once the writer
// finishes the frame.
func TestCacheTornFrameOfAnotherWriter(t *testing.T) {
	dir := t.TempDir()
	w := openTestCache(t, dir, "x")
	keys, tests := unitKeys(w, "u", 2)
	cfg := StandardMatrix()[0]
	for i, key := range keys {
		if err := w.Store(key, cfg, tests[i], 1, fakeRecord(tests[i], 1)); err != nil {
			t.Fatal(err)
		}
	}
	seg := segments(t, dir)[0]
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := parseKey(keys[1])
	ref := w.index[k]
	cut := int(ref.off) + ref.size/2
	if err := os.Truncate(seg, int64(cut)); err != nil {
		t.Fatal(err)
	}

	r := openTestCache(t, dir, "x")
	if _, ok := r.Load(keys[0]); !ok {
		t.Fatal("the whole frame before a torn one must hit")
	}
	appendSeg := func(data []byte) {
		t.Helper()
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := r.Load(keys[1]); ok {
		t.Fatal("a half-written frame must miss")
	}
	appendSeg(full[cut : len(full)-1]) // the writer is one byte short
	if _, ok := r.Load(keys[1]); ok {
		t.Fatal("a frame still one byte short must miss")
	}
	appendSeg(full[len(full)-1:])
	if rec, ok := r.Load(keys[1]); !ok || rec.RTL.Test != tests[1] {
		t.Fatal("the frame must be served once the writer finishes it")
	}
}

// TestCacheFailedWriteRetiresSegment: a write that fails returns its error,
// and the next Store starts a new segment, which a fresh handle serves.
func TestCacheFailedWriteRetiresSegment(t *testing.T) {
	c := testCache(t, "x")
	keys, tests := unitKeys(c, "u", 3)
	cfg := StandardMatrix()[0]
	store := func(i int) error { return c.Store(keys[i], cfg, tests[i], 1, fakeRecord(tests[i], 1)) }
	if err := store(0); err != nil {
		t.Fatal(err)
	}
	// Writes to the segment fail from here on, as on a full disk; the
	// handle's reads still go through the descriptor it made the file with.
	ro, err := os.Open(c.w.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	c.w = ro
	if err := store(1); err == nil {
		t.Fatal("a failed write must return an error")
	}
	if err := store(2); err != nil {
		t.Fatalf("the store after a failed write must succeed on a new segment: %v", err)
	}
	if segs := segments(t, c.Dir()); len(segs) != 2 {
		t.Errorf("cache holds %d segments, want the retired one and its successor", len(segs))
	}
	fresh := openTestCache(t, c.Dir(), "x")
	for i, want := range []bool{true, false, true} {
		for h, handle := range []*Cache{c, fresh} {
			if _, ok := handle.Load(keys[i]); ok != want {
				t.Errorf("handle %d: entry %d hit %v, want %v", h, i, ok, want)
			}
		}
	}
}

// TestCacheDeletedSegment: a segment deleted under the handle that wrote it
// is noticed at the handle's next miss. Its entries miss from then on, and
// the next Store starts a new segment that other handles see. Once the
// directory itself is gone, Store fails.
func TestCacheDeletedSegment(t *testing.T) {
	c := testCache(t, "x")
	keys, tests := unitKeys(c, "u", 3)
	cfg := StandardMatrix()[0]
	store := func(i int) error { return c.Store(keys[i], cfg, tests[i], 1, fakeRecord(tests[i], 1)) }
	if err := store(0); err != nil {
		t.Fatal(err)
	}
	old := segments(t, c.Dir())
	if len(old) != 1 {
		t.Fatalf("cache holds segments %v, want one", old)
	}
	if err := os.Remove(old[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(keys[1]); ok {
		t.Fatal("a key never stored must miss")
	}
	if _, ok := c.Load(keys[0]); ok {
		t.Error("an entry of a deleted segment must miss")
	}
	if err := store(1); err != nil {
		t.Fatal(err)
	}
	segs := segments(t, c.Dir())
	if len(segs) != 1 || segs[0] == old[0] {
		t.Fatalf("cache holds segments %v, want one new segment", segs)
	}
	fresh := openTestCache(t, c.Dir(), "x")
	for h, handle := range []*Cache{c, fresh} {
		if rec, ok := handle.Load(keys[1]); !ok || rec.RTL.Test != tests[1] {
			t.Errorf("handle %d does not serve the entry stored after the deletion", h)
		}
	}

	if err := os.RemoveAll(c.Dir()); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(keys[2]); ok {
		t.Fatal("a key never stored must miss")
	}
	if err := store(2); err == nil {
		t.Error("a store into a deleted directory must fail")
	}
}

// FuzzScanSegment fuzzes the segment scanner: a cache directory is input from
// outside the process. The scan must never panic and never allocate more
// than the input's length; the frames it accepts, re-framed after the
// header, must rebuild a prefix of the input; and each accepted entry either
// decodes strictly and re-encodes to the same bytes, or is a miss.
func FuzzScanSegment(f *testing.F) {
	const version = "fuzz"
	header := segmentHeader(version)
	seg := realSegment(f, version)
	f.Add(seg)
	f.Add(seg[:len(seg)-7])
	f.Add(append(segmentHeader("other"), seg[len(header):]...))

	type frame struct {
		k     cacheKey
		entry []byte
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frames := make([]frame, 0, len(data)/frameOverhead)
		var end int64
		// The fuzzing worker's own goroutines allocate beside the scan now
		// and then, so the scan's figure is the least of a few measurements.
		alloc := uint64(math.MaxUint64)
		for try := 0; try < 3 && alloc > uint64(len(data)); try++ {
			frames = frames[:0]
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			end, _ = scanSegment(data, header, 0, func(k cacheKey, _ int64, entry []byte) {
				frames = append(frames, frame{k, entry})
			})
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if alloc > uint64(len(data)) {
			t.Fatalf("scanning %d bytes allocated %d bytes", len(data), alloc)
		}
		if end == 0 {
			if len(frames) > 0 {
				t.Fatalf("accepted %d frames without a whole header", len(frames))
			}
			return
		}
		rebuilt := append([]byte(nil), header...)
		for _, fr := range frames {
			rebuilt = appendFrame(rebuilt, fr.k, fr.entry)
			if test, seed, rec, ok := decodeEntry(fr.entry, version); ok {
				if again := encodeEntry(version, test, seed, rec); !bytes.Equal(again, fr.entry) {
					t.Fatalf("accepted entry re-encodes differently:\n in  %x\n out %x", fr.entry, again)
				}
			}
		}
		if !bytes.Equal(rebuilt, data[:end]) {
			t.Fatalf("accepted frames re-frame to\n %x\nnot the input's first %d bytes\n %x", rebuilt, end, data[:end])
		}
	})
}

// realSegment is the segment a handle writes for two real units of the
// quick matrix.
func realSegment(f *testing.F, version string) []byte {
	c := openTestCache(f, f.TempDir(), version)
	cfg := StandardMatrix()[0]
	for _, name := range []string{"basic_write_read", "error_paths"} {
		tc, err := testcases.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		pair, err := core.RunPair(cfg, tc, 1, bca.Bugs{})
		if err != nil {
			f.Fatal(err)
		}
		if err := c.Store(c.Key(cfg, name, 1, bca.Bugs{}, ""), cfg, name, 1, pair.Record()); err != nil {
			f.Fatal(err)
		}
	}
	segs := segments(f, c.Dir())
	if len(segs) != 1 {
		f.Fatalf("two stores left segments %v, want one", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	return data
}
