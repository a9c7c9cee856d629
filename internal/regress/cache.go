package regress

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"crve"
	"crve/internal/bca"
	"crve/internal/core"
	"crve/internal/nodespec"
	"crve/internal/wire"
)

// cacheSchema names the on-disk layout. Bump it whenever the segment or
// record format or the key derivation changes; stale entries then miss
// cleanly.
const cacheSchema = "crve-regress-cache-v5"

// The on-disk layout. A segment is a file named pack-*.crp: the segment
// magic and the code version, then frames. A frame holds one entry: a
// little-endian u32 entry length, the 32-byte key, the entry (an entryMagic
// record) and a little-endian CRC-32C of key and entry. Files of older
// layouts (.crr and .json entries, entry-*.tmp) are never opened.
const (
	segmentMagic  = "CRP1"
	segmentExt    = ".crp"
	entryMagic    = "CRR1"
	keySize       = sha256.Size
	frameOverhead = 4 + keySize + 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// cacheKey is a unit key as frames carry it: the raw SHA-256.
type cacheKey [keySize]byte

// CodeVersion identifies the code whose results the cache holds: the cache
// schema plus a SHA-256 over the sources a simulation depends on (crve.Source
// without its test files) and the Go release that compiled them. Any edit
// to those sources, committed or not, built by go build, go run or go test,
// gives a new version, so a cached result is only as reusable as the code
// that produced it. It is computed once per process.
func CodeVersion() string { return codeVersion() }

var codeVersion = sync.OnceValue(func() string {
	return sourceVersion(crve.Source, runtime.Version())
})

// sourceVersion digests go.mod and the non-test files matching
// internal/*/*.go in fsys, path and bytes in path order, with goVersion.
func sourceVersion(fsys fs.FS, goVersion string) string {
	paths, _ := fs.Glob(fsys, "internal/*/*.go") // the pattern is well formed
	h := sha256.New()
	for _, path := range append([]string{"go.mod"}, paths...) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		data, err := fs.ReadFile(fsys, path)
		if err != nil {
			panic(fmt.Sprintf("regress: reading embedded source: %v", err))
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
	}
	h.Write([]byte(goVersion))
	return cacheSchema + "+" + hex.EncodeToString(h.Sum(nil))
}

// Cache is the content-addressed result store of the incremental regression
// engine. One entry holds the full serialized outcome of one
// (configuration, test, seed, bugs) work unit; the key is a canonical hash
// of exactly the inputs that determine that outcome, so re-running a matrix
// after editing one configuration re-simulates only that configuration's
// units and serves everything else from disk.
//
// Entries live in append-only segments. A handle creates one segment on its
// first Store and appends every entry to it as one checksummed frame; no
// other writer appends to it, so frames never interleave. An in-memory index
// (key → segment, offset, size) serves each Load with one read, after which
// the frame's length, key and CRC are checked and the entry is decoded
// strictly (internal/wire: magic, code version, test, seed, then the
// core.PairRecord). A torn, unreadable or foreign frame, an entry of another
// code version and an entry followed by trailing bytes all degrade to a
// miss. On an index miss the handle indexes the segments that other handles
// — other processes — have created or grown since it last looked, so it
// sees every entry they have finished storing. A handle keeps the segments
// it indexed open while they are listed; one deleted under it is closed at
// its next miss, and if it was the handle's own the next Store starts a new
// segment.
//
// Within one process the cache is also a flight group: when several engine
// runs share a Cache (the served, multi-tenant tier), the first goroutine to
// miss on a key becomes its owner and everyone else blocks until the entry
// lands, then loads it — two concurrent jobs submitting overlapping
// (config, test, seed) units never simulate the same unit twice. Separate
// processes sharing a directory stay correct (checked frames) but may
// duplicate work; the flight group is per-process by design.
type Cache struct {
	dir     string
	version string
	header  []byte // segmentHeader(version)

	// mu guards the index and the flight group. No syscall runs while it
	// is held, so loads never wait on the disk.
	mu     sync.Mutex
	index  map[cacheKey]frameRef
	flight map[string]chan struct{}

	// rmu serializes refresh and guards what the handle knows of the
	// directory: the last listing and every segment's scan state.
	rmu      sync.Mutex
	mtime    time.Time           // the directory's mtime at the last listing
	listedAt time.Time           // when that listing began, by the local clock
	segs     map[string]*segment // by file name: every listed or created segment
	others   []*segment          // other writers' segments not yet ruled out: scanned for growth

	// wmu serializes Store's appends to the handle's own segment. w is that
	// segment while it takes appends: nil before the first Store, after a
	// failed write and once the file is deleted.
	wmu sync.Mutex
	w   *os.File
	end int64 // own segment's length
}

// frameRef locates one indexed frame.
type frameRef struct {
	f    *os.File
	off  int64
	size int
}

// segment is what a handle knows of one segment file in its directory.
type segment struct {
	name string
	f    *os.File // opened by the first scan, or at creation for the handle's own
	done bool     // of another layout or version, or deleted: never read again
	next int64    // where the next scan resumes: 0 until the header checks
	size int64    // the file's size at the last scan
}

// OpenCache opens (creating if needed) a cache directory, keyed with the
// current CodeVersion, and indexes the segments already there.
func OpenCache(dir string) (*Cache, error) {
	return openCache(dir, CodeVersion())
}

func openCache(dir, version string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("regress: cache: %w", err)
	}
	c := &Cache{
		dir:     dir,
		version: version,
		header:  segmentHeader(version),
		index:   make(map[cacheKey]frameRef),
		segs:    make(map[string]*segment),
		flight:  make(map[string]chan struct{}),
	}
	c.refresh()
	return c, nil
}

// Dir returns the backing directory.
func (c *Cache) Dir() string { return c.dir }

// Key derives the content hash of one work unit. The canonical serialized
// configuration (FormatConfig — the same text the .cfg corpus round-trips
// through, building on the lint.Source provenance of parameter files) keys
// the config by value, not by name: renaming a file moves nothing, editing
// any parameter invalidates exactly that configuration's entries. Tests are
// keyed by registry name and bug sets by their canonical rendering; the
// code version covers everything else (test definitions included).
//
// The last argument is ignored and not hashed: it named a kernel backend
// when there was more than one. It is deprecated and kept only because
// perfledger's unit replay (replayUnit) still passes it; pass "".
func (c *Cache) Key(cfg nodespec.Config, testName string, seed int64, bugs bca.Bugs, _ string) string {
	h := sha256.New()
	for _, part := range []string{
		c.version,
		FormatConfig(cfg),
		testName,
		fmt.Sprintf("%d", seed),
		fmt.Sprintf("%+v", bugs),
	} {
		io.WriteString(h, part)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// parseKey decodes a key as Key renders it.
func parseKey(key string) (k cacheKey, ok bool) {
	if len(key) != 2*keySize {
		return k, false
	}
	_, err := hex.Decode(k[:], []byte(key))
	return k, err == nil
}

// Load fetches the entry for key, reporting whether a valid one exists. A
// key no segment holds, a frame whose length, key or CRC does not check, a
// foreign magic, another code version, a truncated record, trailing bytes or
// a record without both views all read as a miss.
func (c *Cache) Load(key string) (*core.PairRecord, bool) {
	return c.load(key, true)
}

// load is Load; with rescan false an index miss is final, without a look at
// the directory.
func (c *Cache) load(key string, rescan bool) (*core.PairRecord, bool) {
	k, ok := parseKey(key)
	if !ok {
		return nil, false
	}
	ref, ok := c.lookup(k)
	if !ok && rescan {
		c.refresh()
		ref, ok = c.lookup(k)
	}
	if !ok {
		return nil, false
	}
	buf := make([]byte, ref.size)
	if _, err := ref.f.ReadAt(buf, ref.off); err != nil {
		return nil, false
	}
	got, entry, size := nextFrame(buf)
	if size != len(buf) || got != k {
		return nil, false
	}
	_, _, rec, ok := decodeEntry(entry, c.version)
	return rec, ok
}

func (c *Cache) lookup(k cacheKey) (frameRef, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ref, ok := c.index[k]
	return ref, ok
}

// acquire resolves a work unit against the cache and the in-process flight
// group. It returns exactly one of:
//
//   - (rec, nil, nil): a valid entry exists — the unit is served from disk;
//   - (nil, release, nil): the caller is now the flight owner for key and
//     must simulate the unit, then call release exactly once (after Store on
//     success, or bare on failure so waiters can take over);
//   - (nil, nil, err): ctx was cancelled while waiting on another owner.
//
// While an owner is in flight every other acquire of the same key blocks,
// then re-probes — the dedupe that makes a second identical job simulate
// zero units even when submitted concurrently with the first.
func (c *Cache) acquire(ctx context.Context, key string) (*core.PairRecord, func(), error) {
	for {
		if rec, ok := c.Load(key); ok {
			return rec, nil, nil
		}
		c.mu.Lock()
		ch, inFlight := c.flight[key]
		if !inFlight {
			c.flight[key] = make(chan struct{})
			c.mu.Unlock()
			// The previous owner may have stored and released between our
			// Load miss and taking the lock; re-probe the index (an owner
			// indexes its entry before releasing) before simulating.
			if rec, ok := c.load(key, false); ok {
				c.release(key)
				return rec, nil, nil
			}
			return nil, func() { c.release(key) }, nil
		}
		c.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

// release ends the caller's flight ownership of key, waking every waiter.
func (c *Cache) release(key string) {
	c.mu.Lock()
	if ch, ok := c.flight[key]; ok {
		delete(c.flight, key)
		close(ch)
	}
	c.mu.Unlock()
}

// Store appends the entry for key to the handle's segment as one frame and
// indexes it. The configuration is not stored: the key already pins it, and
// Load's caller re-attaches the one it looked up with. A failed or short
// write returns the error and retires the segment; the next Store starts a
// new one.
func (c *Cache) Store(key string, _ nodespec.Config, testName string, seed int64, rec *core.PairRecord) error {
	k, ok := parseKey(key)
	if !ok {
		return fmt.Errorf("regress: cache store: malformed key %q", key)
	}
	entry := encodeEntry(c.version, testName, seed, rec)
	frame := appendFrame(make([]byte, 0, frameOverhead+len(entry)), k, entry)

	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.w == nil {
		if err := c.newSegment(); err != nil {
			return fmt.Errorf("regress: cache store: %w", err)
		}
	}
	f := c.w
	if _, err := f.Write(frame); err != nil {
		c.w = nil
		return fmt.Errorf("regress: cache store: %w", err)
	}
	ref := frameRef{f: f, off: c.end, size: len(frame)}
	c.end += int64(len(frame))
	c.mu.Lock()
	c.index[k] = ref
	c.mu.Unlock()
	return nil
}

// newSegment creates the handle's own segment and writes its header. It
// holds rmu, so no listing sees the file before it is known as the
// handle's own.
func (c *Cache) newSegment() error {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	f, err := os.CreateTemp(c.dir, "pack-*"+segmentExt)
	if err != nil {
		return err
	}
	if _, err := f.Write(c.header); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	name := filepath.Base(f.Name())
	c.segs[name] = &segment{name: name, f: f}
	c.w, c.end = f, int64(len(c.header))
	return nil
}

// refresh indexes what other handles have stored since this one last
// looked, outside mu: it re-reads the directory listing if the directory
// has changed, then scans each segment of this version that another handle
// writes, from its last good frame, if the file has grown. A segment that
// has left the listing is closed; if it was the handle's own, the next
// Store starts a new one.
func (c *Cache) refresh() {
	c.rmu.Lock()
	gone := c.relist()
	kept := c.others[:0]
	for _, seg := range c.others {
		if c.scan(seg) {
			kept = append(kept, seg)
		}
	}
	clear(c.others[len(kept):])
	c.others = kept
	c.rmu.Unlock()
	for _, f := range gone {
		c.wmu.Lock()
		if c.w == f {
			c.w = nil
		}
		c.wmu.Unlock()
		f.Close()
	}
}

// relist re-reads the directory listing unless the directory's mtime shows
// that no file was created or deleted since the last one. It adds the
// segments it has not seen to segs and others, and drops the ones that are
// gone, returning their open files. An mtime within one tick of the last
// listing proves nothing, because a change in that same tick leaves it as
// it was, so it is listed again. A directory that no longer exists lists no
// segment.
func (c *Cache) relist() (gone []*os.File) {
	now := time.Now()
	info, err := os.Stat(c.dir)
	if err == nil && info.ModTime().Equal(c.mtime) && c.mtime.Before(c.listedAt.Add(-mtimeTick(c.mtime))) {
		return nil
	}
	var names []string
	if err == nil {
		if names, err = readNames(c.dir); err == nil {
			c.mtime, c.listedAt = info.ModTime(), now
		}
	}
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	listed := make(map[string]bool)
	for _, name := range names {
		if filepath.Ext(name) != segmentExt {
			continue
		}
		listed[name] = true
		if c.segs[name] == nil {
			seg := &segment{name: name}
			c.segs[name] = seg
			c.others = append(c.others, seg)
		}
	}
	for name, seg := range c.segs {
		if listed[name] {
			continue
		}
		delete(c.segs, name)
		seg.done = true
		if seg.f != nil {
			gone = append(gone, seg.f)
			seg.f = nil
		}
	}
	return gone
}

// mtimeTick bounds how coarsely the filesystem stamps the directory's
// mtime. Linux stamps it from a clock that ticks at least every 10 ms; a
// filesystem that keeps whole seconds (an mtime with no fraction) gets two.
func mtimeTick(mtime time.Time) time.Duration {
	if mtime.Nanosecond() == 0 {
		return 2 * time.Second
	}
	return 20 * time.Millisecond
}

// readNames lists the file names in dir.
func readNames(dir string) ([]string, error) {
	d, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.Readdirnames(-1)
}

// scan indexes the frames seg has gained since its last scan and reports
// whether seg is still worth scanning. The first scan reads the header
// alone; a segment of another layout or version is never read again.
func (c *Cache) scan(seg *segment) bool {
	if seg.done {
		return false
	}
	if seg.f == nil {
		f, err := os.Open(filepath.Join(c.dir, seg.name))
		if err != nil {
			return true
		}
		seg.f = f
	}
	info, err := seg.f.Stat()
	if err != nil || info.Size() <= seg.size {
		return true
	}
	seg.size = info.Size()
	if seg.next == 0 {
		head := make([]byte, min(seg.size, int64(len(c.header))))
		n, _ := seg.f.ReadAt(head, 0) // a short read checks what it got
		next, ok := scanSegment(head[:n], c.header, 0, nil)
		if !ok {
			seg.done = true
			seg.f.Close()
			seg.f = nil
			return false
		}
		if seg.next = next; next == 0 {
			return true // header not yet whole: retried once the file grows
		}
	}
	buf := make([]byte, seg.size-seg.next)
	n, _ := seg.f.ReadAt(buf, seg.next) // a short read scans what it got
	type found struct {
		k   cacheKey
		ref frameRef
	}
	var frames []found
	seg.next, _ = scanSegment(buf[:n], c.header, seg.next, func(k cacheKey, off int64, entry []byte) {
		frames = append(frames, found{k, frameRef{seg.f, off, frameOverhead + len(entry)}})
	})
	c.mu.Lock()
	for _, fr := range frames {
		c.index[fr.k] = fr.ref
	}
	c.mu.Unlock()
	return true
}

// scanSegment walks data, the bytes of a segment from offset base on: base
// is 0 for a segment not yet looked at, else the end of its last good frame.
// At base 0 it first checks that data opens with header; ok is false for a
// segment of another layout or version. It then calls fn with the key,
// offset and entry of each frame in turn, and stops at the first frame that
// runs past the end of data or fails its CRC: that frame and every one after
// it are misses. It returns the offset where the next scan resumes, which is
// 0 while the header is incomplete. It allocates nothing.
func scanSegment(data, header []byte, base int64, fn func(k cacheKey, off int64, entry []byte)) (next int64, ok bool) {
	if base == 0 {
		n := min(len(data), len(header))
		if !bytes.Equal(data[:n], header[:n]) {
			return 0, false
		}
		if n < len(header) {
			return 0, true
		}
		data, base = data[n:], int64(n)
	}
	for {
		k, entry, size := nextFrame(data)
		if size == 0 {
			return base, true
		}
		fn(k, base, entry)
		data, base = data[size:], base+int64(size)
	}
}

// nextFrame reads the frame at the start of data. It returns the frame's
// key, its entry and its size, or size 0 when the frame runs past the end of
// data or fails its CRC.
func nextFrame(data []byte) (k cacheKey, entry []byte, size int) {
	if len(data) < frameOverhead {
		return k, nil, 0
	}
	n := binary.LittleEndian.Uint32(data)
	if uint64(n) > uint64(len(data)-frameOverhead) {
		return k, nil, 0
	}
	end := 4 + keySize + int(n)
	if crc32.Checksum(data[4:end], castagnoli) != binary.LittleEndian.Uint32(data[end:]) {
		return k, nil, 0
	}
	copy(k[:], data[4:])
	return k, data[4+keySize : end], end + 4
}

// appendFrame appends the frame of entry under k to dst.
func appendFrame(dst []byte, k cacheKey, entry []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(entry)))
	start := len(dst)
	dst = append(dst, k[:]...)
	dst = append(dst, entry...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// segmentHeader is the header of a segment holding entries of version.
func segmentHeader(version string) []byte {
	var e wire.Encoder
	e.Raw(segmentMagic)
	e.Str(version)
	return e.Bytes()
}

// encodeEntry encodes one unit's entry: the magic, the code version, then
// test and seed — which only make an entry identifiable when debugging —
// and the record.
func encodeEntry(version, test string, seed int64, rec *core.PairRecord) []byte {
	var e wire.Encoder
	e.Raw(entryMagic)
	e.Str(version)
	e.Str(test)
	e.Int(seed)
	rec.Encode(&e)
	return e.Bytes()
}

// decodeEntry decodes an entry strictly: a foreign magic, another code
// version, a truncated record, trailing bytes or a record without both views
// fail.
func decodeEntry(data []byte, version string) (test string, seed int64, rec *core.PairRecord, ok bool) {
	d := wire.NewDecoder(data)
	if !d.Raw(entryMagic) || d.Str() != version {
		return "", 0, nil, false
	}
	test, seed = d.Str(), d.Int()
	rec = core.DecodePairRecord(d)
	if d.Finish() != nil || rec.RTL == nil || rec.BCA == nil {
		return "", 0, nil, false
	}
	return test, seed, rec, true
}
