package regress

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"crve/internal/nodespec"
)

// corpusRoot is the directory of every configuration shipped in the
// repository, good and bad alike (configs/, configs/closure/, configs/bad/
// and its fabric helpers).
var corpusRoot = filepath.Join("..", "..", "configs")

// configCorpus lists every *.cfg file under corpusRoot.
func configCorpus(tb testing.TB) []string {
	tb.Helper()
	var files []string
	err := filepath.WalkDir(corpusRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".cfg") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	if len(files) < 40 {
		tb.Fatalf("only %d corpus files found under %s", len(files), corpusRoot)
	}
	return files
}

// checkFormatRoundTrip formats cfg, parses the text back and formats it
// again. The re-parsed config must equal cfg and the second format must give
// the same bytes. FormatConfig omits two fields nothing reads, so the
// comparison clears them: Allowed outside a partial crossbar (Connected and
// lint ignore it there) and ProgBase without ProgPort (every reader is
// guarded by ProgPort).
func checkFormatRoundTrip(cfg nodespec.Config) error {
	cfg = cfg.WithDefaults()
	text := FormatConfig(cfg)
	back, _, backErrs := parseLines("", strings.NewReader(text))
	if len(backErrs) > 0 {
		return fmt.Errorf("formatted config does not re-parse: %v\n%s", backErrs, text)
	}
	back = back.WithDefaults()
	want := cfg
	if want.Arch != nodespec.PartialCrossbar {
		want.Allowed = nil
	}
	if !want.ProgPort {
		want.ProgBase = 0
	}
	if !reflect.DeepEqual(back, want) {
		return fmt.Errorf("round trip changed the config:\n got %#v\nwant %#v", back, want)
	}
	if again := FormatConfig(back); again != text {
		return fmt.Errorf("format is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", text, again)
	}
	return nil
}

// TestFormatConfigFixpoint is the confidence prerequisite for crvelint -fix:
// rewriting a configuration through the FormatConfig round trip must be a
// fixpoint — parse(format(parse(x))) == parse(x), and a second format pass
// changes zero bytes — for every parseable configuration shipped in the
// repository. Files that do not parse are skipped: -fix never rewrites
// those.
func TestFormatConfigFixpoint(t *testing.T) {
	parsed := 0
	for _, path := range configCorpus(t) {
		rel, _ := filepath.Rel(corpusRoot, path)
		t.Run(filepath.ToSlash(rel), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			cfg, _, lineErrs := parseLines(path, f)
			if len(lineErrs) > 0 {
				t.Skipf("does not parse (%d line errors): -fix never rewrites it", len(lineErrs))
			}
			parsed++
			if err := checkFormatRoundTrip(cfg); err != nil {
				t.Error(err)
			}
		})
	}
	if parsed < 36 {
		t.Errorf("only %d corpus files parsed: the fixpoint property barely exercised", parsed)
	}
}

// FuzzParseConfig feeds the parameter-file parser arbitrary text, seeded
// from every shipped configuration. Nothing may panic, and every input
// ParseConfig accepts must format to text ParseConfig accepts again, naming
// the same configuration, with formatting a fixpoint. The result cache keys
// a unit by FormatConfig's output, so this is what keeps two accepted
// configurations that simulate differently from sharing a key.
func FuzzParseConfig(f *testing.F) {
	for _, path := range configCorpus(f) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// The two fields FormatConfig omits: allowed on a shared bus and
	// prog_base without prog_port.
	f.Add([]byte("type = t2\ndata_bits = 32\narch = shared\nallowed = 1\nnum_init = 1\nnum_tgt = 1\nmap = 0x0:0x1000:0\n"))
	f.Add([]byte("type = t2\ndata_bits = 32\nnum_init = 1\nnum_tgt = 1\nmap = 0x0:0x1000:0\nprog_base = 0x8000\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := ParseConfig(strings.NewReader(FormatConfig(cfg))); err != nil {
			t.Fatalf("formatted config is refused: %v\n%s", err, FormatConfig(cfg))
		}
		if err := checkFormatRoundTrip(cfg); err != nil {
			t.Fatal(err)
		}
	})
}
