package closure

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"crve/internal/core"
	"crve/internal/regress"
)

// decodeRequest decodes a job body the way the service does: strictly, an
// unknown field is an error.
func decodeRequest(data []byte) (Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

func testNames(tests []core.Test) []string {
	names := make([]string, len(tests))
	for i, tc := range tests {
		names[i] = tc.Name
	}
	return names
}

// TestListFlags: the two list flags split on commas, trim each field, keep
// empty fields (an empty test name is an unknown test, as in a JSON body),
// and print back what Set accepts.
func TestListFlags(t *testing.T) {
	var names StringList
	if err := names.Set(" a, ,b "); err != nil || !reflect.DeepEqual(names, StringList{"a", "", "b"}) || names.String() != "a,,b" {
		t.Errorf("StringList.Set: %q, %v; String %q", names, err, names.String())
	}
	var seeds SeedList
	if err := seeds.Set("3, -1,3"); err != nil || !reflect.DeepEqual(seeds, SeedList{3, -1, 3}) || seeds.String() != "3,-1,3" {
		t.Errorf("SeedList.Set: %v, %v; String %q", seeds, err, seeds.String())
	}
	if err := seeds.Set("1,x"); err == nil || err.Error() != `bad seed "x"` {
		t.Errorf("SeedList.Set(1,x) = %v, want bad seed \"x\"", err)
	}
	if (SeedList{}).String() != "" || (StringList{}).String() != "" {
		t.Error("an empty list must print as the empty string")
	}
}

// FuzzResolveRequest fuzzes the service's trust boundary: a job body is
// arbitrary JSON from outside the process. Resolve must never panic. A
// request it accepts has at least one configuration, every one of which
// validates, and a non-empty test and seed list; and the request re-encoded
// as JSON resolves again to the same configurations (by FormatConfig),
// tests and seeds. Seeded with the bodies CI and TestServiceErrors post.
func FuzzResolveRequest(f *testing.F) {
	var quoted [2]string
	for i, name := range []string{"closure/regbank.cfg", "bad/crve005_unreachable.cfg"} {
		text, err := os.ReadFile(filepath.Join("..", "..", "configs", name))
		if err != nil {
			f.Fatal(err)
		}
		q, err := json.Marshal(string(text))
		if err != nil {
			f.Fatal(err)
		}
		quoted[i] = string(q)
	}
	for _, body := range []string{
		`{"matrix": true, "quick": true}`,
		`{"configs": [REGBANK], "close": true}`,
		`{"configs": [REGBANK], "quick": true}`,
		`{"configs": [UNREACHABLE]}`,
		`{"configs": [UNREACHABLE], "nolint": true}`,
		`{"matrx": true}`,
		`{"matrix": true, "quick": true, "lanes": 4}`,
		`{"matrix": true, "quick": true, "kernel": "compiled"}`,
		`{"quick": true}`,
		`{}`,
		`{"configs": [REGBANK], "tests": ["nope"]}`,
		`{"matrix": true, "quick": true, "configs": [REGBANK], "tests": ["basic_write_read", "error_paths"],
		  "seeds": [2, 1, 2], "kernelstats": true, "record_wave": true, "max_iters": 2, "budget": 100}`,
	} {
		body = strings.ReplaceAll(body, "REGBANK", quoted[0])
		f.Add([]byte(strings.ReplaceAll(body, "UNREACHABLE", quoted[1])))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		if err != nil {
			return
		}
		cfgs, rep, opt, err := req.Resolve(nil, nil)
		if err != nil {
			return
		}
		if len(cfgs) == 0 || len(opt.Tests) == 0 || len(opt.Seeds) == 0 || rep == nil {
			t.Fatalf("resolved to %d configs, %d tests, %d seeds, report %v", len(cfgs), len(opt.Tests), len(opt.Seeds), rep)
		}
		for _, cfg := range cfgs {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("resolved configuration %s does not validate: %v", cfg.Name, err)
			}
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		req2, err := decodeRequest(again)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v\n%s", err, again)
		}
		cfgs2, _, opt2, err := req2.Resolve(nil, nil)
		if err != nil {
			t.Fatalf("re-encoded request is refused: %v\n%s", err, again)
		}
		if len(cfgs2) != len(cfgs) {
			t.Fatalf("re-encoded request resolves to %d configs, want %d", len(cfgs2), len(cfgs))
		}
		for i := range cfgs {
			if a, b := regress.FormatConfig(cfgs[i]), regress.FormatConfig(cfgs2[i]); a != b {
				t.Fatalf("configuration %d differs after re-encoding:\n%s---\n%s", i, a, b)
			}
		}
		if !reflect.DeepEqual(testNames(opt.Tests), testNames(opt2.Tests)) || !reflect.DeepEqual(opt.Seeds, opt2.Seeds) {
			t.Fatalf("re-encoded request runs tests %v seeds %v, want %v %v",
				testNames(opt2.Tests), opt2.Seeds, testNames(opt.Tests), opt.Seeds)
		}
	})
}
