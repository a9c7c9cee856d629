package fabric_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"crve/internal/fabric"
)

// FuzzParseFabric fuzzes the .fab loader: a topology file is input from
// outside the process. Parsing and checking must never panic, two parses of
// one input must give identical reports, and every diagnostic must name a
// file: the input, or a node configuration it loaded. The corpus is seeded
// with the negative corpus's topologies and the Figure 1 topology, read as
// one file, input.fab, whose loader serves the seeds' node configurations
// from memory under the paths the seeds give them and refuses any other.
func FuzzParseFabric(f *testing.F) {
	const input = "input.fab"
	seeds, err := filepath.Glob("../../configs/bad/*.fab")
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, "../../examples/interconnect/figure1.fab")
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	cfgs := map[string]string{}
	for rel, path := range map[string]string{
		"fabric/n1x1.cfg": "../../configs/bad/fabric/n1x1.cfg",
		"fabric/n2x2.cfg": "../../configs/bad/fabric/n2x2.cfg",
		"nodeA.cfg":       "../../examples/interconnect/nodeA.cfg",
		"nodeB.cfg":       "../../examples/interconnect/nodeB.cfg",
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		cfgs[rel] = string(data)
	}
	load := mapLoader(cfgs)
	f.Fuzz(func(t *testing.T, data []byte) {
		top := fabric.Parse(input, bytes.NewReader(data), load)
		rep := top.Check()
		if again := fabric.Parse(input, bytes.NewReader(data), load).Check(); !reflect.DeepEqual(rep, again) {
			t.Fatalf("two parses of one input differ:\n%v\n%v", rep.Diags, again.Diags)
		}
		named := map[string]bool{input: true}
		for _, src := range top.Configs {
			named[src.File] = true
		}
		for _, d := range rep.Diags {
			if !named[d.Pos.File] {
				t.Fatalf("diagnostic %v names neither the input nor a configuration it loaded", d)
			}
		}
	})
}
