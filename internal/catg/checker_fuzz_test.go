package catg

import (
	"encoding/binary"
	"reflect"
	"sort"
	"testing"

	"crve/internal/sim"
	"crve/internal/stbus"
)

// A fuzz input is two header bytes — the port's protocol type and whether
// the checker watches the initiator side — then one stepBytes-byte record
// per cycle. Every field fits its wire, so the port carries exactly what
// the script says.
const stepBytes = 11

const (
	flagReq = 1 << iota
	flagGnt
	flagRReq
	flagRGnt
	flagEOP
	flagLck
	flagREOP
)

// encodeScript is decodeScript's inverse for the scripts of checker_test.go.
func encodeScript(typ stbus.Type, initiatorSide bool, steps []scriptStep) []byte {
	b := []byte{byte(typ - stbus.Type1), 0}
	if initiatorSide {
		b[1] = 1
	}
	for _, s := range steps {
		var r [stepBytes]byte
		for bit, on := range []bool{s.req, s.gnt, s.rreq, s.rgnt, s.cell.EOP, s.cell.Lck, s.resp.EOP} {
			if on {
				r[0] |= 1 << bit
			}
		}
		r[1] = byte(s.cell.Opc)
		binary.LittleEndian.PutUint16(r[2:4], uint16(s.cell.Addr))
		r[4], r[5] = s.cell.TID, s.cell.Src
		r[6] = s.cell.Pri<<4 | byte(s.cell.BE)
		r[7] = s.cell.Data.Byte(0)
		r[8], r[9], r[10] = s.resp.ROpc, s.resp.TID, s.resp.Src
		b = append(b, r[:]...)
	}
	return b
}

// decodeScript reads a fuzz input: the port type, the side and the script.
func decodeScript(b []byte) (stbus.Type, bool, []scriptStep) {
	if len(b) < 2 {
		return stbus.Type3, true, nil
	}
	typ, initiatorSide := stbus.Type1+stbus.Type(b[0]%3), b[1]&1 == 1
	var steps []scriptStep
	for b = b[2:]; len(b) >= stepBytes; b = b[stepBytes:] {
		f := b[0]
		steps = append(steps, scriptStep{
			req: f&flagReq != 0, gnt: f&flagGnt != 0, rreq: f&flagRReq != 0, rgnt: f&flagRGnt != 0,
			cell: stbus.Cell{
				Opc: stbus.Opcode(b[1]), Addr: uint64(binary.LittleEndian.Uint16(b[2:4])),
				TID: b[4], Src: b[5], Pri: b[6] >> 4, BE: uint64(b[6] & 0xf),
				Data: sim.B64(uint64(b[7])), EOP: f&flagEOP != 0, Lck: f&flagLck != 0,
			},
			resp: stbus.RespCell{ROpc: b[8], TID: b[9], Src: b[10], EOP: f&flagREOP != 0},
		})
	}
	return typ, initiatorSide, steps
}

// FuzzPortChecker steps the checker core on arbitrary port traffic, as a
// faulty DUT could drive it: a protocol type, a side and a per-cycle script
// of handshakes, request cells and response cells. The core, stepped on the
// script's samples directly and stepped on what SamplePort reads back from a
// port in a simulator that replays the script, must not panic, must flag the
// same violations both ways, and must flag them in cycle order.
func FuzzPortChecker(f *testing.F) {
	names := make([]string, 0, len(checkerScripts))
	for name := range checkerScripts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sc := checkerScripts[name]
		f.Add(encodeScript(sc.typ, true, sc.steps))
		f.Add(encodeScript(sc.typ, false, sc.steps))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		typ, initiatorSide, steps := decodeScript(b)
		if len(steps) > 256 {
			return
		}
		cfg := nodeCfg(1, 2)
		cfg.Port.Type = typ
		var route RouteFunc
		if initiatorSide {
			route = NodeRouter(cfg, 0)
		}
		direct := NewChecker("p", cfg, initiatorSide, route)
		for _, st := range steps {
			s := st.sample()
			direct.Step(&s)
		}
		for i := 0; i < 3; i++ {
			direct.Step(&PortSample{})
		}
		wired, err := scriptOnPort(cfg, initiatorSide, steps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct.Violations, wired.Violations) {
			t.Fatalf("violations differ:\nsamples %v\nwires   %v", direct.Violations, wired.Violations)
		}
		for k := 1; k < len(direct.Violations); k++ {
			if direct.Violations[k].Cycle < direct.Violations[k-1].Cycle {
				t.Fatalf("violations out of cycle order: %v", direct.Violations)
			}
		}
	})
}
