package stba

import (
	"fmt"

	"crve/internal/catg"
	"crve/internal/sim"
	"crve/internal/stbus"
	"crve/internal/vcd"
)

// ExtractTransactions reconstructs the transaction stream observed at a port
// from a waveform dump — the "STBus transaction information" the paper's
// analyzer extracts. It replays the port's granted request and response
// cells into a catg.TxAssembler, the pairing the bench monitors use, so it
// reports what a monitor on that port completed: first-cell fields,
// payloads, and an orphan response as an errored anonymous transaction. A
// dump names neither the port's role nor its endianness, so Initiator and
// Target are -1, the bus width is the dump's data wire and byte lanes are
// read little-endian. typ selects the protocol rules used to pair responses
// with requests.
func ExtractTransactions(f *vcd.File, prefix string, typ stbus.Type) ([]*stbus.Transaction, error) {
	leaves := [...]string{"req", "gnt", "opc", "add", "data", "be", "eop", "lck", "tid", "src", "pri",
		"r_req", "r_gnt", "r_opc", "r_data", "r_eop", "r_tid", "r_src"}
	rec := f.Recording()
	var idx [len(leaves)]int
	for k, leaf := range leaves {
		if idx[k] = rec.SignalIndex(prefix + "." + leaf); idx[k] < 0 {
			return nil, fmt.Errorf("stba: port %q lacks signal %q", prefix, leaf)
		}
	}
	cfg := stbus.PortConfig{Type: typ, DataBits: f.Vars[idx[4]].Width}.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("stba: port %q: %w", prefix, err)
	}
	asm := catg.NewTxAssembler(cfg, -1, false, nil)
	// The dump is read at cycle 0 and wherever it changes: over each run of
	// cycles between, every value holds, so a handshake that fires on the
	// run's first cycle fires on each of its cycles, with the same cell.
	src, end := newRecorded(rec), rec.Cycles()
	for cyc := uint64(0); cyc < end; {
		vals, _ := src.advance(cyc)
		v := func(k int) sim.Bits { return vals[idx[k]] } // leaf k's value over the run
		req, resp := v(0).Bool() && v(1).Bool(), v(11).Bool() && v(12).Bool()
		next := src.next(end)
		for ; cyc < next && (req || resp); cyc++ {
			if req {
				asm.ReqCell(cyc, stbus.Cell{Opc: stbus.Opcode(v(2).Uint64()), Addr: v(3).Uint64(), Data: v(4),
					BE: v(5).Uint64(), EOP: v(6).Bool(), Lck: v(7).Bool(),
					TID: uint8(v(8).Uint64()), Src: uint8(v(9).Uint64()), Pri: uint8(v(10).Uint64())})
			}
			if resp {
				asm.RespCell(cyc, stbus.RespCell{ROpc: uint8(v(13).Uint64()), Data: v(14), EOP: v(15).Bool(),
					TID: uint8(v(16).Uint64()), Src: uint8(v(17).Uint64())})
			}
		}
		cyc = next
	}
	return asm.Completed, nil
}
