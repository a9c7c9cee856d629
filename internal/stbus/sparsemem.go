package stbus

import "maps"

// SparseMem is a sparse byte-addressed memory, the store behind every
// memory target model. It keeps aligned 8-byte words, so serving a packet
// costs a map operation per word touched rather than one per byte. A byte
// never written reads 0; addresses wrap at 2^64. The zero value is an empty
// memory.
type SparseMem struct {
	words map[uint64]uint64
	rd    []byte // Serve's read-data scratch: BuildResponse copies it into the cells
}

// Byte returns the byte at addr.
func (m *SparseMem) Byte(addr uint64) byte {
	return byte(m.words[addr>>3] >> (8 * (addr & 7)))
}

// Clone returns a memory holding the same bytes that shares no storage with
// m.
func (m *SparseMem) Clone() SparseMem { return SparseMem{words: maps.Clone(m.words)} }

// Read fills dst with the bytes from addr upwards.
func (m *SparseMem) Read(addr uint64, dst []byte) {
	for len(dst) > 0 {
		w := m.words[addr>>3]
		for lane := addr & 7; lane < 8 && len(dst) > 0; lane++ {
			dst[0] = byte(w >> (8 * lane))
			dst = dst[1:]
			addr++
		}
	}
}

// Write stores src from addr upwards.
func (m *SparseMem) Write(addr uint64, src []byte) {
	if m.words == nil {
		m.words = make(map[uint64]uint64)
	}
	for len(src) > 0 {
		key := addr >> 3
		w := m.words[key]
		for lane := addr & 7; lane < 8 && len(src) > 0; lane++ {
			shift := 8 * lane
			w = w&^(0xff<<shift) | uint64(src[0])<<shift
			src = src[1:]
			addr++
		}
		m.words[key] = w
	}
}

// Serve executes a complete request packet, as granted on a port of
// configuration cfg, against the memory and returns its response packet.
// The first cell carries the operation: a load reads before a store
// writes, so a swap or read-modify-write answers with the old data. A
// packet BuildResponse rejects is answered with one error cell. Every
// memory target model serves its packets here; the cells are not retained.
func (m *SparseMem) Serve(cfg PortConfig, cells []Cell) []RespCell {
	first := cells[0]
	op, addr := first.Opc, first.Addr
	var rd []byte
	if op.IsLoad() {
		n := op.SizeBytes()
		if cap(m.rd) < n {
			m.rd = make([]byte, n)
		}
		rd = m.rd[:n]
		m.Read(addr, rd)
	}
	if op.HasWriteData() {
		m.Write(addr, ExtractWriteData(cfg.Endian, cells, cfg.BusBytes()))
	}
	resp, err := BuildResponse(cfg.Type, cfg.Endian, op, addr, rd, cfg.BusBytes(), first.TID, first.Src, false)
	if err != nil {
		return []RespCell{{ROpc: RespError, EOP: true, TID: first.TID, Src: first.Src}}
	}
	return resp
}
