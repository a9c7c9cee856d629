package stbus

// SparseMem is a sparse byte-addressed memory, the store behind every
// memory target model. It keeps aligned 8-byte words, so serving a packet
// costs a map operation per word touched rather than one per byte. A byte
// never written reads 0; addresses wrap at 2^64. The zero value is an empty
// memory.
type SparseMem struct {
	words map[uint64]uint64
}

// Byte returns the byte at addr.
func (m *SparseMem) Byte(addr uint64) byte {
	return byte(m.words[addr>>3] >> (8 * (addr & 7)))
}

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
