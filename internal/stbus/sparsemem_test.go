package stbus

import (
	"math"
	"math/rand"
	"testing"
)

// TestSparseMemMatchesByteMap runs random reads and writes, some straddling
// words and the top of the address space, against a byte-keyed map.
func TestSparseMemMatchesByteMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m SparseMem
	ref := map[uint64]byte{}
	bases := []uint64{0, 0x1000, math.MaxUint64 - 20}
	for op := 0; op < 5000; op++ {
		addr := bases[rng.Intn(len(bases))] + uint64(rng.Intn(40))
		buf := make([]byte, 1+rng.Intn(32))
		if rng.Intn(2) == 0 {
			rng.Read(buf)
			m.Write(addr, buf)
			for i, b := range buf {
				ref[addr+uint64(i)] = b
			}
			continue
		}
		m.Read(addr, buf)
		for i, b := range buf {
			a := addr + uint64(i)
			if b != ref[a] || m.Byte(a) != ref[a] {
				t.Fatalf("op %d: byte %#x reads %#x (Byte %#x), want %#x", op, a, b, m.Byte(a), ref[a])
			}
		}
	}
}

func TestSparseMemUnwrittenReadsZero(t *testing.T) {
	var m SparseMem
	buf := []byte{9, 9, 9}
	m.Read(0x40, buf)
	if buf[0]|buf[1]|buf[2] != 0 || m.Byte(7) != 0 {
		t.Errorf("empty memory read %v, Byte(7) %d", buf, m.Byte(7))
	}
	m.Write(0x41, []byte{0xaa})
	m.Read(0x40, buf)
	if buf[0] != 0 || buf[1] != 0xaa || buf[2] != 0 {
		t.Errorf("neighbours of a written byte read %v, want [0 aa 0]", buf)
	}
}
