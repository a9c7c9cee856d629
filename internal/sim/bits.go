// Package sim implements a small deterministic discrete-event simulation
// kernel with SystemC-like evaluate/update (delta cycle) semantics.
//
// The kernel is the substrate that replaces the SystemC + NCSim stack used by
// the paper: both the RTL view and the BCA view of an IP are modelled as
// processes reading and writing Signals, driven by a single synchronous clock
// owned by the Simulator. Two kinds of processes exist:
//
//   - sequential processes (Seq) run once per rising clock edge and model
//     registered logic;
//   - combinational processes (Comb) are sensitive to a set of signals and
//     re-run, within the same cycle, until every signal is stable ("delta
//     cycles"), modelling zero-delay combinational logic such as arbitration
//     grant trees.
//
// All scheduling is deterministic: processes run in registration order, so a
// given testbench and seed always produce the same waveforms — a property the
// paper's alignment methodology (same tests, same seeds, two models) depends
// on.
package sim

import (
	"fmt"
	"strings"
)

// BitsWords is the number of 64-bit words backing a Bits value. STBus data
// ports range from 8 to 256 bits, so four words suffice for every signal in
// the system.
const BitsWords = 4

// MaxBitsWidth is the widest representable vector.
const MaxBitsWidth = 64 * BitsWords

// Bits is a fixed-capacity bit vector of up to 256 bits, the value type
// carried by every Signal. The zero value is a zero-valued vector of width 0;
// widths are carried by signals, and Bits values are normalised (masked) to
// the width of wherever they are stored.
type Bits struct {
	v [BitsWords]uint64
}

// B64 builds a Bits from a single 64-bit value.
func B64(v uint64) Bits {
	var b Bits
	b.v[0] = v
	return b
}

// BBool builds a single-bit Bits from a bool.
func BBool(v bool) Bits {
	if v {
		return B64(1)
	}
	return Bits{}
}

// BWords builds a Bits from up to four little-endian 64-bit words.
func BWords(words ...uint64) Bits {
	var b Bits
	if len(words) > BitsWords {
		panic(fmt.Sprintf("sim: BWords given %d words, max %d", len(words), BitsWords))
	}
	copy(b.v[:], words)
	return b
}

// Uint64 returns the low 64 bits of the vector.
func (b Bits) Uint64() uint64 { return b.v[0] }

// Bool reports whether the vector is non-zero.
func (b Bits) Bool() bool {
	return b.v[0]|b.v[1]|b.v[2]|b.v[3] != 0
}

// Word returns the i-th little-endian 64-bit word.
func (b Bits) Word(i int) uint64 { return b.v[i] }

// Equal reports exact equality of two vectors.
func (b Bits) Equal(o Bits) bool { return b.v == o.v }

// IsZero reports whether every bit is clear.
func (b Bits) IsZero() bool { return !b.Bool() }

// maskTab[w] has the low w bits set; Mask is on the kernel's hottest path
// (every Signal write masks to the signal width), so the masks are built
// once and applied branch-free.
var maskTab = func() [MaxBitsWidth + 1]Bits {
	var t [MaxBitsWidth + 1]Bits
	for w := 1; w <= MaxBitsWidth; w++ {
		t[w] = t[w-1].SetBit(w-1, true)
	}
	return t
}()

//go:noinline
func panicMaskWidth(w int) {
	panic(fmt.Sprintf("sim: mask width %d out of range", w))
}

// Mask returns b truncated to width w bits.
func (b Bits) Mask(w int) Bits {
	if uint(w) > MaxBitsWidth {
		panicMaskWidth(w)
	}
	m := &maskTab[w]
	b.v[0] &= m.v[0]
	b.v[1] &= m.v[1]
	b.v[2] &= m.v[2]
	b.v[3] &= m.v[3]
	return b
}

// Bit returns bit i as a bool.
func (b Bits) Bit(i int) bool {
	if i < 0 || i >= MaxBitsWidth {
		panic(fmt.Sprintf("sim: bit index %d out of range", i))
	}
	return b.v[i/64]>>(uint(i)%64)&1 == 1
}

// SetBit returns a copy of b with bit i set to v.
func (b Bits) SetBit(i int, v bool) Bits {
	if i < 0 || i >= MaxBitsWidth {
		panic(fmt.Sprintf("sim: bit index %d out of range", i))
	}
	if v {
		b.v[i/64] |= 1 << (uint(i) % 64)
	} else {
		b.v[i/64] &^= 1 << (uint(i) % 64)
	}
	return b
}

// ones returns a Bits with the low w bits set.
func ones(w int) Bits {
	var r Bits
	full := w / 64
	for i := 0; i < full; i++ {
		r.v[i] = ^uint64(0)
	}
	if rem := w % 64; rem != 0 {
		r.v[full] = ^uint64(0) >> (64 - rem)
	}
	return r
}

// shl returns b shifted left by n bits (n in 0..MaxBitsWidth).
func (b Bits) shl(n int) Bits {
	word, off := n/64, uint(n)%64
	var r Bits
	for i := BitsWords - 1; i >= word; i-- {
		r.v[i] = b.v[i-word] << off
		if off != 0 && i-word-1 >= 0 {
			r.v[i] |= b.v[i-word-1] >> (64 - off)
		}
	}
	return r
}

// shr returns b shifted right by n bits (n in 0..MaxBitsWidth).
func (b Bits) shr(n int) Bits {
	word, off := n/64, uint(n)%64
	var r Bits
	for i := 0; i+word < BitsWords; i++ {
		r.v[i] = b.v[i+word] >> off
		if off != 0 && i+word+1 < BitsWords {
			r.v[i] |= b.v[i+word+1] << (64 - off)
		}
	}
	return r
}

// Byte returns byte i of the vector (byte 0 is bits 7..0). It is the
// byte-aligned special case of Field(i*8, 8), cheap enough for the per-byte
// lane packing the STBus data path performs on every cell.
func (b Bits) Byte(i int) byte {
	if i < 0 || i >= BitsWords*8 {
		panic(fmt.Sprintf("sim: byte %d out of range", i))
	}
	return byte(b.v[i>>3] >> (uint(i&7) * 8))
}

// WithByte returns a copy of b with byte i replaced — the byte-aligned
// special case of WithField(i*8, 8, val).
func (b Bits) WithByte(i int, val byte) Bits {
	if i < 0 || i >= BitsWords*8 {
		panic(fmt.Sprintf("sim: byte %d out of range", i))
	}
	sh := uint(i&7) * 8
	b.v[i>>3] = b.v[i>>3]&^(uint64(0xff)<<sh) | uint64(val)<<sh
	return b
}

// Field extracts w bits starting at bit lo as the low bits of the result.
// It panics if the field crosses the 256-bit capacity.
func (b Bits) Field(lo, w int) Bits {
	if lo < 0 || w < 0 || lo+w > MaxBitsWidth {
		panic(fmt.Sprintf("sim: field [%d +%d] out of range", lo, w))
	}
	return b.shr(lo).Mask(w)
}

// WithField returns a copy of b with w bits starting at lo replaced by the
// low w bits of val.
func (b Bits) WithField(lo, w int, val Bits) Bits {
	if lo < 0 || w < 0 || lo+w > MaxBitsWidth {
		panic(fmt.Sprintf("sim: field [%d +%d] out of range", lo, w))
	}
	m := ones(w).shl(lo)
	v := val.Mask(w).shl(lo)
	for i := range b.v {
		b.v[i] = b.v[i]&^m.v[i] | v.v[i]
	}
	return b
}

// Xor returns the bitwise exclusive-or of two vectors.
func (b Bits) Xor(o Bits) Bits {
	var r Bits
	for i := range r.v {
		r.v[i] = b.v[i] ^ o.v[i]
	}
	return r
}

// Or returns the bitwise or of two vectors.
func (b Bits) Or(o Bits) Bits {
	var r Bits
	for i := range r.v {
		r.v[i] = b.v[i] | o.v[i]
	}
	return r
}

// And returns the bitwise and of two vectors.
func (b Bits) And(o Bits) Bits {
	var r Bits
	for i := range r.v {
		r.v[i] = b.v[i] & o.v[i]
	}
	return r
}

// Not returns the bitwise complement of b truncated to width w.
func (b Bits) Not(w int) Bits {
	var r Bits
	for i := range r.v {
		r.v[i] = ^b.v[i]
	}
	return r.Mask(w)
}

// BinaryString renders the low w bits most-significant-first, the form VCD
// value changes use.
func (b Bits) BinaryString(w int) string {
	if w <= 0 {
		return "0"
	}
	var sb strings.Builder
	sb.Grow(w)
	for i := w - 1; i >= 0; i-- {
		if b.Bit(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// String renders the vector as a compact hexadecimal literal.
func (b Bits) String() string {
	if b.v[1] == 0 && b.v[2] == 0 && b.v[3] == 0 {
		return fmt.Sprintf("0x%x", b.v[0])
	}
	return fmt.Sprintf("0x%x_%016x_%016x_%016x", b.v[3], b.v[2], b.v[1], b.v[0])
}

// ParseBinary parses a most-significant-first binary string, as found in VCD
// value-change records.
func ParseBinary(s string) (Bits, error) {
	if len(s) == 0 {
		return Bits{}, fmt.Errorf("sim: empty binary string")
	}
	if len(s) > MaxBitsWidth {
		return Bits{}, fmt.Errorf("sim: binary string %d bits exceeds capacity %d", len(s), MaxBitsWidth)
	}
	var b Bits
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '1':
			b = b.SetBit(len(s)-1-i, true)
		case '0', 'x', 'X', 'z', 'Z':
			// x/z collapse to 0, as the kernel is two-valued.
		default:
			return Bits{}, fmt.Errorf("sim: bad binary digit %q", s[i])
		}
	}
	return b, nil
}
