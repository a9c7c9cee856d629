package sim

import (
	"testing"
	"testing/quick"
)

func TestB64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		if got := B64(v).Uint64(); got != v {
			t.Errorf("B64(%#x).Uint64() = %#x", v, got)
		}
	}
}

func TestBBool(t *testing.T) {
	if !BBool(true).Bool() {
		t.Error("BBool(true) should be non-zero")
	}
	if BBool(false).Bool() {
		t.Error("BBool(false) should be zero")
	}
}

func TestMaskTruncates(t *testing.T) {
	b := B64(0xff)
	if got := b.Mask(4).Uint64(); got != 0xf {
		t.Errorf("Mask(4) = %#x, want 0xf", got)
	}
	if got := b.Mask(8).Uint64(); got != 0xff {
		t.Errorf("Mask(8) = %#x, want 0xff", got)
	}
	if got := b.Mask(0); !got.IsZero() {
		t.Errorf("Mask(0) = %v, want zero", got)
	}
}

func TestMaskWide(t *testing.T) {
	b := BWords(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	m := b.Mask(200)
	if m.Word(3) != (^uint64(0))>>(256-200) {
		t.Errorf("Mask(200) high word = %#x", m.Word(3))
	}
	if m.Word(0) != ^uint64(0) || m.Word(1) != ^uint64(0) || m.Word(2) != ^uint64(0) {
		t.Error("Mask(200) should keep low words intact")
	}
}

func TestBitAndSetBit(t *testing.T) {
	var b Bits
	b = b.SetBit(0, true).SetBit(63, true).SetBit(64, true).SetBit(255, true)
	for _, i := range []int{0, 63, 64, 255} {
		if !b.Bit(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if b.Bit(1) || b.Bit(128) {
		t.Error("unexpected bits set")
	}
	b = b.SetBit(63, false)
	if b.Bit(63) {
		t.Error("bit 63 should be cleared")
	}
}

func TestFieldRoundTrip(t *testing.T) {
	b := B64(0).WithField(8, 8, B64(0xab)).WithField(100, 12, B64(0x5a5))
	if got := b.Field(8, 8).Uint64(); got != 0xab {
		t.Errorf("Field(8,8) = %#x", got)
	}
	if got := b.Field(100, 12).Uint64(); got != 0x5a5 {
		t.Errorf("Field(100,12) = %#x", got)
	}
	if got := b.Field(0, 8).Uint64(); got != 0 {
		t.Errorf("Field(0,8) = %#x, want 0", got)
	}
}

func TestBinaryStringAndParse(t *testing.T) {
	b := B64(0b1011)
	if got := b.BinaryString(4); got != "1011" {
		t.Errorf("BinaryString(4) = %q", got)
	}
	if got := b.BinaryString(6); got != "001011" {
		t.Errorf("BinaryString(6) = %q", got)
	}
	p, err := ParseBinary("1011")
	if err != nil {
		t.Fatal(err)
	}
	if p.Uint64() != 0b1011 {
		t.Errorf("ParseBinary = %#x", p.Uint64())
	}
	if _, err := ParseBinary("10a1"); err == nil {
		t.Error("ParseBinary should reject bad digits")
	}
	if _, err := ParseBinary(""); err == nil {
		t.Error("ParseBinary should reject empty input")
	}
	// x/z digits collapse to zero.
	p, err = ParseBinary("1x0z")
	if err != nil {
		t.Fatal(err)
	}
	if p.Uint64() != 0b1000 {
		t.Errorf("ParseBinary(1x0z) = %#x, want 0b1000", p.Uint64())
	}
}

func TestBinaryStringParseRoundTripProperty(t *testing.T) {
	f := func(w0, w1, w2, w3 uint64, width uint8) bool {
		w := int(width)%MaxBitsWidth + 1
		b := BWords(w0, w1, w2, w3).Mask(w)
		p, err := ParseBinary(b.BinaryString(w))
		return err == nil && p.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXorOrAndNotProperties(t *testing.T) {
	selfInverse := func(a0, a1, b0, b1 uint64) bool {
		a, b := BWords(a0, a1), BWords(b0, b1)
		return a.Xor(b).Xor(b).Equal(a)
	}
	if err := quick.Check(selfInverse, nil); err != nil {
		t.Errorf("xor self-inverse: %v", err)
	}
	deMorgan := func(a0, b0 uint64) bool {
		a, b := B64(a0), B64(b0)
		lhs := a.And(b).Not(64)
		rhs := a.Not(64).Or(b.Not(64))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(deMorgan, nil); err != nil {
		t.Errorf("de morgan: %v", err)
	}
}

func TestFieldWithFieldProperty(t *testing.T) {
	f := func(base0, base1, val uint64, loRaw, wRaw uint8) bool {
		lo := int(loRaw) % 200
		w := int(wRaw)%56 + 1
		b := BWords(base0, base1).WithField(lo, w, B64(val))
		return b.Field(lo, w).Equal(B64(val).Mask(w))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringForms(t *testing.T) {
	if got := B64(0x1f).String(); got != "0x1f" {
		t.Errorf("String() = %q", got)
	}
	wide := BWords(1, 0, 0, 2)
	if got := wide.String(); got == "" || got == "0x1" {
		t.Errorf("wide String() = %q", got)
	}
}

func TestFieldWordBoundaries(t *testing.T) {
	// A recognizable 256-bit pattern: word i holds 0x…(i)…
	b := BWords(0x1111111122222222, 0x3333333344444444, 0x5555555566666666, 0x7777777788888888)
	cases := []struct {
		lo, w int
		want  Bits
	}{
		// Straddling the 64-bit word boundary: 16 bits from 56..72.
		{56, 16, B64(0x4411)},
		// Straddling 128: 32 bits from 112..144.
		{112, 32, B64(0x66663333)},
		// Straddling 192: 24 bits from 180..204.
		{180, 24, B64(0x888555)},
		// Exactly one full word, aligned.
		{64, 64, B64(0x3333333344444444)},
		// Zero width is empty regardless of offset.
		{0, 0, Bits{}},
		{63, 0, Bits{}},
		{255, 0, Bits{}},
		// Full vector width.
		{0, 256, b},
		// Top bit alone.
		{255, 1, B64(0)},
	}
	for _, tc := range cases {
		if got := b.Field(tc.lo, tc.w); !got.Equal(tc.want) {
			t.Errorf("Field(%d,%d) = %v, want %v", tc.lo, tc.w, got, tc.want)
		}
	}
}

func TestWithFieldWordBoundaries(t *testing.T) {
	base := BWords(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	// Clear 16 bits straddling the first word boundary.
	b := base.WithField(56, 16, B64(0))
	if got := b.Field(56, 16).Uint64(); got != 0 {
		t.Errorf("straddling clear: Field(56,16) = %#x, want 0", got)
	}
	if got := b.Field(0, 56); !got.Equal(B64(0).Not(56)) {
		t.Errorf("straddling clear disturbed low bits: %v", got)
	}
	if got := b.Field(72, 56); !got.Equal(B64(0).Not(56)) {
		t.Errorf("straddling clear disturbed high bits: %v", got)
	}
	// Round trip straddling the 192 boundary.
	b = Bits{}.WithField(190, 10, B64(0x3ff))
	if got := b.Field(190, 10).Uint64(); got != 0x3ff {
		t.Errorf("Field(190,10) = %#x, want 0x3ff", got)
	}
	if b.Field(0, 190).IsZero() != true || !b.Field(200, 56).IsZero() {
		t.Error("WithField(190,10) disturbed bits outside the field")
	}
	// Zero-width insert is the identity.
	if got := base.WithField(100, 0, B64(0xffff)); !got.Equal(base) {
		t.Errorf("zero-width WithField changed the value: %v", got)
	}
	// Full-width replace.
	repl := BWords(1, 2, 3, 4)
	if got := base.WithField(0, 256, repl); !got.Equal(repl) {
		t.Errorf("full-width WithField = %v, want %v", got, repl)
	}
}

func TestBWordsPanicsOnTooMany(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BWords with 5 words should panic")
		}
	}()
	BWords(1, 2, 3, 4, 5)
}
