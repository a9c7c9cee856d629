package wire

import (
	"errors"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var e Encoder
	e.Raw("MAG1")
	e.Uint(0)
	e.Uint(math.MaxUint64)
	e.Int(-1)
	e.Int(math.MinInt64)
	e.Bool(true)
	e.Str("")
	e.Str("héllo")
	e.Uint(3)

	d := NewDecoder(e.Bytes())
	if !d.Raw("MAG1") {
		t.Error("magic")
	}
	if d.Uint() != 0 || d.Uint() != math.MaxUint64 {
		t.Error("uint")
	}
	if d.Int() != -1 || d.Int() != math.MinInt64 {
		t.Error("int")
	}
	if !d.Bool() {
		t.Error("bool")
	}
	if d.Str() != "" || d.Str() != "héllo" {
		t.Error("string")
	}
	if n := d.Count(1); n != 0 || !errors.Is(d.Err(), errTruncated) {
		t.Errorf("a count of 3 with no bytes left must fail as truncated, got %d, %v", n, d.Err())
	}
}

// TestRejectsNonCanonical pins the strictness the round-trip guarantee rests
// on: each input is decodable by a lenient reader but has a shorter or
// different canonical form, so it must fail.
func TestRejectsNonCanonical(t *testing.T) {
	for name, c := range map[string]struct {
		data []byte
		read func(*Decoder)
	}{
		"overlong zero":   {[]byte{0x80, 0x00}, func(d *Decoder) { d.Uint() }},
		"overlong one":    {[]byte{0x81, 0x80, 0x00}, func(d *Decoder) { d.Uint() }},
		"overflow":        {[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, func(d *Decoder) { d.Uint() }},
		"bool 2":          {[]byte{2}, func(d *Decoder) { d.Bool() }},
		"string too long": {[]byte{5, 'a'}, func(d *Decoder) { d.Str() }},
		"trailing byte":   {[]byte{1, 0}, func(d *Decoder) { d.Uint() }},
		"empty":           {nil, func(d *Decoder) { d.Bool() }},
	} {
		d := NewDecoder(c.data)
		c.read(d)
		if d.Finish() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCountBoundsAllocation: a count larger than the remaining bytes could
// hold at minSize bytes per element is refused before the caller allocates.
func TestCountBoundsAllocation(t *testing.T) {
	var e Encoder
	e.Uint(1 << 40)
	e.Raw("abcdefgh")
	if n := NewDecoder(e.Bytes()).Count(1); n != 0 {
		t.Errorf("count %d accepted over 8 bytes", n)
	}
	e = Encoder{}
	e.Uint(3)
	e.Raw("abcdef")
	if n := NewDecoder(e.Bytes()).Count(2); n != 3 {
		t.Errorf("3 elements of 2 bytes in 6 bytes: got %d", n)
	}
	if n := NewDecoder(e.Bytes()).Count(3); n != 0 {
		t.Errorf("3 elements of 3 bytes in 6 bytes: got %d", n)
	}
}
