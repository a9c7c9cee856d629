package stbus

import (
	"fmt"

	"crve/internal/sim"
)

// Endianness selects the byte-lane mapping of a port, one of the CATG
// configuration parameters named by the paper.
type Endianness int

const (
	// LittleEndian places ascending memory addresses on ascending byte lanes.
	LittleEndian Endianness = iota
	// BigEndian places ascending memory addresses on descending byte lanes.
	BigEndian
)

func (e Endianness) String() string {
	if e == BigEndian {
		return "big"
	}
	return "little"
}

// lane returns the byte lane carrying memory address a on a bus of busBytes.
func (e Endianness) lane(a uint64, busBytes int) int {
	l := int(a) % busBytes
	if e == BigEndian {
		return busBytes - 1 - l
	}
	return l
}

// ReqLen returns the number of cells in the request packet of operation op
// on a port of protocol type t with a busBytes-wide data bus.
func ReqLen(t Type, op Opcode, busBytes int) int {
	n := op.SizeBytes() / busBytes
	if n < 1 {
		n = 1
	}
	switch t {
	case Type1:
		return 1
	case Type2:
		return n
	case Type3:
		// Asymmetric: operations without write data need only one request
		// cell regardless of their size.
		if !op.HasWriteData() {
			return 1
		}
		return n
	default:
		panic(fmt.Sprintf("stbus: bad type %v", t))
	}
}

// RespLen returns the number of cells in the response packet of operation op
// on a port of protocol type t with a busBytes-wide data bus.
func RespLen(t Type, op Opcode, busBytes int) int {
	n := op.SizeBytes() / busBytes
	if n < 1 {
		n = 1
	}
	switch t {
	case Type1:
		return 1
	case Type2:
		// Symmetric protocol: response mirrors the request length.
		return ReqLen(Type2, op, busBytes)
	case Type3:
		if op.IsLoad() {
			return n
		}
		return 1
	default:
		panic(fmt.Sprintf("stbus: bad type %v", t))
	}
}

// beFor returns the byte-enable mask of size bytes starting at addr on a
// busBytes-wide lane set.
func beFor(e Endianness, addr uint64, size, busBytes int) uint64 {
	if size >= busBytes {
		return fullBE(busBytes)
	}
	var be uint64
	for i := 0; i < size; i++ {
		be |= 1 << uint(e.lane(addr+uint64(i), busBytes))
	}
	return be
}

func fullBE(busBytes int) uint64 {
	if busBytes == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(busBytes)) - 1
}

// PackByteLanes packs payload bytes for memory addresses addr..addr+len-1 onto
// the byte lanes of a busBytes-wide word.
func PackByteLanes(e Endianness, addr uint64, payload []byte, busBytes int) sim.Bits {
	var w sim.Bits
	for i, b := range payload {
		w = w.WithByte(e.lane(addr+uint64(i), busBytes), b)
	}
	return w
}

// UnpackByteLanes extracts size payload bytes for addresses addr.. from a bus
// word.
func UnpackByteLanes(e Endianness, addr uint64, w sim.Bits, size, busBytes int) []byte {
	out := make([]byte, size)
	for i := range out {
		out[i] = w.Byte(e.lane(addr+uint64(i), busBytes))
	}
	return out
}

// BuildRequest assembles the request packet of an operation.
//
// addr must be size-aligned (an STBus rule the protocol checkers enforce).
// payload must hold exactly op.SizeBytes() bytes for data-carrying kinds and
// be empty otherwise.
func BuildRequest(t Type, e Endianness, op Opcode, addr uint64, payload []byte,
	busBytes int, tid, src, pri uint8, lck bool) ([]Cell, error) {
	size := op.SizeBytes()
	if !op.ValidFor(t, busBytes) {
		return nil, fmt.Errorf("stbus: opcode %v invalid for %v/%d-byte port", op, t, busBytes)
	}
	if addr%uint64(size) != 0 {
		return nil, fmt.Errorf("stbus: address %#x not aligned to %v", addr, op)
	}
	if op.HasWriteData() {
		if len(payload) != size {
			return nil, fmt.Errorf("stbus: %v payload length %d, want %d", op, len(payload), size)
		}
	} else if len(payload) != 0 {
		return nil, fmt.Errorf("stbus: %v carries no write data", op)
	}
	n := ReqLen(t, op, busBytes)
	cells := make([]Cell, n)
	per := busBytes
	if size < busBytes {
		per = size
	}
	for i := range cells {
		a := addr + uint64(i*busBytes)
		c := Cell{
			Opc:  op,
			Addr: a,
			EOP:  i == n-1,
			Lck:  lck,
			TID:  tid,
			Src:  src,
			Pri:  pri,
		}
		if op.HasWriteData() {
			lo := i * busBytes
			hi := lo + per
			if hi > size {
				hi = size
			}
			c.Data = PackByteLanes(e, a, payload[lo:hi], busBytes)
			c.BE = beFor(e, a, hi-lo, busBytes)
		} else {
			// Read-type requests advertise the lanes they want.
			c.BE = beFor(e, a, per, busBytes)
		}
		cells[i] = c
	}
	return cells, nil
}

// BuildResponse assembles the response packet of an operation given the data
// read from the target (nil for non-load kinds). err stamps every cell with
// the error flag.
func BuildResponse(t Type, e Endianness, op Opcode, addr uint64, readData []byte,
	busBytes int, tid, src uint8, respErr bool) ([]RespCell, error) {
	size := op.SizeBytes()
	n := RespLen(t, op, busBytes)
	if op.IsLoad() && !respErr {
		if len(readData) != size {
			return nil, fmt.Errorf("stbus: %v read data length %d, want %d", op, len(readData), size)
		}
	}
	cells := make([]RespCell, n)
	per := busBytes
	if size < busBytes {
		per = size
	}
	for i := range cells {
		c := RespCell{EOP: i == n-1, TID: tid, Src: src}
		if op.IsLoad() {
			c.ROpc = RespData
			if !respErr {
				a := addr + uint64(i*busBytes)
				lo := i * busBytes
				hi := lo + per
				if hi > size {
					hi = size
				}
				if lo < len(readData) {
					c.Data = PackByteLanes(e, a, readData[lo:hi], busBytes)
				}
			}
		}
		if respErr {
			c.ROpc |= RespError
		}
		cells[i] = c
	}
	return cells, nil
}

// ExtractWriteData reassembles the payload bytes of a data-carrying request
// packet. It is the inverse of BuildRequest for stores.
func ExtractWriteData(e Endianness, cells []Cell, busBytes int) []byte {
	if len(cells) == 0 || !cells[0].Opc.HasWriteData() {
		return nil
	}
	size := cells[0].Opc.SizeBytes()
	per := busBytes
	if size < busBytes {
		per = size
	}
	out := make([]byte, 0, size)
	for _, c := range cells {
		take := per
		if len(out)+take > size {
			take = size - len(out)
		}
		for i := 0; i < take; i++ {
			out = append(out, c.Data.Byte(e.lane(c.Addr+uint64(i), busBytes)))
		}
	}
	return out
}

// ExtractReadData reassembles the payload bytes of a load response packet
// given the originating request's opcode and address.
func ExtractReadData(e Endianness, op Opcode, addr uint64, cells []RespCell, busBytes int) []byte {
	if !op.IsLoad() {
		return nil
	}
	size := op.SizeBytes()
	per := busBytes
	if size < busBytes {
		per = size
	}
	out := make([]byte, 0, size)
	for i, c := range cells {
		take := per
		if len(out)+take > size {
			take = size - len(out)
		}
		a := addr + uint64(i*busBytes)
		for k := 0; k < take; k++ {
			out = append(out, c.Data.Byte(e.lane(a+uint64(k), busBytes)))
		}
	}
	return out
}
