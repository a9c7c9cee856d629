package stbus

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReqRespLenType2Symmetric(t *testing.T) {
	// Type II: response packet mirrors request packet length.
	for _, op := range []Opcode{LD1, LD4, LD32, ST1, ST8, ST64, RMW4} {
		for _, bus := range []int{4, 8, 16} {
			if ReqLen(Type2, op, bus) != RespLen(Type2, op, bus) {
				t.Errorf("T2 %v on %dB bus: req %d != resp %d",
					op, bus, ReqLen(Type2, op, bus), RespLen(Type2, op, bus))
			}
		}
	}
	if got := ReqLen(Type2, LD32, 4); got != 8 {
		t.Errorf("T2 LD32/32-bit req len = %d, want 8", got)
	}
	if got := ReqLen(Type2, ST64, 8); got != 8 {
		t.Errorf("T2 ST64/64-bit req len = %d, want 8", got)
	}
}

func TestReqRespLenType3Asymmetric(t *testing.T) {
	// Type III: single-cell read requests, single-cell write responses.
	if got := ReqLen(Type3, LD32, 4); got != 1 {
		t.Errorf("T3 LD32 req len = %d, want 1", got)
	}
	if got := RespLen(Type3, LD32, 4); got != 8 {
		t.Errorf("T3 LD32 resp len = %d, want 8", got)
	}
	if got := ReqLen(Type3, ST32, 4); got != 8 {
		t.Errorf("T3 ST32 req len = %d, want 8", got)
	}
	if got := RespLen(Type3, ST32, 4); got != 1 {
		t.Errorf("T3 ST32 resp len = %d, want 1", got)
	}
}

func TestReqLenType1AlwaysOne(t *testing.T) {
	for _, op := range []Opcode{LD1, LD4, ST4, LD8} {
		if ReqLen(Type1, op, 8) != 1 || RespLen(Type1, op, 8) != 1 {
			t.Errorf("T1 %v packet lengths must be 1", op)
		}
	}
}

func TestBuildRequestStoreCells(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	cells, err := BuildRequest(Type2, LittleEndian, ST8, 0x100, payload, 4, 3, 1, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("ST8 on 32-bit bus: %d cells, want 2", len(cells))
	}
	if cells[0].EOP || !cells[1].EOP {
		t.Error("EOP must be on the last cell only")
	}
	if cells[0].Addr != 0x100 || cells[1].Addr != 0x104 {
		t.Errorf("addresses %#x %#x", cells[0].Addr, cells[1].Addr)
	}
	if cells[0].BE != 0xf || cells[1].BE != 0xf {
		t.Errorf("byte enables %#x %#x, want 0xf", cells[0].BE, cells[1].BE)
	}
	if got := ExtractWriteData(LittleEndian, cells, 4); !bytes.Equal(got, payload) {
		t.Errorf("ExtractWriteData = %v, want %v", got, payload)
	}
}

func TestBuildRequestSubBusStore(t *testing.T) {
	cells, err := BuildRequest(Type2, LittleEndian, ST1, 0x103, []byte{0xab}, 4, 0, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("%d cells", len(cells))
	}
	if cells[0].BE != 0x8 {
		t.Errorf("BE = %#x, want 0x8 (lane 3)", cells[0].BE)
	}
	if got := cells[0].Data.Field(24, 8).Uint64(); got != 0xab {
		t.Errorf("lane 3 data = %#x", got)
	}
}

func TestBuildRequestBigEndianLanes(t *testing.T) {
	cells, err := BuildRequest(Type2, BigEndian, ST1, 0x103, []byte{0xab}, 4, 0, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// Big endian: address lane 3 maps to physical lane 0.
	if cells[0].BE != 0x1 {
		t.Errorf("BE = %#x, want 0x1", cells[0].BE)
	}
	if got := cells[0].Data.Field(0, 8).Uint64(); got != 0xab {
		t.Errorf("lane 0 data = %#x", got)
	}
}

func TestBuildRequestAlignment(t *testing.T) {
	if _, err := BuildRequest(Type2, LittleEndian, LD4, 0x102, nil, 4, 0, 0, 0, false); err == nil {
		t.Error("misaligned LD4 should fail")
	}
	if _, err := BuildRequest(Type2, LittleEndian, ST4, 0x100, []byte{1}, 4, 0, 0, 0, false); err == nil {
		t.Error("short payload should fail")
	}
	if _, err := BuildRequest(Type2, LittleEndian, LD4, 0x100, []byte{1}, 4, 0, 0, 0, false); err == nil {
		t.Error("payload on load should fail")
	}
	if _, err := BuildRequest(Type1, LittleEndian, RMW4, 0x100, []byte{1, 2, 3, 4}, 4, 0, 0, 0, false); err == nil {
		t.Error("RMW on Type1 should fail")
	}
}

func TestBuildRequestType3LoadSingleCell(t *testing.T) {
	cells, err := BuildRequest(Type3, LittleEndian, LD32, 0x200, nil, 4, 7, 2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || !cells[0].EOP {
		t.Fatalf("T3 LD32 request must be one EOP cell, got %d", len(cells))
	}
	if cells[0].TID != 7 || cells[0].Src != 2 {
		t.Errorf("tid/src = %d/%d", cells[0].TID, cells[0].Src)
	}
}

func TestBuildResponseLoad(t *testing.T) {
	data := make([]byte, 16)
	for i := range data {
		data[i] = byte(i + 1)
	}
	resp, err := BuildResponse(Type3, LittleEndian, LD16, 0x300, data, 4, 5, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 4 {
		t.Fatalf("%d resp cells, want 4", len(resp))
	}
	for i, c := range resp {
		if c.ROpc != RespData {
			t.Errorf("cell %d ropc %#x", i, c.ROpc)
		}
		if c.Err() {
			t.Errorf("cell %d unexpected error", i)
		}
		if (i == len(resp)-1) != c.EOP {
			t.Errorf("cell %d EOP misplaced", i)
		}
		if c.TID != 5 || c.Src != 1 {
			t.Errorf("cell %d tid/src", i)
		}
	}
	if got := ExtractReadData(LittleEndian, LD16, 0x300, resp, 4); !bytes.Equal(got, data) {
		t.Errorf("ExtractReadData = %v", got)
	}
}

func TestBuildResponseError(t *testing.T) {
	resp, err := BuildResponse(Type3, LittleEndian, LD8, 0x0, nil, 4, 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range resp {
		if !c.Err() {
			t.Error("error response cell missing error flag")
		}
	}
	resp, err = BuildResponse(Type3, LittleEndian, ST8, 0x0, nil, 4, 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 1 || !resp[0].Err() {
		t.Error("store error response malformed")
	}
}

func TestBuildResponseStoreAck(t *testing.T) {
	resp, err := BuildResponse(Type2, LittleEndian, ST8, 0x100, nil, 4, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 2 {
		t.Fatalf("T2 ST8 resp cells = %d, want 2 (symmetric)", len(resp))
	}
	for _, c := range resp {
		if c.ROpc != RespOK || c.Err() {
			t.Error("store ack should be RespOK")
		}
	}
}

// TestPackRoundTripProperty: packing payload bytes onto lanes and unpacking
// recovers the payload, for every endianness, bus width and offset.
func TestPackRoundTripProperty(t *testing.T) {
	f := func(seed int64, endianRaw, busRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := Endianness(endianRaw % 2)
		busBytes := 1 << (busRaw % 6) // 1..32
		size := 1 << rng.Intn(7)      // 1..64
		if size > busBytes {
			size = busBytes
		}
		var addr uint64
		if busBytes > size {
			addr = uint64(rng.Intn(busBytes/size)) * uint64(size)
		}
		payload := make([]byte, size)
		rng.Read(payload)
		w := PackByteLanes(e, addr, payload, busBytes)
		back := UnpackByteLanes(e, addr, w, size, busBytes)
		return bytes.Equal(payload, back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRequestRoundTripProperty: BuildRequest + ExtractWriteData is identity
// on store payloads across types, sizes, widths and endianness.
func TestRequestRoundTripProperty(t *testing.T) {
	f := func(seed int64, tyRaw, endianRaw, busRaw, sizeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ty := Type(int(tyRaw)%2 + 2) // Type2 or Type3
		e := Endianness(endianRaw % 2)
		busBytes := 4 << (busRaw % 4) // 4..32
		size := 1 << (sizeRaw % 7)    // 1..64
		op := Op(KindStore, size)
		addr := uint64(rng.Intn(1<<16)) &^ (uint64(size) - 1)
		payload := make([]byte, size)
		rng.Read(payload)
		cells, err := BuildRequest(ty, e, op, addr, payload, busBytes, 1, 2, 3, false)
		if err != nil {
			return false
		}
		return bytes.Equal(ExtractWriteData(e, cells, busBytes), payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestResponseRoundTripProperty: BuildResponse + ExtractReadData is identity
// on load payloads.
func TestResponseRoundTripProperty(t *testing.T) {
	f := func(seed int64, tyRaw, endianRaw, busRaw, sizeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ty := Type(int(tyRaw)%2 + 2)
		e := Endianness(endianRaw % 2)
		busBytes := 4 << (busRaw % 4)
		size := 1 << (sizeRaw % 7)
		op := Op(KindLoad, size)
		addr := uint64(rng.Intn(1<<16)) &^ (uint64(size) - 1)
		data := make([]byte, size)
		rng.Read(data)
		cells, err := BuildResponse(ty, e, op, addr, data, busBytes, 1, 2, false)
		if err != nil {
			return false
		}
		return bytes.Equal(ExtractReadData(e, op, addr, cells, busBytes), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEndiannessString(t *testing.T) {
	if LittleEndian.String() != "little" || BigEndian.String() != "big" {
		t.Error("endianness strings")
	}
}

// TestBEConservationProperty: the byte enables across a store request packet
// cover exactly the operation's bytes, no more, no less.
func TestBEConservationProperty(t *testing.T) {
	f := func(seed int64, tyRaw, busRaw, sizeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ty := Type(int(tyRaw)%2 + 2)
		busBytes := 4 << (busRaw % 4)
		size := 1 << (sizeRaw % 7)
		op := Op(KindStore, size)
		addr := uint64(rng.Intn(1<<16)) &^ (uint64(size) - 1)
		payload := make([]byte, size)
		cells, err := BuildRequest(ty, LittleEndian, op, addr, payload, busBytes, 0, 0, 0, false)
		if err != nil {
			return false
		}
		total := 0
		for _, c := range cells {
			for b := 0; b < busBytes; b++ {
				if c.BE&(1<<uint(b)) != 0 {
					total++
				}
			}
		}
		return total == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestExactlyOneEOPProperty: every built packet has exactly one EOP, on the
// final cell.
func TestExactlyOneEOPProperty(t *testing.T) {
	f := func(seed int64, tyRaw, kindRaw, busRaw, sizeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ty := Type(int(tyRaw)%2 + 2)
		busBytes := 4 << (busRaw % 4)
		size := 1 << (sizeRaw % 7)
		kind := KindLoad
		if kindRaw%2 == 1 {
			kind = KindStore
		}
		op := Op(kind, size)
		addr := uint64(rng.Intn(1<<16)) &^ (uint64(size) - 1)
		var payload []byte
		if op.HasWriteData() {
			payload = make([]byte, size)
		}
		cells, err := BuildRequest(ty, LittleEndian, op, addr, payload, busBytes, 0, 0, 0, false)
		if err != nil {
			return false
		}
		for i, c := range cells {
			if c.EOP != (i == len(cells)-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
