package catg

import (
	"strings"
	"testing"

	"crve/internal/stbus"
)

func sbFixture() (*Scoreboard, func(tr stbus.Transaction), func(tr stbus.Transaction)) {
	cfg := nodeCfg(2, 2)
	cfg.ProgPort = true
	cfg.ProgBase = 0x10_0000
	sb := NewScoreboard(cfg)
	addInit := func(tr stbus.Transaction) { sb.AddInitiatorTransaction(&tr) }
	addTgt := func(tr stbus.Transaction) { sb.AddTargetTransaction(&tr) }
	return sb, addInit, addTgt
}

func TestScoreboardMatchesCleanStreams(t *testing.T) {
	sb, addInit, addTgt := sbFixture()
	tr := stbus.Transaction{
		Initiator: 0, Target: 1, Opc: stbus.ST4, Addr: 0x2000,
		TID: 3, Src: 0, WriteData: []byte{1, 2, 3, 4},
	}
	addInit(tr)
	tt := tr
	tt.Initiator = -1
	addTgt(tt)
	if errs := sb.Check(); len(errs) != 0 {
		t.Fatalf("clean match flagged: %v", errs)
	}
}

func TestScoreboardDetectsWriteCorruption(t *testing.T) {
	sb, addInit, addTgt := sbFixture()
	tr := stbus.Transaction{Initiator: 0, Target: 0, Opc: stbus.ST4, Addr: 0x1000,
		TID: 1, WriteData: []byte{1, 2, 3, 4}}
	addInit(tr)
	tt := tr
	tt.WriteData = []byte{1, 2, 3, 5} // corrupted through the DUT
	addTgt(tt)
	errs := sb.Check()
	if len(errs) != 1 || !strings.Contains(errs[0], "write data corrupted") {
		t.Fatalf("corruption not flagged: %v", errs)
	}
}

func TestScoreboardDetectsReadCorruption(t *testing.T) {
	sb, addInit, addTgt := sbFixture()
	tr := stbus.Transaction{Initiator: 0, Target: 0, Opc: stbus.LD4, Addr: 0x1000,
		TID: 1, ReadData: []byte{9, 9, 9, 9}}
	addInit(tr)
	tt := tr
	tt.ReadData = []byte{9, 9, 9, 8}
	addTgt(tt)
	errs := sb.Check()
	if len(errs) != 1 || !strings.Contains(errs[0], "read data corrupted") {
		t.Fatalf("read corruption not flagged: %v", errs)
	}
}

func TestScoreboardDetectsMissingTargetSide(t *testing.T) {
	sb, addInit, _ := sbFixture()
	addInit(stbus.Transaction{Initiator: 0, Target: 1, Opc: stbus.LD4, Addr: 0x2000, TID: 2})
	errs := sb.Check()
	if len(errs) != 1 || !strings.Contains(errs[0], "never observed at target side") {
		t.Fatalf("lost transaction not flagged: %v", errs)
	}
}

func TestScoreboardDetectsPhantomTargetSide(t *testing.T) {
	sb, _, addTgt := sbFixture()
	addTgt(stbus.Transaction{Target: 0, Opc: stbus.LD4, Addr: 0x1000, TID: 2})
	errs := sb.Check()
	if len(errs) != 1 || !strings.Contains(errs[0], "never requested") {
		t.Fatalf("phantom transaction not flagged: %v", errs)
	}
}

func TestScoreboardUnmappedMustError(t *testing.T) {
	sb, addInit, _ := sbFixture()
	addInit(stbus.Transaction{Initiator: 0, Target: RouteUnmapped, Opc: stbus.LD4,
		Addr: 0xF000_0000, TID: 1, Err: false})
	errs := sb.Check()
	if len(errs) != 1 || !strings.Contains(errs[0], "unmapped access must error") {
		t.Fatalf("unmapped without error not flagged: %v", errs)
	}
}

func TestScoreboardProgModel(t *testing.T) {
	sb, addInit, _ := sbFixture()
	base := uint64(0x10_0000)
	// Write 0x05 to reg 0, then a matching readback: clean.
	addInit(stbus.Transaction{Initiator: 0, Target: RouteProg, Opc: stbus.ST4,
		Addr: base, TID: 1, WriteData: []byte{0x05, 0, 0, 0}})
	addInit(stbus.Transaction{Initiator: 0, Target: RouteProg, Opc: stbus.LD4,
		Addr: base, TID: 2, ReadData: []byte{0x05, 0, 0, 0}})
	if errs := sb.Check(); len(errs) != 0 {
		t.Fatalf("clean prog sequence flagged: %v", errs)
	}
}

func TestScoreboardProgReadbackMismatch(t *testing.T) {
	sb, addInit, _ := sbFixture()
	base := uint64(0x10_0000)
	addInit(stbus.Transaction{Initiator: 0, Target: RouteProg, Opc: stbus.ST4,
		Addr: base, TID: 1, WriteData: []byte{0x05, 0, 0, 0}})
	addInit(stbus.Transaction{Initiator: 0, Target: RouteProg, Opc: stbus.LD4,
		Addr: base, TID: 2, ReadData: []byte{0x07, 0, 0, 0}})
	errs := sb.Check()
	if len(errs) != 1 || !strings.Contains(errs[0], "register readback") {
		t.Fatalf("prog readback mismatch not flagged: %v", errs)
	}
}

func TestScoreboardProgIllegalMustError(t *testing.T) {
	sb, addInit, _ := sbFixture()
	addInit(stbus.Transaction{Initiator: 0, Target: RouteProg, Opc: stbus.ST8,
		Addr: 0x10_0000, TID: 1, WriteData: make([]byte, 8), Err: false})
	errs := sb.Check()
	if len(errs) != 1 || !strings.Contains(errs[0], "illegal programming access") {
		t.Fatalf("illegal prog access not flagged: %v", errs)
	}
}

func TestScoreboardErrorFlagMismatch(t *testing.T) {
	sb, addInit, addTgt := sbFixture()
	tr := stbus.Transaction{Initiator: 0, Target: 0, Opc: stbus.LD4, Addr: 0x1000, TID: 1, Err: true}
	addInit(tr)
	tt := tr
	tt.Err = false
	addTgt(tt)
	errs := sb.Check()
	if len(errs) != 1 || !strings.Contains(errs[0], "error flag changed") {
		t.Fatalf("error-flag mismatch not flagged: %v", errs)
	}
}

func TestScoreboardAccessors(t *testing.T) {
	sb, addInit, addTgt := sbFixture()
	addInit(stbus.Transaction{Initiator: 0, Target: RouteUnmapped, Err: true})
	addTgt(stbus.Transaction{Target: 0, Opc: stbus.LD4})
	if len(sb.initTxs) != 1 || len(sb.tgtTxs) != 1 {
		t.Error("accessors wrong")
	}
}

// TestScoreboardCheckIsIdempotent: a second Check starts from the reset
// registers again, so a readback of a register's default before a store
// to it checks clean every time.
func TestScoreboardCheckIsIdempotent(t *testing.T) {
	sb, addInit, _ := sbFixture()
	base := uint64(0x10_0000)
	def := sb.Node.DefaultPriorities()[0]
	addInit(stbus.Transaction{Initiator: 0, Target: RouteProg, Opc: stbus.LD4,
		Addr: base, TID: 1, ReadData: []byte{def, 0, 0, 0}})
	addInit(stbus.Transaction{Initiator: 0, Target: RouteProg, Opc: stbus.ST4,
		Addr: base, TID: 2, WriteData: []byte{def + 1, 0, 0, 0}})
	for call := 1; call <= 2; call++ {
		if errs := sb.Check(); len(errs) != 0 {
			t.Fatalf("Check call %d flagged a clean sequence: %v", call, errs)
		}
	}
}
