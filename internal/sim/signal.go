package sim

import "fmt"

// Signal is a named, width-checked wire with SystemC signal semantics:
// reads observe the value committed at the previous delta, and writes take
// effect at the next delta boundary. Signals are created by
// (*Simulator).Signal and are owned by exactly one Simulator.
type Signal struct {
	sim     *Simulator
	id      int
	name    string
	width   int32
	pending bool

	cur  Bits
	next Bits
	// mask points at the maskTab entry for width, letting Set mask
	// without a (non-inlinable) Bits.Mask call.
	mask *Bits

	// sensitive holds the combinational processes to wake when the
	// committed value changes.
	sensitive []*process
	// watches lists the change journals to note when the committed value
	// changes; nil for an unwatched signal.
	watches *watchRef
}

// Name returns the hierarchical signal name.
func (s *Signal) Name() string { return s.name }

// Width returns the signal width in bits.
func (s *Signal) Width() int { return int(s.width) }

// ID returns the simulator-unique dense signal index, usable as a slice key
// by tracers and monitors.
func (s *Signal) ID() int { return s.id }

// strictCheck panics when the currently evaluating combinational process
// reads a signal outside its sensitivity list: such a process would not be
// re-run when the signal changes, and the levelized scheduler would rank it
// against an incomplete input set. Sequential processes and cycle-end hooks
// read freely.
func (s *Signal) strictCheck() {
	p := s.sim.cur
	if p == nil || p.seq || p.sensHas(s.id) {
		return
	}
	panic(fmt.Sprintf("sim: strict sensitivity: process %q read signal %q outside its sensitivity list",
		p.name, s.name))
}

// Get returns the current committed value.
func (s *Signal) Get() Bits {
	if s.sim.Strict {
		s.strictCheck()
	}
	return s.cur
}

// U64 returns the low 64 bits of the current committed value.
func (s *Signal) U64() uint64 {
	if s.sim.Strict {
		s.strictCheck()
	}
	return s.cur.Uint64()
}

// Bool reports whether the current committed value is non-zero.
func (s *Signal) Bool() bool {
	if s.sim.Strict {
		s.strictCheck()
	}
	return s.cur.Bool()
}

// Set schedules v (masked to the signal width) to be committed at the next
// delta boundary. Writing the current value cancels any pending change, like
// a SystemC sc_signal write of an equal value.
func (s *Signal) Set(v Bits) {
	m := s.mask
	v.v[0] &= m.v[0]
	v.v[1] &= m.v[1]
	v.v[2] &= m.v[2]
	v.v[3] &= m.v[3]
	if !s.pending {
		if v.Equal(s.cur) {
			return
		}
		s.pending = true
		s.sim.pending = append(s.sim.pending, s)
	}
	s.next = v
}

// SetU64 schedules the low 64 bits.
func (s *Signal) SetU64(v uint64) { s.Set(B64(v)) }

// SetBool schedules a single-bit value.
func (s *Signal) SetBool(v bool) { s.Set(BBool(v)) }

// force installs a value immediately, bypassing delta semantics. It is only
// used by the kernel for initialisation before time starts.
func (s *Signal) force(v Bits) { s.cur = v.Mask(int(s.width)) }

func (s *Signal) String() string {
	return fmt.Sprintf("%s[%d]=%s", s.name, s.width, s.cur)
}
