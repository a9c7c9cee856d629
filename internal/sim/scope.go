package sim

// Scope is a naming helper that prefixes signal and process names with a
// hierarchical path, mirroring module instantiation in an HDL. Scopes carry
// no simulation state of their own.
type Scope struct {
	sim    *Simulator
	prefix string
}

// Root returns the top-level scope of a simulator.
func Root(sm *Simulator) Scope { return Scope{sim: sm} }

// Sub returns a child scope named name.
func (sc Scope) Sub(name string) Scope {
	return Scope{sim: sc.sim, prefix: sc.join(name)}
}

// Path returns the scope's full hierarchical prefix ("" at the root).
func (sc Scope) Path() string { return sc.prefix }

// Sim returns the underlying simulator.
func (sc Scope) Sim() *Simulator { return sc.sim }

func (sc Scope) join(name string) string {
	if sc.prefix == "" {
		return name
	}
	return sc.prefix + "." + name
}

// Signal creates a signal named under this scope.
func (sc Scope) Signal(name string, width int) *Signal {
	return sc.sim.Signal(sc.join(name), width)
}

// Bool creates a 1-bit signal named under this scope.
func (sc Scope) Bool(name string) *Signal { return sc.sim.Bool(sc.join(name)) }

// Seq registers a sequential process named under this scope.
func (sc Scope) Seq(name string, fn func()) { sc.sim.Seq(sc.join(name), fn) }

// CombOut registers a combinational process named under this scope.
func (sc Scope) CombOut(name string, fn func(), outputs []*Signal, sensitivity ...*Signal) {
	sc.sim.CombOut(sc.join(name), fn, outputs, sensitivity...)
}
