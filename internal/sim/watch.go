package sim

import "fmt"

// Journal is a set of indices kept in the order they were first noted and
// emptied as a whole by Drain. (*Simulator).Watch returns one that the
// kernel's commit feeds: it notes a watched signal, once, the first time
// its committed value changes after the consumer last drained the journal.
// A consumer that samples the watched signals at the end of every cycle (an
// alignment reference, a waveform recorder) then pays for the signals that
// changed, not for every signal it watches.
//
// A note means "may differ from the value you last read": a signal that
// changes and changes back within one cycle — a combinational glitch that
// settles to its old value — is noted too, so a consumer re-reads each noted
// signal and compares it with its own last value. Notes accumulate until
// drained, at most one per index, so a consumer may skip cycles.
type Journal struct {
	noted   []bool  // noted[i]: index i is on the journal
	changed []int32 // noted indices in the order first noted
	spare   []int32 // the slice the previous Drain returned
}

// NewJournal returns an empty journal over the indices 0..n-1.
func NewJournal(n int) *Journal { return &Journal{noted: make([]bool, n)} }

// Note adds index i unless it is already on the journal.
func (j *Journal) Note(i int32) {
	if !j.noted[i] {
		j.noted[i] = true
		j.changed = append(j.changed, i)
	}
}

// Drain returns the indices noted since the last Drain, each once, in the
// order they were first noted, and empties the journal. The slice belongs
// to the journal: the caller may reorder it, and it stays valid until the
// next Drain.
func (j *Journal) Drain() []int32 {
	out := j.changed
	for _, i := range out {
		j.noted[i] = false
	}
	j.changed, j.spare = j.spare[:0], out
	return out
}

// watchRef is one watch over a signal, with the signal's index in it, and
// the signal's next watch.
type watchRef struct {
	j    *Journal
	idx  int32
	next *watchRef
}

// Watch opens a change journal over sigs, which must all belong to sm. The
// journal's indices are positions in sigs; a signal listed twice is noted
// under both. Watches last as long as the simulator, across re-freezes.
func (sm *Simulator) Watch(sigs []*Signal) *Journal {
	j := NewJournal(len(sigs))
	refs := make([]watchRef, len(sigs))
	for i, s := range sigs {
		if s.sim != sm {
			panic(fmt.Sprintf("sim: watch over foreign signal %q", s.name))
		}
		refs[i] = watchRef{j: j, idx: int32(i), next: s.watches}
		s.watches = &refs[i]
	}
	return j
}
