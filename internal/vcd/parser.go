package vcd

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"crve/internal/sim"
)

// Var is a declared VCD variable.
type Var struct {
	// Name is the full hierarchical name, scopes joined with dots, with the
	// top module scope omitted.
	Name  string
	Width int
	Code  string
}

// Change is one value change of a variable.
type Change struct {
	Time  uint64
	Value sim.Bits
}

// File is a parsed VCD dump.
type File struct {
	Timescale string
	TopModule string
	Vars      []Var
	// Changes holds, per variable (indexed as Vars), the time-ordered value
	// changes including the initial $dumpvars values.
	Changes [][]Change
	// EndTime is the last timestamp, which is also the largest.
	EndTime uint64

	byName map[string]int
}

// VarIndex returns the index of the variable with the given hierarchical
// name, or -1.
func (f *File) VarIndex(name string) int {
	if i, ok := f.byName[name]; ok {
		return i
	}
	return -1
}

// ValueAt returns the value of variable v at the given time (the last change
// at or before time; zero if none).
func (f *File) ValueAt(v int, time uint64) sim.Bits {
	ch := f.Changes[v]
	// Binary search for the last change with Time <= time.
	i := sort.Search(len(ch), func(i int) bool { return ch[i].Time > time }) - 1
	if i < 0 {
		return sim.Bits{}
	}
	return ch[i].Value
}

// Cycles returns the number of complete clock cycles covered by the dump,
// assuming TimePerCycle time units per cycle and a sample at each cycle
// boundary starting from time 0.
func (f *File) Cycles() uint64 {
	return f.EndTime/TimePerCycle + 1
}

// Parse reads a VCD stream.
func Parse(r io.Reader) (*File, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	f := &File{byName: map[string]int{}}
	// codeIdx maps each identifier code to the first variable declared with
	// it. Several $vars may share a code (a simulator aliases a port and the
	// net it drives this way) and a change to the code changes each of them,
	// so the others share the first one's changes (aliasOf). A vector change
	// must fit the narrowest of them.
	type codeVars struct{ first, narrowest int }
	codeIdx := map[string]codeVars{}
	var aliasOf []int
	var scopes []string
	time := uint64(0)
	inDefs := true

	joinScope := func(name string) string {
		// Scope depth 0 is the top module: omit it from hierarchical names so
		// names match the sim-side signal names.
		if len(scopes) <= 1 {
			return name
		}
		return strings.Join(scopes[1:], ".") + "." + name
	}

	// collect tokens of a $keyword ... $end directive spanning lines.
	readDirective := func(first []string) ([]string, error) {
		toks := first
		for {
			for i, t := range toks {
				if t == "$end" {
					return toks[:i], nil
				}
			}
			if !sc.Scan() {
				return nil, fmt.Errorf("vcd: unterminated directive")
			}
			toks = append(toks, strings.Fields(sc.Text())...)
		}
	}

	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		toks := strings.Fields(line)
		switch {
		case toks[0] == "$timescale":
			body, err := readDirective(toks[1:])
			if err != nil {
				return nil, err
			}
			f.Timescale = strings.Join(body, " ")
		case toks[0] == "$scope":
			body, err := readDirective(toks[1:])
			if err != nil {
				return nil, err
			}
			if len(body) != 2 {
				return nil, fmt.Errorf("vcd: malformed $scope %q", line)
			}
			if len(scopes) == 0 {
				f.TopModule = body[1]
			}
			scopes = append(scopes, body[1])
		case toks[0] == "$upscope":
			if len(scopes) == 0 {
				return nil, fmt.Errorf("vcd: $upscope without scope")
			}
			scopes = scopes[:len(scopes)-1]
		case toks[0] == "$var":
			body, err := readDirective(toks[1:])
			if err != nil {
				return nil, err
			}
			if len(body) < 4 {
				return nil, fmt.Errorf("vcd: malformed $var %q", line)
			}
			w, err := strconv.Atoi(body[1])
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("vcd: bad var width %q", body[1])
			}
			name := joinScope(body[3])
			v := Var{Name: name, Width: w, Code: body[2]}
			cv, ok := codeIdx[v.Code]
			if !ok {
				cv = codeVars{len(f.Vars), len(f.Vars)}
			} else if w < f.Vars[cv.narrowest].Width {
				cv.narrowest = len(f.Vars)
			}
			codeIdx[v.Code] = cv
			aliasOf = append(aliasOf, cv.first)
			f.byName[name] = len(f.Vars)
			f.Vars = append(f.Vars, v)
			f.Changes = append(f.Changes, nil)
		case toks[0] == "$enddefinitions":
			inDefs = false
		case toks[0] == "$dumpvars", toks[0] == "$end", toks[0] == "$date", toks[0] == "$version", toks[0] == "$comment":
			// $date/$version/$comment bodies are skipped until their $end.
			if toks[0] == "$date" || toks[0] == "$version" || toks[0] == "$comment" {
				if _, err := readDirective(toks[1:]); err != nil {
					return nil, err
				}
			}
		case toks[0][0] == '#':
			t, err := strconv.ParseUint(toks[0][1:], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("vcd: bad timestamp %q", toks[0])
			}
			// Changes are kept in time order for ValueAt's search, so
			// time may not run backwards.
			if t < time {
				return nil, fmt.Errorf("vcd: timestamp %s is before #%d", toks[0], time)
			}
			time, f.EndTime = t, t
		case !inDefs && (toks[0][0] == '0' || toks[0][0] == '1' || toks[0][0] == 'x' || toks[0][0] == 'z' ||
			toks[0][0] == 'X' || toks[0][0] == 'Z'):
			// Scalar change: value immediately followed by the id code.
			code := toks[0][1:]
			cv, ok := codeIdx[code]
			if !ok {
				return nil, fmt.Errorf("vcd: unknown id code %q", code)
			}
			val := sim.Bits{}
			if toks[0][0] == '1' {
				val = sim.B64(1)
			}
			f.Changes[cv.first] = append(f.Changes[cv.first], Change{Time: time, Value: val})
		case !inDefs && (toks[0][0] == 'b' || toks[0][0] == 'B'):
			if len(toks) != 2 {
				return nil, fmt.Errorf("vcd: malformed vector change %q", line)
			}
			cv, ok := codeIdx[toks[1]]
			if !ok {
				return nil, fmt.Errorf("vcd: unknown id code %q", toks[1])
			}
			val, err := sim.ParseBinary(toks[0][1:])
			if err != nil {
				return nil, err
			}
			// A wire holds only its width's bits, so a wider value is not a
			// dump of one.
			if v := f.Vars[cv.narrowest]; v.Width < sim.MaxBitsWidth && !val.Equal(val.Mask(v.Width)) {
				return nil, fmt.Errorf("vcd: value %s of %q at #%d wider than %d bits", toks[0], v.Name, time, v.Width)
			}
			f.Changes[cv.first] = append(f.Changes[cv.first], Change{Time: time, Value: val})
		default:
			// Real-number changes and other extensions are out of scope.
			return nil, fmt.Errorf("vcd: unsupported record %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i, first := range aliasOf {
		if first != i {
			ch := f.Changes[first]
			f.Changes[i] = ch[:len(ch):len(ch)] // capped: an append never shows in another
		}
	}
	return f, nil
}
