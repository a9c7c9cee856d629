package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one work unit or job
// share a key; Parent is the ID of the span that made the call (0 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Phase  string `json:"phase"`
	Name   string `json:"name"`
	Key    string `json:"key"`
	// Start and End are nanoseconds since the tracer's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Count is the work done inside the span, where the caller knows it:
	// simulated cycles of a view run, bytes of a report.
	Count uint64 `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. A nil tracer
// records nothing, so untraced code paths can share the calls.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	phase string
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setPhase labels the spans begun from now on.
func (t *tracer) setPhase(p string) {
	t.mu.Lock()
	t.phase = p
	t.mu.Unlock()
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name, key string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Phase: t.phase, Name: name, Key: key, Start: now})
	return len(t.spans)
}

// end closes span id, recording count units of work done inside it.
func (t *tracer) end(id int, count uint64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Count = count
	t.mu.Unlock()
}

// interval records a span whose bounds another component timestamped.
func (t *tracer) interval(name, key string, parent int, from, to time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Phase: t.phase, Name: name, Key: key,
		Start: int64(from.Sub(t.epoch)), End: int64(to.Sub(t.epoch)),
	})
}

// pick returns the spans named name of the first phase, in order, that
// recorded any. A workload's own passes come first; the probes a traced run
// adds for layers those passes do not reach come after.
func (t *tracer) pick(name string, phases ...string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ph := range phases {
		var out []span
		for _, s := range t.spans {
			if s.Phase == ph && s.Name == name {
				out = append(out, s)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	return nil
}

// write stores the spans as JSON lines in dir/<workload>-seed<seed>.jsonl.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
