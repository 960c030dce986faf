package main

import (
	"encoding/json"
	"os"
	"time"

	"dnsbackscatter/cmd/bsperf/stats"
)

// span is one timed call into a layer, recorded by the harness around
// the call — never inside the program under test. Times are nanoseconds
// since the recorder started; Parent indexes the enclosing span (-1 for
// a repetition's root) and Rep numbers the traced repetition.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Rep    int    `json:"rep"`
}

// spans is the in-memory span recorder of a traced run. A nil *spans is
// the untraced run: do just calls through, so a repetition is written
// once and runs both ways.
type spans struct {
	t0    time.Time
	all   []span
	stack []int
	rep   int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// do runs f inside a span named name, a child of the span now open.
func (s *spans) do(name string, f func()) {
	if s == nil {
		f()
		return
	}
	parent := -1
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	id := len(s.all)
	s.all = append(s.all, span{Name: name, Parent: parent, Rep: s.rep, Start: int64(time.Since(s.t0))})
	s.stack = append(s.stack, id)
	f()
	s.all[id].End = int64(time.Since(s.t0))
	s.stack = s.stack[:len(s.stack)-1]
}

// nextRep closes a traced repetition.
func (s *spans) nextRep() {
	if s != nil {
		s.rep++
	}
}

// selfTimes returns, per repetition, each span name's self time in
// seconds: a span's duration minus the part its children cover. Spans
// of one name within a repetition add up.
func (s *spans) selfTimes() []map[string]float64 {
	if s == nil {
		return nil
	}
	self := make([]int64, len(s.all))
	for i, sp := range s.all {
		self[i] += sp.End - sp.Start
		if sp.Parent >= 0 {
			self[sp.Parent] -= sp.End - sp.Start
		}
	}
	reps := make([]map[string]float64, s.rep)
	for i := range reps {
		reps[i] = make(map[string]float64)
	}
	for i, sp := range s.all {
		if sp.Rep < len(reps) {
			reps[sp.Rep][sp.Name] += float64(self[i]) / 1e9
		}
	}
	return reps
}

// medianSelf returns the median over repetitions of name's self time;
// ok is false when no repetition recorded a span of that name.
func medianSelf(reps []map[string]float64, name string) (s float64, ok bool) {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		var has bool
		xs[i], has = r[name]
		ok = ok || has
	}
	return stats.Median(xs), ok
}

// traceFile is the document a traced run leaves behind.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

// write saves the spans as JSON at path.
func (s *spans) write(path, workload string, seed uint64) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: s.all})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
