package alert

import (
	"bytes"
	"encoding/json"
	"sort"
	"sync"

	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/trace"
)

// Data is one evaluation input. Series is the clock: the engine steps
// through its complete buckets in order. Stream and Exemplars are
// optional joins; absent sources degrade gracefully (stream() rules
// stay inactive, firing transitions carry no exemplars).
type Data struct {
	// Series is the windowed metric document (obs.Window.Timeseries or
	// a parsed timeseries.json artifact).
	Series obs.Timeseries
	// Stream holds the live streaming-engine status scalars
	// (stream.Status.Values) read by stream() expressions. The values
	// are constant within one Eval pass.
	Stream map[string]float64
	// Exemplars looks up the n worst traces whose lookups started in
	// [from, to); firing transitions attach their IDs.
	Exemplars func(from, to simtime.Time, n int) []trace.Exemplar
	// Through, when nonzero, restricts evaluation to buckets that end
	// at or before it — live callers pass their record watermark so a
	// still-filling bucket is never evaluated. Zero evaluates every
	// bucket present (offline replay of a finished artifact).
	Through simtime.Time
}

// exemplarLimit bounds the trace IDs attached to one firing transition.
const exemplarLimit = 3

// histLimit bounds the per-rule evaluation history kept for rendering
// (sparklines, state strips). The transition log is never truncated.
const histLimit = 4096

// Transition is one state-machine edge, the unit of the alerts.jsonl
// artifact. Times are bucket starts in simulated Unix seconds.
type Transition struct {
	// T is the evaluation step that took the edge.
	T simtime.Time `json:"t"`
	// Rule names the stanza.
	Rule string `json:"rule"`
	// State is the edge taken: pending, firing, or resolved.
	State State `json:"state"`
	// Severity copies the rule's severity.
	Severity string `json:"severity"`
	// Value is the expression value at the step (for slo rules, the
	// short-window burn rate).
	Value float64 `json:"value"`
	// Threshold is the rule's threshold (for slo rules, the burn
	// factor).
	Threshold float64 `json:"threshold"`
	// Since is when the episode began: the pending step for a firing
	// edge, the firing step for a resolved edge.
	Since simtime.Time `json:"since"`
	// Exemplars are the worst offending trace IDs inside the episode's
	// window (firing edges only, when a trace join is available).
	Exemplars []string `json:"exemplars,omitempty"`
}

// histPoint is one evaluation step of one rule, kept for rendering.
type histPoint struct {
	t simtime.Time
	v float64
	s State
}

// ruleState is a rule's live state-machine position.
type ruleState struct {
	state State
	since simtime.Time // pending start while pending, firing start while firing
	value float64      // last evaluated value
	steps int          // evaluation steps taken
	flaps int          // pending episodes that ended without firing
	hist  []histPoint
}

// Engine evaluates a fixed rule list against successive Data snapshots,
// advancing each rule's state machine one bucket at a time and logging
// every transition. Construct with New; a nil *Engine is the sanctioned
// "alerting off" value (every method a no-op). Engines are safe for
// concurrent use: a live ticker may Eval while handlers render.
type Engine struct {
	mu    sync.Mutex
	rules []Rule
	st    []ruleState
	log   []Transition
	width simtime.Duration // adopted from the first evaluated series
	next  simtime.Time     // first bucket not yet evaluated
	begun bool
}

// New returns an engine over rules (in file order, which is also
// evaluation and rendering order). An empty rule list returns nil —
// alerting off.
func New(rules []Rule) *Engine {
	if len(rules) == 0 {
		return nil
	}
	e := &Engine{rules: rules, st: make([]ruleState, len(rules))}
	for i := range e.st {
		e.st[i].state = StateInactive
	}
	return e
}

// Eval advances every rule through the not-yet-evaluated complete
// buckets of d.Series, oldest first. Time comes only from the bucket
// timestamps, so repeated live calls and one offline replay of the
// finished artifact take exactly the same transitions. Mixed bucket
// widths are not supported: the engine adopts the first width it sees
// and ignores documents with a different one.
func (e *Engine) Eval(d Data) {
	if e == nil {
		return
	}
	w := d.Series.Width
	if w < 1 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.begun {
		e.width = w
	} else if w != e.width {
		return
	}
	src, lo, hi, ok := newSource(d, w)
	if !ok {
		return
	}
	start := lo
	if e.begun && e.next > start {
		start = e.next
	}
	if d.Through != 0 {
		// Only buckets that have fully elapsed: b + w <= Through.
		last := d.Through - simtime.Time(w)
		last -= ((last % simtime.Time(w)) + simtime.Time(w)) % simtime.Time(w)
		if last < hi {
			hi = last
		}
	}
	for b := start; b <= hi; b += simtime.Time(w) {
		for i := range e.rules {
			e.step(i, b, src)
		}
	}
	if hi >= start {
		e.begun = true
		e.next = hi + simtime.Time(w)
	}
}

// source indexes one Data snapshot for constant-ish-time bucket and
// cumulative lookups during an Eval pass.
type source struct {
	width  simtime.Time
	pts    map[string][]obs.Point
	prefix map[string][]int64 // prefix[i] = sum of pts[:i+1] values
	d      Data
}

// newSource builds the index and reports the bucket range present.
func newSource(d Data, w simtime.Duration) (*source, simtime.Time, simtime.Time, bool) {
	s := &source{
		width:  simtime.Time(w),
		pts:    make(map[string][]obs.Point, len(d.Series.Series)),
		prefix: make(map[string][]int64, len(d.Series.Series)),
		d:      d,
	}
	var lo, hi simtime.Time
	found := false
	for _, se := range d.Series.Series {
		if len(se.Points) == 0 {
			continue
		}
		s.pts[se.Metric] = se.Points
		pre := make([]int64, len(se.Points))
		var run int64
		for i, p := range se.Points {
			run += p.V
			pre[i] = run
		}
		s.prefix[se.Metric] = pre
		if first, last := se.Points[0].T, se.Points[len(se.Points)-1].T; !found {
			lo, hi, found = first, last, true
		} else {
			lo, hi = min(lo, first), max(hi, last)
		}
	}
	return s, lo, hi, found
}

// at returns a metric's delta in bucket b (0 when the bucket is empty
// or the metric never recorded).
func (s *source) at(metric string, b simtime.Time) float64 {
	pts := s.pts[metric]
	i := sort.Search(len(pts), func(i int) bool { return pts[i].T >= b })
	if i < len(pts) && pts[i].T == b {
		return float64(pts[i].V)
	}
	return 0
}

// cum returns a metric's cumulative deltas over buckets with start <= t.
func (s *source) cum(metric string, t simtime.Time) float64 {
	pts := s.pts[metric]
	i := sort.Search(len(pts), func(i int) bool { return pts[i].T > t })
	if i == 0 {
		return 0
	}
	return float64(s.prefix[metric][i-1])
}

// trailing returns a metric's sum over the trailing window (b-span, b]
// of bucket starts. A span narrower than one bucket still covers the
// current bucket.
func (s *source) trailing(metric string, b simtime.Time, span simtime.Duration) float64 {
	return s.cum(metric, b) - s.cum(metric, b-simtime.Time(span))
}

// eval computes a rule's (value, condition) at bucket b. Stream rules
// without a live status stay inactive rather than comparing a
// fabricated zero.
func (r *Rule) eval(b simtime.Time, s *source) (float64, bool) {
	if r.Kind == "slo" {
		denom := 1 - r.Objective
		shortBad, shortAll := s.trailing(r.Bad, b, r.Short), s.trailing(r.Good, b, r.Short)+s.trailing(r.Bad, b, r.Short)
		longBad, longAll := s.trailing(r.Bad, b, r.Long), s.trailing(r.Good, b, r.Long)+s.trailing(r.Bad, b, r.Long)
		var shortBurn, longBurn float64
		if shortAll > 0 {
			shortBurn = shortBad / shortAll / denom
		}
		if longAll > 0 {
			longBurn = longBad / longAll / denom
		}
		return shortBurn, shortBurn >= r.Burn && longBurn >= r.Burn
	}
	var v float64
	switch r.parsed.fn {
	case fnWindow:
		v = s.at(r.parsed.a, b)
	case fnRate:
		v = s.at(r.parsed.a, b) / float64(s.width)
	case fnSum:
		v = s.cum(r.parsed.a, b)
	case fnRatio:
		if den := s.at(r.parsed.b, b); den != 0 {
			v = s.at(r.parsed.a, b) / den
		}
	case fnStream:
		fv, ok := s.d.Stream[r.parsed.a]
		if !ok {
			return 0, false
		}
		v = fv
	}
	return v, compare(v, r.Op, r.Threshold)
}

// threshold is what Transition.Threshold reports: the burn factor for
// slo rules, the comparator threshold otherwise.
func (r *Rule) threshold() float64 {
	if r.Kind == "slo" {
		return r.Burn
	}
	return r.Threshold
}

// step advances rule i's state machine through bucket b.
func (e *Engine) step(i int, b simtime.Time, src *source) {
	r, st := &e.rules[i], &e.st[i]
	v, cond := r.eval(b, src)
	st.value = v
	st.steps++
	emit := func(edge State, since simtime.Time, exemplars []string) {
		e.log = append(e.log, Transition{
			T: b, Rule: r.Name, State: edge, Severity: r.Severity,
			Value: v, Threshold: r.threshold(), Since: since, Exemplars: exemplars,
		})
	}
	fire := func(since simtime.Time) {
		var ids []string
		if src.d.Exemplars != nil {
			for _, x := range src.d.Exemplars(since, b+src.width, exemplarLimit) {
				ids = append(ids, x.ID.String())
			}
		}
		emit(StateFiring, since, ids)
		st.state, st.since = StateFiring, b
	}
	switch st.state {
	case StateInactive:
		switch {
		case !cond:
		case r.For <= 0:
			fire(b)
		default:
			st.state, st.since = StatePending, b
			emit(StatePending, b, nil)
		}
	case StatePending:
		switch {
		case !cond:
			st.state = StateInactive
			st.flaps++
		case b-st.since >= simtime.Time(r.For):
			fire(st.since)
		}
	case StateFiring:
		if !cond {
			emit(StateResolved, st.since, nil)
			st.state = StateInactive
		}
	}
	if len(st.hist) < histLimit {
		st.hist = append(st.hist, histPoint{t: b, v: v, s: st.state})
	}
}

// Log returns a copy of every transition taken so far, in evaluation
// order (bucket ascending, then rule-file order) — already canonical.
func (e *Engine) Log() []Transition {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Transition, len(e.log))
	copy(out, e.log)
	return out
}

// JSONL renders the transition log one JSON object per line — the
// canonical alerts.jsonl artifact, byte-identical for identical inputs
// at any worker count. A nil or never-fired engine renders empty.
func (e *Engine) JSONL() []byte {
	var buf bytes.Buffer
	for _, tr := range e.Log() {
		line, err := json.Marshal(tr)
		if err != nil {
			// Transition is a plain struct; Marshal cannot fail.
			continue
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// Filter narrows Status and render output. Empty fields match
// everything; State matches the rule's current state.
type Filter struct {
	State    string
	Severity string
}

// match applies the filter to one rule's current status.
func (f Filter) match(r Rule, st ruleState) bool {
	if f.State != "" && string(st.state) != f.State {
		return false
	}
	if f.Severity != "" && r.Severity != f.Severity {
		return false
	}
	return true
}

// RuleStatus is one rule's current position, for /alerts and bsview alerts.
type RuleStatus struct {
	// Rule is the stanza name; Kind is alert or slo.
	Rule string `json:"rule"`
	Kind string `json:"kind"`
	// Severity is the rule's rung; State its current machine position.
	Severity string `json:"severity"`
	State    State  `json:"state"`
	// Since is when the current pending/firing episode began (0 while
	// inactive).
	Since simtime.Time `json:"since,omitempty"`
	// Value is the last evaluated expression value.
	Value float64 `json:"value"`
	// Steps counts evaluation steps; Flaps counts pending episodes
	// that cleared without firing.
	Steps int `json:"steps"`
	Flaps int `json:"flaps,omitempty"`
	// Desc is the rule's operator-facing one-liner.
	Desc string `json:"desc,omitempty"`
}

// StatusDoc is the /alerts JSON document.
type StatusDoc struct {
	// Rules lists the filtered rules in file order.
	Rules []RuleStatus `json:"rules"`
	// Transitions is the filtered transition log, oldest first.
	Transitions []Transition `json:"transitions"`
}

// Status assembles the filtered status document. Transitions filter by
// severity and by edge state (a "firing" filter keeps firing edges).
func (e *Engine) Status(f Filter) StatusDoc {
	doc := StatusDoc{Rules: []RuleStatus{}, Transitions: []Transition{}}
	if e == nil {
		return doc
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, r := range e.rules {
		st := e.st[i]
		if !f.match(r, st) {
			continue
		}
		rs := RuleStatus{
			Rule: r.Name, Kind: r.Kind, Severity: r.Severity, State: st.state,
			Value: st.value, Steps: st.steps, Flaps: st.flaps, Desc: r.Desc,
		}
		if st.state != StateInactive {
			rs.Since = st.since
		}
		doc.Rules = append(doc.Rules, rs)
	}
	for _, tr := range e.log {
		if f.State != "" && string(tr.State) != f.State {
			continue
		}
		if f.Severity != "" && tr.Severity != f.Severity {
			continue
		}
		doc.Transitions = append(doc.Transitions, tr)
	}
	return doc
}

// StatusJSON marshals the filtered status document (sorted struct
// fields, deterministic bytes).
func (e *Engine) StatusJSON(f Filter) []byte {
	out, err := json.MarshalIndent(e.Status(f), "", "  ")
	if err != nil {
		return []byte("{}")
	}
	return append(out, '\n')
}

// Firing reports how many rules are currently firing.
func (e *Engine) Firing() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, st := range e.st {
		if st.state == StateFiring {
			n++
		}
	}
	return n
}

// Rules returns a copy of the engine's rule list in file order.
func (e *Engine) Rules() []Rule {
	if e == nil {
		return nil
	}
	out := make([]Rule, len(e.rules))
	copy(out, e.rules)
	return out
}
