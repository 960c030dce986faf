package alert

import (
	"fmt"
	"strings"

	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
)

// stateChar is the state-strip glyph for one evaluation step.
func stateChar(s State) byte {
	switch s {
	case StatePending:
		return 'p'
	case StateFiring:
		return 'F'
	default:
		return '.'
	}
}

// stateRank orders states for strip compression: a chunk renders its
// worst step.
func stateRank(s State) int {
	switch s {
	case StatePending:
		return 1
	case StateFiring:
		return 2
	default:
		return 0
	}
}

// strips renders one rule's history as an aligned value sparkline and
// state strip, compressed to at most obs.SparkCols columns (values sum,
// states keep the worst).
func strips(hist []histPoint) (spark, states string, vmax float64) {
	if len(hist) == 0 {
		return "", "", 0
	}
	n := min(len(hist), obs.SparkCols)
	vals := make([]float64, n)
	worst := make([]State, n)
	for i := range worst {
		worst[i] = StateInactive
	}
	for i, h := range hist {
		// Chunk evaluation steps onto columns, as obs.SparkSeries does.
		c := i * n / len(hist)
		vals[c] += h.v
		if stateRank(h.s) > stateRank(worst[c]) {
			worst[c] = h.s
		}
		if vals[c] > vmax {
			vmax = vals[c]
		}
	}
	st := make([]byte, n)
	for i, s := range worst {
		st[i] = stateChar(s)
	}
	return obs.Sparkline(vals), string(st), vmax
}

// RenderText renders the filtered engine state for operators: a summary
// line, one block per rule (condition, state, value sparkline, state
// strip), and the filtered transition tail. The output is sorted by
// rule-file order and is deterministic for identical inputs.
func (e *Engine) RenderText(f Filter) []byte {
	if e == nil {
		return []byte("alerting disabled\n")
	}
	e.mu.Lock()
	rules := make([]Rule, len(e.rules))
	copy(rules, e.rules)
	sts := make([]ruleState, len(e.st))
	for i := range e.st {
		sts[i] = e.st[i]
		sts[i].hist = append([]histPoint(nil), e.st[i].hist...)
	}
	logCopy := make([]Transition, len(e.log))
	copy(logCopy, e.log)
	width := e.width
	e.mu.Unlock()

	var counts [3]int
	for _, st := range sts {
		counts[stateRank(st.state)]++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d rules (%d firing, %d pending, %d inactive), %s buckets, %d transitions\n",
		len(rules), counts[2], counts[1], counts[0], bucketLabel(width), len(logCopy))
	for i, r := range rules {
		st := sts[i]
		if !f.match(r, st) {
			continue
		}
		fmt.Fprintf(&b, "\n%s [%s %s] state=%s value=%g", r.Name, r.Kind, r.Severity, st.state, st.value)
		if st.state != StateInactive {
			fmt.Fprintf(&b, " since=%s", st.since)
		}
		if st.flaps > 0 {
			fmt.Fprintf(&b, " flaps=%d", st.flaps)
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "  when:  %s\n", r.condition())
		if r.Desc != "" {
			fmt.Fprintf(&b, "  desc:  %s\n", r.Desc)
		}
		if spark, states, vmax := strips(st.hist); spark != "" {
			fmt.Fprintf(&b, "  value: %s  max=%g\n", spark, vmax)
			fmt.Fprintf(&b, "  state: %s\n", states)
		}
	}
	shown := 0
	for _, tr := range logCopy {
		if f.State != "" && string(tr.State) != f.State {
			continue
		}
		if f.Severity != "" && tr.Severity != f.Severity {
			continue
		}
		if shown == 0 {
			b.WriteString("\ntransitions:\n")
		}
		shown++
		fmt.Fprintf(&b, "  %s %-20s %-8s [%s] value=%g threshold=%g since=%s",
			tr.T, tr.Rule, tr.State, tr.Severity, tr.Value, tr.Threshold, tr.Since)
		if len(tr.Exemplars) > 0 {
			fmt.Fprintf(&b, " exemplars=%s", strings.Join(tr.Exemplars, ","))
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// bucketLabel renders the adopted bucket width, or "unclocked" before
// the first evaluation.
func bucketLabel(w simtime.Duration) string {
	if w < 1 {
		return "unclocked"
	}
	return fmt.Sprintf("%ds", w)
}
