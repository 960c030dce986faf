// Package alert is the observability stack's evaluation layer: a
// deterministic rule engine that turns the repository's windowed metric
// series (internal/obs), streaming-engine status (internal/stream), and
// end-to-end traces (internal/trace) into operator-facing alerts.
//
// Rules live in a small declarative file format (the checked-in
// alerts.rules; see Parse) with two stanza kinds:
//
//   - `alert NAME`: a threshold rule — a metric/window expression, a
//     comparator, a threshold, an optional `for`-duration hold, and a
//     severity (base/low/medium/high).
//   - `slo NAME`: a multi-window burn-rate rule — good/bad counter
//     identities, an objective, a burn factor, and short/long trailing
//     windows; it fires only when both windows burn error budget faster
//     than the factor allows.
//
// Evaluation obeys the repository's determinism contract. The engine is
// clocked purely by the bucket timestamps of the series it reads —
// never by the wall clock — and steps the per-rule state machine
//
//	inactive → pending → firing → (resolved) → inactive
//
// one bucket at a time, in rule-file order. Every transition is
// appended to a log whose JSONL rendering is therefore byte-identical
// for identical inputs, at any worker count, live or replayed offline.
// Firing transitions carry trace exemplars: the IDs of the worst
// offending lookups inside the alert's window, joined through the
// tracer's record index.
//
// Nil-safety mirrors internal/obs and internal/trace: every method on a
// nil *Engine is a no-op, so a disabled alerting path costs one nil
// check and zero allocations.
package alert

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"dnsbackscatter/internal/simtime"
)

// Severities, mildest first. The set follows RITA's operator-facing
// ladder; Filter matches them exactly.
const (
	SevBase   = "base"
	SevLow    = "low"
	SevMedium = "medium"
	SevHigh   = "high"
)

// validSeverity reports whether s is one of the four severity rungs.
func validSeverity(s string) bool {
	switch s {
	case SevBase, SevLow, SevMedium, SevHigh:
		return true
	}
	return false
}

// State is a rule's position in the alert state machine. StateResolved
// appears only on transitions: the rule itself returns to inactive.
type State string

// The state-machine vocabulary.
const (
	StateInactive State = "inactive"
	StatePending  State = "pending"
	StateFiring   State = "firing"
	StateResolved State = "resolved"
)

// exprFn enumerates the expression functions an alert stanza may use.
type exprFn int

const (
	fnWindow exprFn = iota // window(m): the metric's delta in the current bucket
	fnRate                 // rate(m): window(m) / bucket width, per second
	fnSum                  // sum(m): cumulative deltas through the current bucket
	fnRatio                // ratio(a, b): window(a) / window(b), 0 on zero denominator
	fnStream               // stream(f): a field of the live stream status (Data.Stream)
)

// expr is one parsed alert expression: a function over one or two
// metric identities (or a stream status field).
type expr struct {
	fn   exprFn
	a, b string
}

// Rule is one parsed alert or SLO stanza. Construct via Parse; the
// zero value is not evaluable.
type Rule struct {
	// Name is the stanza's unique identifier.
	Name string
	// Kind is "alert" or "slo".
	Kind string
	// Severity is one of base, low, medium, high.
	Severity string
	// Desc is the operator-facing one-liner.
	Desc string
	// For is the hold duration: the condition must stay true from the
	// pending step until a step at least For later before the rule
	// fires. 0 fires immediately, with no pending event. Holds are
	// quantized to the bucket width of the evaluated series.
	For simtime.Duration

	// Expr, Op, and Threshold define an alert-kind condition:
	// Expr Op Threshold.
	Expr      string
	Op        string
	Threshold float64

	// Good, Bad, Objective, Burn, Short, and Long define an slo-kind
	// condition: the error ratio bad/(bad+good) over both trailing
	// windows must exceed Burn × (1 − Objective).
	Good      string
	Bad       string
	Objective float64
	Burn      float64
	Short     simtime.Duration
	Long      simtime.Duration

	parsed expr // alert-kind only
}

// condition tells the operator what the rule tests, for renders.
func (r Rule) condition() string {
	if r.Kind == "slo" {
		return fmt.Sprintf("burn(%s vs %s, objective %g) >= %g over %ds/%ds",
			r.Bad, r.Good, r.Objective, r.Burn, r.Short, r.Long)
	}
	return fmt.Sprintf("%s %s %g", r.Expr, r.Op, r.Threshold)
}

// parseExpr parses `fn(arg)` / `fn(a, b)`. Metric identities may carry
// a label block (`name{k="v"}`), so argument splitting respects braces
// and quotes.
func parseExpr(s string) (expr, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return expr{}, fmt.Errorf("expression %q is not fn(args)", s)
	}
	args := splitArgs(s[open+1 : len(s)-1])
	for i := range args {
		if args[i] = strings.TrimSpace(args[i]); args[i] == "" {
			return expr{}, fmt.Errorf("expression %q has an empty argument", s)
		}
	}
	want1 := func(fn exprFn) (expr, error) {
		if len(args) != 1 {
			return expr{}, fmt.Errorf("expression %q wants exactly one argument", s)
		}
		return expr{fn: fn, a: args[0]}, nil
	}
	switch fn := strings.TrimSpace(s[:open]); fn {
	case "window":
		return want1(fnWindow)
	case "rate":
		return want1(fnRate)
	case "sum":
		return want1(fnSum)
	case "stream":
		return want1(fnStream)
	case "ratio":
		if len(args) != 2 {
			return expr{}, fmt.Errorf("ratio wants two arguments in %q", s)
		}
		return expr{fn: fnRatio, a: args[0], b: args[1]}, nil
	default:
		return expr{}, fmt.Errorf("unknown function %q (want window, rate, sum, ratio, or stream)", fn)
	}
}

// splitArgs splits on top-level commas: commas inside a `{...}` label
// block or a quoted label value do not separate arguments.
func splitArgs(s string) []string {
	var (
		out     []string
		depth   int
		inQuote bool
		start   int
	)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inQuote = !inQuote
		case '{':
			if !inQuote {
				depth++
			}
		case '}':
			if !inQuote && depth > 0 {
				depth--
			}
		case ',':
			if !inQuote && depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// validOp reports whether op is a supported comparator.
func validOp(op string) bool {
	switch op {
	case ">", "<", ">=", "<=":
		return true
	}
	return false
}

// compare applies a comparator.
func compare(v float64, op string, threshold float64) bool {
	switch op {
	case ">":
		return v > threshold
	case "<":
		return v < threshold
	case ">=":
		return v >= threshold
	default: // "<=", the only remaining validOp
		return v <= threshold
	}
}

// Parse reads rule-file text: stanzas opened by `alert NAME` or
// `slo NAME` at column zero, followed by indented `key value` lines.
// Blank lines and #-comments are ignored. Errors carry line numbers.
// Empty input yields no rules and no error.
func Parse(src string) ([]Rule, error) {
	var (
		rules []Rule
		cur   *Rule
		curLn int
		seen  = map[string]bool{}
	)
	finish := func() error {
		if cur == nil {
			return nil
		}
		if err := cur.validate(); err != nil {
			return fmt.Errorf("line %d: %s %q: %w", curLn, cur.Kind, cur.Name, err)
		}
		rules = append(rules, *cur)
		cur = nil
		return nil
	}
	for ln, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		indented := line[0] == ' ' || line[0] == '\t'
		key, rest, _ := strings.Cut(trimmed, " ")
		rest = strings.TrimSpace(rest)
		if !indented && (key == "alert" || key == "slo") {
			if err := finish(); err != nil {
				return nil, err
			}
			if rest == "" || strings.ContainsAny(rest, " \t") {
				return nil, fmt.Errorf("line %d: %s wants exactly one name, got %q", ln+1, key, rest)
			}
			if seen[rest] {
				return nil, fmt.Errorf("line %d: duplicate rule name %q", ln+1, rest)
			}
			seen[rest] = true
			cur = &Rule{Name: rest, Kind: key, Severity: SevBase}
			curLn = ln + 1
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("line %d: %q outside any alert/slo stanza", ln+1, trimmed)
		}
		if err := cur.setKey(key, rest); err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
	}
	if err := finish(); err != nil {
		return nil, err
	}
	return rules, nil
}

// setKey applies one `key value` body line to the rule under
// construction.
func (r *Rule) setKey(key, val string) error {
	if val == "" && key != "desc" {
		return fmt.Errorf("key %q wants a value", key)
	}
	num := func() (float64, error) {
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return 0, fmt.Errorf("key %q: bad number %q", key, val)
		}
		return f, nil
	}
	dur := func() (simtime.Duration, error) {
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("key %q: bad duration %q (want simulated seconds)", key, val)
		}
		return simtime.Duration(n), nil
	}
	var err error
	switch key {
	case "severity":
		if !validSeverity(val) {
			return fmt.Errorf("bad severity %q (want base, low, medium, or high)", val)
		}
		r.Severity = val
	case "desc":
		r.Desc = val
	case "for":
		r.For, err = dur()
	case "expr":
		r.Expr = val
	case "op":
		if !validOp(val) {
			return fmt.Errorf("bad comparator %q (want >, <, >=, or <=)", val)
		}
		r.Op = val
	case "threshold":
		r.Threshold, err = num()
	case "good":
		r.Good = val
	case "bad":
		r.Bad = val
	case "objective":
		r.Objective, err = num()
	case "burn":
		r.Burn, err = num()
	case "short":
		r.Short, err = dur()
	case "long":
		r.Long, err = dur()
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return err
}

// validate checks stanza completeness and compiles the expression.
func (r *Rule) validate() error {
	if r.Kind == "slo" {
		switch {
		case r.Expr != "" || r.Op != "":
			return fmt.Errorf("expr/op belong to alert stanzas")
		case r.Good == "" || r.Bad == "":
			return fmt.Errorf("wants both good and bad metric identities")
		case r.Objective <= 0 || r.Objective >= 1:
			return fmt.Errorf("objective %g outside (0, 1)", r.Objective)
		case r.Burn <= 0:
			return fmt.Errorf("burn factor %g must be positive", r.Burn)
		case r.Short < 1 || r.Long < r.Short:
			return fmt.Errorf("want 1 <= short <= long, got short=%d long=%d", r.Short, r.Long)
		}
		return nil
	}
	if r.Good != "" || r.Bad != "" {
		return fmt.Errorf("good/bad belong to slo stanzas")
	}
	if r.Expr == "" || r.Op == "" {
		return fmt.Errorf("wants expr, op, and threshold")
	}
	var err error
	r.parsed, err = parseExpr(r.Expr)
	return err
}

// DefaultRulesText is the repository's built-in ruleset — byte-for-byte
// the checked-in alerts.rules (a root test pins the two together), so
// binaries can evaluate the default rules without a file at runtime.
const DefaultRulesText = `# Alert and SLO rules for the DNS backscatter observability stack.
#
# Format: stanzas opened by "alert NAME" or "slo NAME" at column zero,
# followed by indented "key value" lines; blank lines and # comments are
# ignored. Durations are simulated seconds; holds quantize to the bucket
# width of the series under evaluation. See DESIGN.md section 13 for the
# grammar and determinism contract. Replay this file offline with
# "go run ./cmd/bsview alerts -timeseries timeseries.json" or serve it live
# with "bsserve -http ... -alerts default".

# A SERVFAIL fault burst concentrated inside a single bucket.
alert servfail-burst
  expr window(faults_injected_total{kind="servfail"})
  op >=
  threshold 25
  severity medium
  desc SERVFAIL injections spiked inside one bucket

# Retry amplification: retries per successful resolve, held across
# evaluation steps before firing so a single noisy bucket stays quiet.
alert retry-pressure
  expr ratio(resolver_retries_total, dnssim_resolves_total)
  op >=
  threshold 0.5
  for 3600
  severity low
  desc resolver retries held above 0.5 per resolve

# Resolvers abandoning lookups entirely — the paper's missing-record
# failure mode. Cumulative, so it stays firing once tripped.
alert gaveup-any
  expr sum(resolver_gaveup_total)
  op >
  threshold 0
  severity base
  desc at least one lookup exhausted its retry budget

# Give-up burn rate against a 99% lookup-success objective, over
# 30 min / 2 h trailing windows (multi-window, so a short spike alone
# cannot fire it and a quiet long window resolves it).
slo lookup-success
  good dnssim_resolves_total
  bad resolver_gaveup_total
  objective 0.99
  burn 2
  short 1800
  long 7200
  severity high
  desc lookup give-ups burning >2x the 1% error budget

# Verdict churn from the streaming engine: originators flapping between
# classes — the detector-decay early warning.
alert verdict-churn
  expr window(stream_verdict_churn_total)
  op >=
  threshold 50
  severity medium
  desc stream verdicts churned >=50 times in one bucket

# The streaming engine's sketch table is at capacity and evicting
# originator state (live stream() source; stays inactive in offline
# replays that carry no status snapshot).
alert stream-evictions
  expr stream(evictions)
  op >
  threshold 0
  severity low
  desc streaming engine evicting tracked originators
`

// DefaultRules parses DefaultRulesText; the text is a compile-time
// constant the tests pin, so parsing cannot fail.
func DefaultRules() []Rule {
	rules, err := Parse(DefaultRulesText)
	if err != nil {
		panic("alert: built-in ruleset invalid: " + err.Error())
	}
	return rules
}

// LoadRules resolves a rule-file flag: the built-in rules for "" or
// "default", otherwise the named file parsed from disk.
func LoadRules(name string) ([]Rule, error) {
	if name == "" || name == "default" {
		return DefaultRules(), nil
	}
	src, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	return Parse(string(src))
}
