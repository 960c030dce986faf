package alert

import (
	"strconv"
	"strings"
	"testing"
)

// renderRules writes rules back as rule-file text: every key a stanza can
// set, strings only when non-empty (Parse rejects an empty value).
func renderRules(rules []Rule) string {
	var b strings.Builder
	num := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	for _, r := range rules {
		b.WriteString(r.Kind + " " + r.Name + "\n")
		for _, kv := range [][2]string{
			{"severity", r.Severity}, {"desc", r.Desc}, {"for", strconv.FormatInt(int64(r.For), 10)},
			{"expr", r.Expr}, {"op", r.Op}, {"threshold", num(r.Threshold)},
			{"good", r.Good}, {"bad", r.Bad}, {"objective", num(r.Objective)}, {"burn", num(r.Burn)},
			{"short", strconv.FormatInt(int64(r.Short), 10)}, {"long", strconv.FormatInt(int64(r.Long), 10)},
		} {
			if kv[1] != "" {
				b.WriteString("  " + kv[0] + " " + kv[1] + "\n")
			}
		}
	}
	return b.String()
}

// FuzzAlertParse: Parse never panics, and the rules it accepts render to
// a rule file that parses back to rules rendering the same — Parse keeps
// everything a stanza says. The seed corpus (testdata/fuzz/FuzzAlertParse)
// is alerts.rules, whole and stanza by stanza, plus malformed variants.
func FuzzAlertParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		rules, err := Parse(src)
		if err != nil {
			return
		}
		text := renderRules(rules)
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("accepted %q, rendered as %q, which fails: %v", src, text, err)
		}
		if got := renderRules(again); got != text {
			t.Fatalf("accepted %q, rendered as %q, which renders again as %q", src, text, got)
		}
	})
}
