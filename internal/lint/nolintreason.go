package lint

import (
	"go/ast"
	"strings"
)

func init() {
	Register(Check{
		Name: "nolintreason",
		Doc:  "every //nolint suppression must name its check(s) and carry a '— reason' suffix so escapes stay auditable",
		Run:  runNolintReason,
	})
}

// nolintComment is one parsed //nolint comment.
type nolintComment struct {
	c      *ast.Comment
	checks []string // named checks, empty for a blanket //nolint
	reason string   // text after the — / -- separator
	// canonical reports whether the comment already reads exactly
	// "//nolint:a,b — reason".
	canonical bool
}

// parseNolint dissects a comment known to match nolintRe.
func parseNolint(c *ast.Comment) nolintComment {
	out := nolintComment{c: c}
	body := strings.TrimPrefix(c.Text, "//")
	trimmed := strings.TrimSpace(body)
	rest := strings.TrimPrefix(trimmed, "nolint")

	// Split off the reason: an em-dash or double-hyphen separator. A
	// single hyphen is ambiguous with check names like "map-order", so it
	// does not introduce a reason.
	var checksPart string
	for _, sep := range []string{"—", "--"} {
		if i := strings.Index(rest, sep); i >= 0 {
			checksPart, out.reason = rest[:i], strings.TrimSpace(rest[i+len(sep):])
			break
		}
	}
	if out.reason == "" {
		checksPart = rest
	}
	checksPart = strings.TrimPrefix(strings.TrimSpace(checksPart), ":")
	for _, name := range strings.Split(checksPart, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out.checks = append(out.checks, name)
		}
	}
	out.canonical = c.Text == out.canonicalText()
	return out
}

// canonicalText renders the comment's normalized spelling.
func (n nolintComment) canonicalText() string {
	s := "//nolint"
	if len(n.checks) > 0 {
		s += ":" + strings.Join(n.checks, ",")
	}
	if n.reason != "" {
		s += " — " + n.reason
	}
	return s
}

// runNolintReason audits every nolint comment in the package: blanket
// suppressions and missing reasons are findings, and so is a
// well-reasoned comment in non-canonical spelling, whose finding names
// the canonical one.
func runNolintReason(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				if nolintRe.FindStringSubmatch(c.Text) == nil {
					continue
				}
				n := parseNolint(c)
				pos := pkg.Fset.Position(c.Pos())
				switch {
				case len(n.checks) == 0:
					out = append(out, Finding{
						Pos:     pos,
						Message: "blanket //nolint suppresses every check; name the check(s) being silenced",
					})
				case n.reason == "":
					out = append(out, Finding{
						Pos:     pos,
						Message: "bare //nolint:" + strings.Join(n.checks, ",") + " has no reason; append '— why this escape is sound'",
					})
				case !n.canonical:
					out = append(out, Finding{
						Pos:     pos,
						Message: "non-canonical nolint comment; normalize to `" + n.canonicalText() + "`",
					})
				}
			}
		}
	}
	return out
}
