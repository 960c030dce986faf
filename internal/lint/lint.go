// Package lint implements bslint, the project's static-analysis suite.
//
// The reproduction's validity rests on machine-checkable invariants —
// determinism (no wall clock or global randomness outside sanctioned
// bridges), lock discipline on shared state, and errors never silently
// discarded — that ordinary review misses and go vet does not cover. Each
// invariant is a Check registered here, and the docs ModuleCheck holds the
// Markdown to its references, the hotpath inventory and the prose budget;
// cmd/bslint runs them all over the module and fails the build on
// findings.
//
// The framework is stdlib-only: packages load through go/parser and
// type-check through go/types, so checks see resolved types, not just
// syntax. Findings may be suppressed with a trailing `//nolint:<check>`
// comment on the offending line (or the line directly above it), except
// determinism's: the contract every golden rests on has no waiver.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

// String formats a finding as "file:line:col: [check] message", the
// grep-able shape editors and CI both understand.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Check is one analyzer: a named rule plus the function that applies it to
// a loaded, type-checked package.
type Check struct {
	// Name identifies the check in output and nolint comments.
	Name string
	// Doc is a one-line description shown by bslint -list.
	Doc string
	// Run reports every violation in pkg.
	Run func(pkg *Package) []Finding
}

// ModuleCheck is one module-level analyzer. Unlike Check it sees every
// loaded package at once, so it can check the module's files beyond Go
// against what the packages declare.
type ModuleCheck struct {
	// Name identifies the check in output and nolint comments.
	Name string
	// Doc is a one-line description shown by bslint -list.
	Doc string
	// Run reports every violation across the loaded packages.
	Run func(pkgs []*Package) []Finding
}

// registry holds the built-in per-package checks in registration order;
// moduleRegistry holds the module-level ones.
var (
	registry       []Check
	moduleRegistry []ModuleCheck
)

// Register adds a check to the suite. Built-in checks register from their
// init functions; tests may register extra ones.
func Register(c Check) {
	registry = append(registry, c)
}

// RegisterModule adds a module-level check to the suite.
func RegisterModule(c ModuleCheck) {
	moduleRegistry = append(moduleRegistry, c)
}

// Checks returns the registered per-package checks in registration order.
func Checks() []Check { return slices.Clone(registry) }

// ModuleChecks returns the registered module checks in registration
// order.
func ModuleChecks() []ModuleCheck { return slices.Clone(moduleRegistry) }

// Run applies every registered check — per-package analyzers first, then
// the module checks over all packages — and returns the surviving
// findings sorted by position. nolint suppressions are applied before
// returning.
func Run(pkgs []*Package) []Finding {
	sup := suppressionSet{}
	for _, pkg := range pkgs {
		sup.merge(suppressions(pkg))
	}
	var all []Finding
	keep := func(name string, fs []Finding) {
		for _, f := range fs {
			f.Check = name
			if !sup.suppressed(f) {
				all = append(all, f)
			}
		}
	}
	for _, pkg := range pkgs {
		for _, c := range registry {
			keep(c.Name, c.Run(pkg))
		}
	}
	for _, c := range moduleRegistry {
		keep(c.Name, c.Run(pkgs))
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return all[i].Check < all[j].Check
	})
	return all
}

// nolintRe matches `//nolint` and `//nolint:det,locksafe` comment forms.
// The \b keeps prose that merely mentions nolint (or identifiers like
// nolintRe) from registering as a suppression.
var nolintRe = regexp.MustCompile(`^//\s*nolint\b(?::\s*([\w,\- ]+))?`)

// suppressionSet records, per file and line, which checks are muted.
type suppressionSet map[string]map[int]map[string]bool

// suppressions collects every nolint comment in the package. A comment
// suppresses findings on its own line and on the line directly below, so
// both trailing and standalone-preceding placements work.
func suppressions(pkg *Package) suppressionSet {
	set := suppressionSet{}
	add := func(file string, line int, checks map[string]bool) {
		byLine := set[file]
		if byLine == nil {
			byLine = map[int]map[string]bool{}
			set[file] = byLine
		}
		for _, l := range []int{line, line + 1} {
			if byLine[l] == nil {
				byLine[l] = map[string]bool{}
			}
			for k := range checks {
				byLine[l][k] = true
			}
		}
	}
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				if !nolintRe.MatchString(c.Text) {
					continue
				}
				// parseNolint splits off the '— reason' / '-- reason'
				// suffix, so a reasoned comment suppresses exactly the
				// checks it names.
				n := parseNolint(c)
				checks := map[string]bool{}
				if len(n.checks) == 0 {
					checks["*"] = true
				} else {
					for _, name := range n.checks {
						checks[name] = true
					}
				}
				pos := pkg.Fset.Position(c.Pos())
				add(pos.Filename, pos.Line, checks)
			}
		}
	}
	return set
}

func (s suppressionSet) suppressed(f Finding) bool {
	checks := s[f.Pos.Filename][f.Pos.Line]
	switch f.Check {
	case "determinism":
		// Byte-determinism is the contract every golden rests on: no
		// comment waives a wall-clock read, a global draw or map order.
		return false
	case "nolintreason":
		// The suppression audit is only explicitly suppressible: a bare
		// or blanket nolint comment must not absolve itself.
		return checks["nolintreason"]
	}
	return checks["*"] || checks[f.Check]
}

// merge folds other's suppressions into s; filenames are absolute and
// unique across packages, so a plain union is safe.
func (s suppressionSet) merge(other suppressionSet) {
	for file, byLine := range other {
		if s[file] == nil {
			s[file] = byLine
			continue
		}
		for line, checks := range byLine {
			if s[file][line] == nil {
				s[file][line] = checks
				continue
			}
			for k := range checks {
				s[file][line][k] = true
			}
		}
	}
}

// under reports whether an import path lies under any of frags, path
// fragments such as "/internal/rng" or "/cmd/".
func under(path string, frags []string) bool {
	for _, frag := range frags {
		if strings.Contains(path+"/", frag) {
			return true
		}
	}
	return false
}

// hasDirective reports whether a declaration's doc comment carries the
// bslint directive //bslint:<name>, e.g. //bslint:hotpath.
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if f := strings.Fields(c.Text); len(f) > 0 && f[0] == "//bslint:"+name {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call to the function or method it calls, or nil
// for builtins, conversions and calls through function values.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	return fn
}

// recvName returns the name of a method's receiver type, pointer and
// type parameters stripped, or "" for a plain function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// exprString renders a (small) expression for use in messages.
func exprString(fset *token.FileSet, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(fset, e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(fset, e.Fun) + "(...)"
	case *ast.ArrayType:
		return "[]" + exprString(fset, e.Elt)
	case *ast.StarExpr:
		return "*" + exprString(fset, e.X)
	case *ast.ParenExpr:
		return exprString(fset, e.X)
	default:
		return "expression"
	}
}
