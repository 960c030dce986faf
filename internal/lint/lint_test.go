package lint

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture loads one testdata fixture package through the real module
// loader, exactly as cmd/bslint would.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	abs, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("Abs: %v", err)
	}
	rel, err := filepath.Rel(mod.Dir, abs)
	if err != nil {
		t.Fatalf("Rel: %v", err)
	}
	pkgs, err := mod.Packages("./" + filepath.ToSlash(rel))
	if err != nil {
		t.Fatalf("Packages(%s): %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages for fixture %s, want 1", len(pkgs), name)
	}
	return pkgs[0]
}

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// wantsIn extracts line -> expected-message-substring from the fixture's
// `// want "..."` comments.
func wantsIn(t *testing.T, pkg *Package) map[int]string {
	t.Helper()
	wants := map[int]string{}
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				if _, dup := wants[line]; dup {
					t.Fatalf("duplicate want on line %d", line)
				}
				wants[line] = m[1]
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", pkg.Path)
	}
	return wants
}

// findingsOf runs the whole suite over pkgs and keeps the findings of
// one check.
func findingsOf(pkgs []*Package, check string) []Finding {
	var out []Finding
	for _, f := range Run(pkgs) {
		if f.Check == check {
			out = append(out, f)
		}
	}
	return out
}

// checkNames lists every registered check, per-package and module-level.
func checkNames() []string {
	var names []string
	for _, c := range Checks() {
		names = append(names, c.Name)
	}
	for _, c := range ModuleChecks() {
		names = append(names, c.Name)
	}
	return names
}

// TestAnalyzers runs each per-package analyzer over its fixture package
// and asserts the findings match the want comments exactly: no misses,
// no extras — which also exercises nolint suppression (suppressed lines
// carry no want, except determinism's, which no comment silences).
func TestAnalyzers(t *testing.T) {
	for _, name := range checkNames() {
		check := name
		t.Run(check, func(t *testing.T) {
			switch check {
			case "nolintreason":
				t.Skip("its findings sit on comment positions; see TestNolintReason")
			case "docs":
				t.Skip("its findings sit in Markdown; see TestDocs")
			}
			pkg := loadFixture(t, check)
			wants := wantsIn(t, pkg)

			seen := map[int]bool{}
			for _, f := range findingsOf([]*Package{pkg}, check) {
				want, ok := wants[f.Pos.Line]
				if !ok {
					t.Errorf("unexpected finding: %s", f)
					continue
				}
				if !strings.Contains(f.Message, want) {
					t.Errorf("line %d: message %q does not contain %q", f.Pos.Line, f.Message, want)
				}
				seen[f.Pos.Line] = true
			}
			for line, want := range wants {
				if !seen[line] {
					t.Errorf("line %d: expected finding containing %q, got none", line, want)
				}
			}
		})
	}
}

// TestNolintReason asserts the suppression audit's findings directly:
// its findings land on the nolint comments themselves, where a trailing
// `// want` annotation would change the comment being audited.
func TestNolintReason(t *testing.T) {
	pkg := loadFixture(t, "nolintreason")
	findings := findingsOf([]*Package{pkg}, "nolintreason")
	want := []string{
		"blanket //nolint suppresses every check",
		"bare //nolint:errcheck has no reason",
		"non-canonical nolint comment; normalize to `//nolint:errcheck — legacy spelling`",
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(findings), len(want), findings)
	}
	for i, w := range want {
		if !strings.Contains(findings[i].Message, w) {
			t.Errorf("finding %d: message %q does not contain %q", i, findings[i].Message, w)
		}
	}
}

// TestFindingString pins the file:line:col output contract other tooling
// greps for.
func TestFindingString(t *testing.T) {
	f := Finding{
		Pos:     token.Position{Filename: "x.go", Line: 7, Column: 3},
		Check:   "determinism",
		Message: "boom",
	}
	if got, want := f.String(), "x.go:7:3: [determinism] boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestRegistry asserts the shipped analyzers are registered under their
// documented names: six per-package checks plus the docs module check.
func TestRegistry(t *testing.T) {
	want := map[string]bool{
		"determinism": true, "locksafe": true, "errcheck": true, "apidoc": true,
		"concurrency": true, "nolintreason": true,
	}
	for _, c := range Checks() {
		delete(want, c.Name)
		if c.Doc == "" {
			t.Errorf("check %s has no doc line", c.Name)
		}
	}
	for name := range want {
		t.Errorf("check %s not registered", name)
	}
	wantModule := map[string]bool{"docs": true}
	for _, c := range ModuleChecks() {
		delete(wantModule, c.Name)
		if c.Doc == "" {
			t.Errorf("module check %s has no doc line", c.Name)
		}
	}
	for name := range wantModule {
		t.Errorf("module check %s not registered", name)
	}
}

// TestModuleClean is the self-test CI leans on: the repository's own
// packages must produce zero findings, so a leak reintroduced anywhere
// fails this test even if nobody runs bslint by hand.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	pkgs, err := mod.Packages("./...")
	if err != nil {
		t.Fatalf("Packages: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; loader is missing the module tree", len(pkgs))
	}
	for _, f := range Run(pkgs) {
		t.Errorf("module not lint-clean: %s", f)
	}
}
