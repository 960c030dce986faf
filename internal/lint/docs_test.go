package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// TestDocs runs the docs check over its fixture module and asserts every
// finding: the broken link, the link whose #fragment is stripped and the
// two broken back-ticked references. What the fixture skips (resolving
// links, fences, URLs, prose with slashes) must stay silent.
func TestDocs(t *testing.T) {
	pkg := loadFixture(t, "docs")
	var got []string
	for _, f := range findingsOf([]*Package{pkg}, "docs") {
		got = append(got, fmt.Sprintf("%s:%d: %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Message))
	}
	want := []string{
		`README.md:4: broken link "missing.md"`,
		`README.md:5: broken link "gone.md#section"`,
		`README.md:13: broken file reference "missing/file.go"`,
		`README.md:13: broken file reference "ABSENT.md"`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("docs findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestProseBudget pins the budget's edge: the module root's Markdown may
// total exactly proseBudget bytes, and one byte more is a finding.
// Markdown below the root does not count.
func TestProseBudget(t *testing.T) {
	for _, extra := range []int{0, 1} {
		dir := writeTempModule(t, map[string]string{
			"p.go":         "package p\n",
			"A.md":         strings.Repeat("a", proseBudget/2),
			"B.md":         strings.Repeat("b", proseBudget-proseBudget/2+extra),
			"sub/big.md":   strings.Repeat("c", proseBudget),
			"sub/p/sub.go": "package sub\n",
		})
		mod, err := LoadModule(dir)
		if err != nil {
			t.Fatalf("LoadModule: %v", err)
		}
		pkgs, err := mod.Packages("./...")
		if err != nil {
			t.Fatalf("Packages: %v", err)
		}
		findings := findingsOf(pkgs, "docs")
		if extra == 0 && len(findings) != 0 {
			t.Errorf("at the budget: %v", findings)
		}
		if extra == 1 && (len(findings) != 1 || !strings.Contains(findings[0].Message, fmt.Sprintf("total %d bytes, over the %d-byte prose budget", proseBudget+1, proseBudget))) {
			t.Errorf("one byte over the budget: %v", findings)
		}
	}
}
