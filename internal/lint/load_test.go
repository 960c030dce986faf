package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTempModule materializes a throwaway module on disk, for loader
// cases (broken packages, empty patterns) the fixture tree cannot hold.
func writeTempModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module fixme\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("MkdirAll: %v", err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatalf("WriteFile %s: %v", name, err)
		}
	}
	return dir
}

// TestPackagesLoadErrorsAreCollected asserts the loader reports every
// broken package — parse errors and type errors both — instead of
// stopping at the first, and still returns the packages that did load.
// cmd/bslint treats any load error as fatal; this is the contract that
// makes its report complete.
func TestPackagesLoadErrorsAreCollected(t *testing.T) {
	dir := writeTempModule(t, map[string]string{
		"good/good.go":     "package good\n\nfunc OK() int { return 1 }\n",
		"broken/broken.go": "package broken\n\nfunc Bad() int { return \"not an int\" }\n",
		"mangled/bad.go":   "package mangled\n\nfunc {\n",
	})
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	pkgs, err := mod.Packages("./...")
	if err == nil {
		t.Fatalf("Packages over a broken module returned no error")
	}
	for _, frag := range []string{"broken", "bad.go"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("load error %q does not mention %q", err, frag)
		}
	}
	found := false
	for _, p := range pkgs {
		if strings.HasSuffix(p.Path, "/good") {
			found = true
		}
	}
	if !found {
		t.Errorf("loadable package missing from results: %v", pkgs)
	}
}

// TestPackagesNoMatch asserts a pattern matching nothing is an error,
// not an empty success.
func TestPackagesNoMatch(t *testing.T) {
	dir := writeTempModule(t, map[string]string{
		"good/good.go": "package good\n\nfunc OK() int { return 1 }\n",
	})
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if _, err := mod.Packages("./absent"); err == nil {
		t.Fatalf("Packages over a missing directory returned no error")
	}
}
