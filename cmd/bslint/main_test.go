package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a small module for the CLI to lint.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module clitest\n\ngo 1.22\n"
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

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

const cleanSrc = "package p\n\nfunc OK() int { return 1 }\n"

const dirtySrc = `package p

import "time"

func Stamp() int64 {
	return time.Now().Unix()
}
`

// TestRunCleanModule pins exit 0 and empty output on a lint-clean module.
func TestRunCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{"p/p.go": cleanSrc})
	code, stdout, stderr := runCLI(t, "-C", dir, "./...")
	if code != 0 {
		t.Fatalf("exit %d on a clean module; stdout=%q stderr=%q", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean module produced output: %q", stdout)
	}
}

// TestRunFindingsExitOne pins exit 1 and the file:line:col finding shape.
func TestRunFindingsExitOne(t *testing.T) {
	dir := writeModule(t, map[string]string{"p/p.go": dirtySrc})
	code, stdout, _ := runCLI(t, "-C", dir, "./...")
	if code != 1 {
		t.Fatalf("exit %d on findings, want 1", code)
	}
	if !strings.Contains(stdout, "[determinism]") || !strings.Contains(stdout, "time.Now") {
		t.Errorf("findings output missing the determinism report: %q", stdout)
	}
}

// TestRunLoadFailureIsFatal is the regression test for the partial-load
// hole: a module with one broken package must exit 2 without linting,
// not exit 0 having linted whatever happened to load.
func TestRunLoadFailureIsFatal(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"p/p.go":           cleanSrc,
		"broken/broken.go": "package broken\n\nfunc Bad() int { return \"s\" }\n",
	})
	code, _, stderr := runCLI(t, "-C", dir, "./...")
	if code != 2 {
		t.Fatalf("exit %d on a broken package, want 2; stderr=%q", code, stderr)
	}
	if !strings.Contains(stderr, "load failed") || !strings.Contains(stderr, "broken") {
		t.Errorf("stderr does not report the broken package: %q", stderr)
	}
}

// TestRunJSON pins the machine-readable findings shape the CI artifact
// publishes.
func TestRunJSON(t *testing.T) {
	dir := writeModule(t, map[string]string{"p/p.go": dirtySrc})
	code, stdout, _ := runCLI(t, "-C", dir, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit %d on findings, want 1", code)
	}
	var findings []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Check   string `json:"check"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout)
	}
	if len(findings) == 0 || findings[0].Check != "determinism" || findings[0].Line == 0 {
		t.Fatalf("JSON findings = %+v", findings)
	}
}

// TestRunBadFlag pins exit 2 on usage errors.
func TestRunBadFlag(t *testing.T) {
	if code, _, _ := runCLI(t, "-no-such-flag"); code != 2 {
		t.Fatalf("exit %d on a bad flag, want 2", code)
	}
}

// TestRunOutsideModule pins exit 2 when -C points outside any module.
func TestRunOutsideModule(t *testing.T) {
	code, _, stderr := runCLI(t, "-C", t.TempDir(), "./...")
	if code != 2 || !strings.Contains(stderr, "go.mod") {
		t.Fatalf("exit %d outside a module, want 2; stderr=%q", code, stderr)
	}
}

// TestRunList asserts -list shows both check families.
func TestRunList(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d from -list", code)
	}
	for _, want := range []string{"determinism", "concurrency", "nolintreason", "docs", "(module)"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-list output missing %q:\n%s", want, stdout)
		}
	}
}
