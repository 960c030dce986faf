package main

import (
	"strings"
	"testing"
)

func TestParseCoverLine(t *testing.T) {
	c, ok := parseCoverLine("ok  \tdnsbackscatter/internal/lint\t2.4s\tcoverage: 89.7% of statements")
	if !ok || c.pkg != "dnsbackscatter/internal/lint" || c.pct != 89.7 {
		t.Fatalf("parsed %+v ok=%v", c, ok)
	}
	for _, line := range []string{
		"?   \tdnsbackscatter/cmd/bslint\t[no test files]",
		"ok  \tdnsbackscatter/internal/qname\t0.01s",
		"FAIL\tdnsbackscatter/internal/x\t0.1s",
	} {
		if _, ok := parseCoverLine(line); ok {
			t.Errorf("line %q parsed as coverage", line)
		}
	}
}

func TestFloorMap(t *testing.T) {
	m := floorMap{}
	if err := m.Set("dnsbackscatter/internal/lint=85"); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if err := m.Set("other=70.5"); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if m["dnsbackscatter/internal/lint"] != 85 || m["other"] != 70.5 {
		t.Fatalf("map = %v", m)
	}
	if got, want := m.String(), "dnsbackscatter/internal/lint=85,other=70.5"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	for _, bad := range []string{"nofloor", "=80", "pkg=notanumber"} {
		if err := m.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}

const coverInput = `?   	mod/cmd/tool	[no test files]
ok  	mod/internal/a	0.1s	coverage: 90.0% of statements
ok  	mod/internal/b	0.1s	coverage: 82.0% of statements
`

// TestCoverFloors drives -cover across the pass, global-floor-fail, and
// per-package-floor-fail cases.
func TestCoverFloors(t *testing.T) {
	code, stdout, _ := runBsprof(t, coverInput, "-cover", "-floor", "80")
	if code != 0 {
		t.Fatalf("exit %d with all packages above the floor; stdout=%s", code, stdout)
	}
	if !strings.Contains(stdout, "2 tested packages") {
		t.Errorf("summary missing: %s", stdout)
	}

	code, _, stderr := runBsprof(t, coverInput, "-cover", "-floor", "85")
	if code != 1 || !strings.Contains(stderr, "mod/internal/b at 82.0% (floor 85%)") {
		t.Fatalf("global floor breach not reported: exit %d stderr=%s", code, stderr)
	}

	// The per-package floor raises b's bar past its coverage while the
	// global floor alone would pass it.
	code, _, stderr = runBsprof(t, coverInput, "-cover", "-floor", "80", "-pkgfloor", "mod/internal/b=85")
	if code != 1 || !strings.Contains(stderr, "mod/internal/b at 82.0% (floor 85%)") {
		t.Fatalf("per-package floor breach not reported: exit %d stderr=%s", code, stderr)
	}
}

// TestCoverFloorWithoutCoverage pins that a -pkgfloor naming a package
// with no coverage line (a typo, or a package without tests) fails.
func TestCoverFloorWithoutCoverage(t *testing.T) {
	code, _, stderr := runBsprof(t, coverInput, "-cover", "-floor", "80",
		"-pkgfloor", "mod/internal/a=85", "-pkgfloor", "mod/internal/typo=85", "-pkgfloor", "mod/cmd/tool=50")
	if code != 1 {
		t.Fatalf("exit %d with floors on uncovered packages, want 1; stderr=%s", code, stderr)
	}
	for _, pkg := range []string{"mod/cmd/tool", "mod/internal/typo"} {
		if !strings.Contains(stderr, pkg+" has a -pkgfloor but no coverage line") {
			t.Errorf("stderr does not name %s: %s", pkg, stderr)
		}
	}
	if strings.Contains(stderr, "mod/internal/a ") {
		t.Errorf("a met floor was reported: %s", stderr)
	}
}

// TestCoverEmptyInput pins the guard against piping nothing in.
func TestCoverEmptyInput(t *testing.T) {
	code, _, stderr := runBsprof(t, "", "-cover")
	if code != 1 || !strings.Contains(stderr, "no coverage lines") {
		t.Fatalf("empty stdin: exit %d stderr=%s", code, stderr)
	}
}
