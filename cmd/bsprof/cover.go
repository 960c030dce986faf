package main

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// pkgCoverage is one package's parsed coverage line.
type pkgCoverage struct {
	pkg string
	pct float64
}

// parseCoverLine extracts (package, percent) from one `go test -cover`
// output line of the form "ok <pkg> <time> coverage: <pct>% of
// statements". Lines for untested packages or without a coverage figure
// return ok=false.
func parseCoverLine(line string) (c pkgCoverage, ok bool) {
	f := strings.Fields(line)
	i := slices.Index(f, "coverage:")
	if len(f) < 4 || f[0] != "ok" || i < 0 || i+1 >= len(f) {
		return pkgCoverage{}, false
	}
	pct, err := strconv.ParseFloat(strings.TrimSuffix(f[i+1], "%"), 64)
	return pkgCoverage{pkg: f[1], pct: pct}, err == nil
}

// floorMap is the repeatable -pkgfloor pkg=pct flag: per-package floors
// overriding the global one.
type floorMap map[string]float64

func (m floorMap) String() string {
	parts := make([]string, 0, len(m))
	for pkg, pct := range m {
		parts = append(parts, fmt.Sprintf("%s=%g", pkg, pct))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (m floorMap) Set(s string) error {
	pkg, pctStr, ok := strings.Cut(s, "=")
	if !ok || pkg == "" {
		return fmt.Errorf("want pkg=pct, got %q", s)
	}
	pct, err := strconv.ParseFloat(pctStr, 64)
	if err != nil {
		return fmt.Errorf("bad percent in %q: %w", s, err)
	}
	m[pkg] = pct
	return nil
}

// runCover holds `go test -cover` output on stdin to the coverage
// floors: it prints a sorted per-package summary and fails if any tested
// package is below its floor, or if a -pkgfloor names a package with no
// coverage line. Packages without test files (command mains, examples)
// are exercised by the build, not by unit tests, and are exempt.
func runCover(floor float64, pkgFloors floorMap, stdin io.Reader, stdout, stderr io.Writer) int {
	var covered []pkgCoverage
	sc := bufio.NewScanner(stdin)
	for sc.Scan() {
		if c, ok := parseCoverLine(sc.Text()); ok {
			covered = append(covered, c)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(stderr, "bsprof:", err)
		return 1
	}
	if len(covered) == 0 {
		fmt.Fprintln(stderr, "bsprof: no coverage lines on stdin (pipe `go test -cover ./...` in)")
		return 1
	}

	sort.Slice(covered, func(i, j int) bool { return covered[i].pkg < covered[j].pkg })
	var failed []string
	for _, c := range covered {
		pct, pinned := pkgFloors[c.pkg]
		if !pinned {
			pct = floor
		}
		mark := "  "
		if c.pct < pct {
			mark = "!!"
			failed = append(failed, fmt.Sprintf("%s at %.1f%% (floor %.0f%%)", c.pkg, c.pct, pct))
		}
		fmt.Fprintf(stdout, "%s %6.1f%%  %s\n", mark, c.pct, c.pkg)
	}
	// A floor that names no covered package could never fail: a typo, or
	// a package that was renamed, deleted or lost its tests.
	n := len(failed)
	for pkg := range pkgFloors {
		if !slices.ContainsFunc(covered, func(c pkgCoverage) bool { return c.pkg == pkg }) {
			failed = append(failed, pkg+" has a -pkgfloor but no coverage line")
		}
	}
	sort.Strings(failed[n:])
	if len(failed) > 0 {
		fmt.Fprintf(stderr, "bsprof: %d floor(s) not met:\n  %s\n", len(failed), strings.Join(failed, "\n  "))
		return 1
	}
	fmt.Fprintf(stdout, "bsprof: %d tested packages at or above their floors (default %.0f%%)\n", len(covered), floor)
	return 0
}
