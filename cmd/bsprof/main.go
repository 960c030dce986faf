// Command bsprof reads the repo's resource-observatory artifacts and
// holds `go test` runs to their checked-in ceilings: per-stage resource
// reports (bsrepro -resources), the allocation budgets, and the
// per-package coverage floors. Profiles (bsserve's /debug/pprof/ handlers, CI's
// heap.pprof and cpu.pprof, `go test -memprofile`) are read with `go
// tool pprof`; PERFORMANCE.md lists the commands.
//
// Modes:
//
//	bsprof -report resources.json                    # per-stage resource table
//	bsprof -check -budgets alloc.budgets <bench.txt  # allocation-budget gate
//	go test -cover ./... | bsprof -cover -floor 80 -pkgfloor path/to/pkg=85
//
// The -check gate reads raw `go test -bench -benchmem` output and fails
// when any budgeted benchmark exceeds its max B/op or allocs/op, or
// reports neither (a run without -benchmem), or when no budgeted
// benchmark ran at all. Budgets live in alloc.budgets; entries on only
// one side are logged, never silently dropped.
//
// The -cover gate reads `go test -cover` output and fails when a tested
// package is below -floor, or below its own -pkgfloor (repeatable), or
// when a -pkgfloor package has no coverage line.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"dnsbackscatter/internal/prof"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bsprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	report := fs.String("report", "", "per-stage resource report JSON (bsrepro -resources) to print")
	check := fs.Bool("check", false, "enforce alloc.budgets against bench output (stdin or -bench)")
	budgets := fs.String("budgets", "alloc.budgets", "budget file for -check")
	bench := fs.String("bench", "", "raw `go test -bench -benchmem` output for -check (empty = stdin)")
	cover := fs.Bool("cover", false, "enforce coverage floors against `go test -cover` output on stdin")
	floor := fs.Float64("floor", 80, "minimum per-package coverage percent for tested packages, for -cover")
	pkgFloors := floorMap{}
	fs.Var(pkgFloors, "pkgfloor", "per-package floor as pkg=pct, overriding -floor; repeatable")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *report == "" && !*check && !*cover {
		fmt.Fprintln(stderr, "bsprof: nothing to do (want -report, -check or -cover; see -h)")
		return 2
	}

	if *report != "" {
		if code := runReport(*report, stdout, stderr); code != 0 {
			return code
		}
	}
	if *check {
		return runCheck(*budgets, *bench, stdin, stdout, stderr)
	}
	if *cover {
		return runCover(*floor, pkgFloors, stdin, stdout, stderr)
	}
	return 0
}

// runReport prints a resource report as the aligned per-stage table.
func runReport(path string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "bsprof:", err)
		return 2
	}
	r, err := prof.ParseReport(data)
	if err != nil {
		fmt.Fprintln(stderr, "bsprof:", err)
		return 2
	}
	fmt.Fprintf(stdout, "resource report %s (%d stages; ops channel — values are scheduling-dependent)\n", path, len(r.Stages))
	fmt.Fprint(stdout, r.String())
	return 0
}

// benchResult is one benchmark line: the name with its GOMAXPROCS suffix
// stripped, and the -benchmem columns when the run printed them.
type benchResult struct {
	name   string
	bytes  float64
	allocs int64
	mem    bool
}

// benchLine matches standard testing benchmark output. The -benchmem
// columns are optional, so a run without them is reported rather than
// read as zero allocations.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+[\d.]+ ns/op(?:.*?\s([\d.]+) B/op\s+(\d+) allocs/op)?`)

// readBench parses every benchmark line of raw `go test -bench` output,
// in input order. Other lines are ignored.
func readBench(r io.Reader) ([]benchResult, error) {
	var out []benchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		res := benchResult{name: m[1], mem: m[2] != ""}
		if res.mem {
			res.bytes, _ = strconv.ParseFloat(m[2], 64)
			res.allocs, _ = strconv.ParseInt(m[3], 10, 64)
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// budget is one benchmark's allocation ceiling.
type budget struct {
	maxBytes  float64
	maxAllocs int64
}

// parseBudgets reads the alloc.budgets format: one
// "name max_B/op max_allocs/op" triple per line, '#' comments.
func parseBudgets(data []byte) (map[string]budget, []string, error) {
	out := make(map[string]budget)
	var order []string
	for ln, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 3 {
			return nil, nil, fmt.Errorf("line %d: want \"name max_B/op max_allocs/op\", got %q", ln+1, line)
		}
		b, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: bad max B/op %q: %v", ln+1, fields[1], err)
		}
		a, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: bad max allocs/op %q: %v", ln+1, fields[2], err)
		}
		if _, dup := out[fields[0]]; dup {
			return nil, nil, fmt.Errorf("line %d: duplicate budget for %s", ln+1, fields[0])
		}
		out[fields[0]] = budget{maxBytes: b, maxAllocs: a}
		order = append(order, fields[0])
	}
	return out, order, nil
}

// runCheck enforces the allocation budgets against a bench run.
func runCheck(budgetPath, benchPath string, stdin io.Reader, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(budgetPath)
	if err != nil {
		fmt.Fprintln(stderr, "bsprof:", err)
		return 2
	}
	buds, order, err := parseBudgets(data)
	if err != nil {
		fmt.Fprintf(stderr, "bsprof: %s: %v\n", budgetPath, err)
		return 2
	}

	in := stdin
	if benchPath != "" {
		f, err := os.Open(benchPath)
		if err != nil {
			fmt.Fprintln(stderr, "bsprof:", err)
			return 2
		}
		defer f.Close() //nolint:errcheck — read-only descriptor, close cannot lose data
		in = f
	}
	results, err := readBench(in)
	if err != nil {
		fmt.Fprintln(stderr, "bsprof: reading bench output:", err)
		return 2
	}

	byName := make(map[string]benchResult, len(results))
	for _, r := range results {
		byName[r.name] = r
	}

	violations, checked, skipped, memless := 0, 0, 0, 0
	for _, name := range order {
		b := buds[name]
		r, ok := byName[name]
		if !ok {
			// Never silently cap coverage: a budgeted benchmark missing
			// from the run is visible in the output and the summary.
			fmt.Fprintf(stderr, "bsprof: budget skipped: %s (not in this bench run)\n", name)
			skipped++
			continue
		}
		if !r.mem {
			fmt.Fprintf(stderr, "bsprof: %s has no B/op or allocs/op column (run go test with -benchmem)\n", name)
			memless++
			continue
		}
		checked++
		if r.bytes > b.maxBytes {
			fmt.Fprintf(stderr, "bsprof: OVER BUDGET: %s B/op %.0f > %.0f (+%.1f%%)\n",
				name, r.bytes, b.maxBytes, (r.bytes/b.maxBytes-1)*100)
			violations++
		}
		if r.allocs > b.maxAllocs {
			fmt.Fprintf(stderr, "bsprof: OVER BUDGET: %s allocs/op %d > %d\n",
				name, r.allocs, b.maxAllocs)
			violations++
		}
	}
	var unbudgeted []string
	for _, r := range results {
		if _, ok := buds[r.name]; !ok && r.bytes > 0 {
			unbudgeted = append(unbudgeted, r.name)
		}
	}
	sort.Strings(unbudgeted)
	for _, name := range unbudgeted {
		fmt.Fprintf(stderr, "bsprof: unbudgeted: %s (add to %s to gate it)\n", name, budgetPath)
	}

	if memless > 0 || checked == 0 {
		fmt.Fprintf(stderr, "bsprof: %d budgeted benchmark(s) checked, %d without allocation columns\n", checked, memless)
		return 2
	}
	if violations > 0 {
		fmt.Fprintf(stderr, "bsprof: %d budget violation(s) against %s (%d checked, %d skipped, %d unbudgeted)\n",
			violations, budgetPath, checked, skipped, len(unbudgeted))
		return 1
	}
	fmt.Fprintf(stdout, "bsprof: all %d budgeted benchmarks within %s (%d skipped, %d unbudgeted)\n",
		checked, budgetPath, skipped, len(unbudgeted))
	return 0
}
