package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	backscatter "dnsbackscatter"
)

func runBsprof(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

// TestReport pins the resource-report rendering path.
func TestReport(t *testing.T) {
	acct := backscatter.NewAccountant()
	acct.Stage("extract").AddShards(16)
	path := filepath.Join(t.TempDir(), "resources.json")
	if err := os.WriteFile(path, acct.Report().JSON(), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runBsprof(t, "", "-report", path)
	if code != 0 || !strings.Contains(stdout, "extract") {
		t.Fatalf("exit %d stdout=%q stderr=%q", code, stdout, stderr)
	}
	if code, _, _ := runBsprof(t, "", "-report", filepath.Join(t.TempDir(), "missing")); code != 2 {
		t.Error("missing report did not exit 2")
	}
}

const benchRun = `goos: linux
BenchmarkParallelExtract/w1-8	50	20000000 ns/op	20000000 B/op	5000 allocs/op
BenchmarkNewThing-8	100	1000 ns/op	512 B/op	3 allocs/op
PASS
`

func writeBudgets(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "alloc.budgets")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheck drives the budget gate: pass, violation, skipped budget,
// unbudgeted benchmark, malformed budgets, and how bench lines are read.
func TestCheck(t *testing.T) {
	t.Run("within budget", func(t *testing.T) {
		budgets := writeBudgets(t, `# name  max B/op  max allocs/op
BenchmarkParallelExtract/w1  25000000  6000
BenchmarkGone                1000      10
`)
		code, stdout, stderr := runBsprof(t, benchRun, "-check", "-budgets", budgets)
		if code != 0 {
			t.Fatalf("within-budget run failed: stderr=%s", stderr)
		}
		if !strings.Contains(stdout, "1 skipped") || !strings.Contains(stdout, "1 unbudgeted") {
			t.Errorf("summary hides skips: %q", stdout)
		}
		if !strings.Contains(stderr, "budget skipped: BenchmarkGone") {
			t.Errorf("skipped budget not logged: %q", stderr)
		}
		if !strings.Contains(stderr, "unbudgeted: BenchmarkNewThing") {
			t.Errorf("unbudgeted benchmark not logged: %q", stderr)
		}
	})

	t.Run("over budget", func(t *testing.T) {
		tight := writeBudgets(t, "BenchmarkParallelExtract/w1 19000000 4000\n")
		code, _, stderr := runBsprof(t, benchRun, "-check", "-budgets", tight)
		if code != 1 {
			t.Fatalf("over-budget run exited %d, want 1; stderr=%s", code, stderr)
		}
		if !strings.Contains(stderr, "OVER BUDGET") || !strings.Contains(stderr, "B/op") || !strings.Contains(stderr, "allocs/op") {
			t.Errorf("violations not named: %q", stderr)
		}
	})

	t.Run("bad budget file", func(t *testing.T) {
		if code, _, _ := runBsprof(t, benchRun, "-check", "-budgets", filepath.Join(t.TempDir(), "missing")); code != 2 {
			t.Error("missing budget file did not exit 2")
		}
		bad := writeBudgets(t, "BenchmarkX 12\n")
		if code, _, _ := runBsprof(t, benchRun, "-check", "-budgets", bad); code != 2 {
			t.Error("malformed budget file did not exit 2")
		}
	})

	// The GOMAXPROCS suffix goes, a digit-ending sub-benchmark name stays.
	t.Run("gomaxprocs suffix", func(t *testing.T) {
		budgets := writeBudgets(t, "BenchmarkExtract 100 10\nBenchmarkFast/w8 100 10\n")
		run := "BenchmarkExtract-16   \t 12\t 95123456 ns/op\t 99 B/op\t  9 allocs/op\n" +
			"BenchmarkFast/w8-4\t100\t12.5 ns/op\t200 B/op\t1 allocs/op\n"
		code, _, stderr := runBsprof(t, run, "-check", "-budgets", budgets)
		if code != 1 || !strings.Contains(stderr, "OVER BUDGET: BenchmarkFast/w8 B/op 200 > 100") {
			t.Fatalf("exit %d, want 1 naming BenchmarkFast/w8; stderr=%s", code, stderr)
		}
		if strings.Contains(stderr, "budget skipped") {
			t.Errorf("a suffixed name was not matched to its budget: %s", stderr)
		}
	})

	// Lines of a run without -benchmem parse; unbudgeted ones pass.
	t.Run("columns optional", func(t *testing.T) {
		budgets := writeBudgets(t, "BenchmarkParallelExtract/w1 25000000 6000\n")
		run := benchRun + "BenchmarkMemless-8\t100\t12.5 ns/op\n" +
			"BenchmarkMetric-8\t10\t300 ns/op\t7.0 events/s\t64 B/op\t2 allocs/op\n"
		code, stdout, stderr := runBsprof(t, run, "-check", "-budgets", budgets)
		if code != 0 || !strings.Contains(stdout, "2 unbudgeted") {
			t.Fatalf("exit %d stdout=%q stderr=%s", code, stdout, stderr)
		}
		if !strings.Contains(stderr, "unbudgeted: BenchmarkMetric") {
			t.Errorf("columns after a custom metric not read: %s", stderr)
		}
	})

	t.Run("non-benchmark lines ignored", func(t *testing.T) {
		budgets := writeBudgets(t, "BenchmarkA 100 10\n")
		run := "goos: linux\nok  \tdnsbackscatter\t1.2s\n--- BENCH: BenchmarkA-8\n" +
			"    bench_test.go:12: BenchmarkA 1 1 ns/op 999 B/op 99 allocs/op\n" +
			"BenchmarkA-8\t10\t100 ns/op\t50 B/op\t5 allocs/op\nPASS\n"
		code, stdout, stderr := runBsprof(t, run, "-check", "-budgets", budgets)
		if code != 0 || !strings.Contains(stdout, "all 1 budgeted") {
			t.Fatalf("exit %d stdout=%q stderr=%s", code, stdout, stderr)
		}
	})

	// A budgeted benchmark without allocation columns cannot pass as zero.
	t.Run("missing columns", func(t *testing.T) {
		budgets := writeBudgets(t, "BenchmarkParallelExtract/w1 25000000 6000\n")
		run := "BenchmarkParallelExtract/w1-8\t50\t20000000 ns/op\n"
		code, _, stderr := runBsprof(t, run, "-check", "-budgets", budgets)
		if code != 2 || !strings.Contains(stderr, "BenchmarkParallelExtract/w1 has no B/op") {
			t.Fatalf("exit %d, want 2 naming the benchmark; stderr=%s", code, stderr)
		}
	})

	// A run that checks nothing (empty, or every budget skipped) fails.
	t.Run("nothing checked", func(t *testing.T) {
		budgets := writeBudgets(t, "BenchmarkGone 1000 10\n")
		if code, _, stderr := runBsprof(t, benchRun, "-check", "-budgets", budgets); code != 2 {
			t.Fatalf("exit %d, want 2; stderr=%s", code, stderr)
		}
	})
}

// TestCheckBenchFile pins -bench file input.
func TestCheckBenchFile(t *testing.T) {
	budgets := writeBudgets(t, "BenchmarkParallelExtract/w1 25000000 6000\n")
	benchPath := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(benchPath, []byte(benchRun), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runBsprof(t, "", "-check", "-budgets", budgets, "-bench", benchPath)
	if code != 0 {
		t.Fatalf("exit %d; stderr=%s", code, stderr)
	}
	missing := filepath.Join(t.TempDir(), "missing")
	if code, _, _ := runBsprof(t, "", "-check", "-budgets", budgets, "-bench", missing); code != 2 {
		t.Errorf("missing bench file: exit %d, want 2", code)
	}
}

// TestNoMode pins the usage error.
func TestNoMode(t *testing.T) {
	if code, _, _ := runBsprof(t, ""); code != 2 {
		t.Error("no mode did not exit 2")
	}
}
