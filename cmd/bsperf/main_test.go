package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for bsperf: -aa and the
// every-workload mode re-run their own executable once per workload,
// which under go test is this binary.
func TestMain(m *testing.M) {
	if os.Getenv("BSPERF_AS_CHILD") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the harness must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestTablesMatchBenchmarkFile pins the harness's metric and workload
// tables to BENCHMARK.json, bounds and directions included.
func TestTablesMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the harness %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		h := endToEnd[i]
		if m.Name != h.name || m.Unit != h.unit || m.Bound != h.bound || (m.Better == "higher") != h.higher {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, m, h)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the harness %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, harness %+v", i, m, perLayer[i])
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload both ways at toy sizes, with the flags
// the acceptance driver passes, and checks the output contract: each
// end-to-end metric printed exactly once with its unit, each per-layer
// metric at most once and by at least one workload, nothing else
// printed, and a last line holding exactly the result object with every
// metric of the set.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	printedBy := make(map[string]int) // per-layer metric -> workloads that printed it
	for _, w := range workloads {
		for _, mode := range []struct {
			trace string
			set   []metric
		}{{"0", endToEnd}, {"1", perLayer}} {
			var out, errb bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.3", "--trace", mode.trace, "-smoke", "-dir", dir}
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w.name, mode.trace, code, out.String(), errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			want := make(map[string]string)
			for _, m := range mode.set {
				want[m.name] = m.unit
			}
			seen := make(map[string]bool)
			for _, line := range lines[:len(lines)-1] {
				if strings.HasPrefix(line, "#") {
					continue
				}
				f := strings.Fields(line)
				if len(f) != 4 || f[0] != w.name {
					t.Errorf("%s trace=%s: stray line %q", w.name, mode.trace, line)
					continue
				}
				switch unit, ok := want[f[1]]; {
				case !metricName.MatchString(f[1]):
					t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", w.name, f[1])
				case !ok:
					t.Errorf("%s trace=%s: printed %q, which BENCHMARK.json does not list", w.name, mode.trace, f[1])
				case seen[f[1]]:
					t.Errorf("%s trace=%s: printed %q twice", w.name, mode.trace, f[1])
				case unit != f[3]:
					t.Errorf("%s: %s printed with unit %q, want %q", w.name, f[1], f[3], unit)
				}
				seen[f[1]] = true
			}
			for name := range want {
				switch {
				case mode.trace == "1" && seen[name]:
					printedBy[name]++
				case mode.trace == "0" && !seen[name]:
					t.Errorf("%s: end-to-end metric %s not printed", w.name, name)
				}
			}

			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not a JSON object: %v", w.name, mode.trace, err)
			}
			for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := res[key]; !ok {
					t.Errorf("%s: result object lacks %q", w.name, key)
				}
			}
			var parsed result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &parsed); err != nil {
				t.Fatal(err)
			}
			if len(res) != 4 || len(parsed.Metrics) != len(mode.set) || !parsed.Correct || parsed.Attempted < 1 {
				t.Errorf("%s trace=%s: result %s", w.name, mode.trace, lines[len(lines)-1])
			}
			if mode.trace == "0" {
				for name, v := range parsed.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, name, v.Value)
					}
				}
			}
		}
	}
	// The toy run is too short to have ten samples beyond these tails.
	unsupported := map[string]bool{"stream.batch_p99_us": true, "live.lat_p99_us": true, "live.lat_p999_us": true}
	for _, m := range perLayer {
		if printedBy[m.name] == 0 && !unsupported[m.name] {
			t.Errorf("no workload printed the per-layer metric %s", m.name)
		}
	}
	if _, err := os.Stat(dir + "/bsperf-trace-stream-replay.json"); err != nil {
		t.Errorf("the traced run left no trace file: %v", err)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if strings.HasPrefix(e.Name(), "live-") {
			t.Errorf("live-serve left its temp dir %s behind", e.Name())
		}
	}
}

// TestAA drives the A/A mode end to end with this binary as the child:
// same code on both sides, so nothing may exceed a bound except by the
// toy sizes' noise, which is why only the table's shape is asserted.
func TestAA(t *testing.T) {
	t.Setenv("BSPERF_AS_CHILD", "1")
	var out, errb bytes.Buffer
	code := run([]string{"-aa", "1", "-smoke", "-seconds", "0.2", "-dir", t.TempDir()}, &out, &errb)
	table := out.String()
	for _, w := range workloads {
		for _, m := range endToEnd {
			if !regexp.MustCompile(w.name + ` +` + m.name + ` `).MatchString(table) {
				t.Errorf("A/A table lacks %s/%s:\n%s", w.name, m.name, table)
			}
		}
	}
	if !strings.Contains(table, "exact-count layer metrics that differ between two traced passes: 0") {
		t.Errorf("exit %d; exact counts moved between two passes of one binary:\n%s%s", code, table, errb.String())
	}
}

func TestCompareSets(t *testing.T) {
	a := map[sampleKey][]float64{}
	b := map[sampleKey][]float64{}
	for _, w := range workloads {
		for _, m := range endToEnd {
			a[sampleKey{w.name, m.name}] = []float64{100, 101, 99}
			b[sampleKey{w.name, m.name}] = []float64{100, 102, 98}
		}
	}
	var out bytes.Buffer
	if over := compareSets(&out, a, b); len(over) != 0 {
		t.Errorf("equal medians reported over their bounds: %v", over)
	}
	b[sampleKey{"live-serve", "quality"}] = []float64{90, 90, 90}
	out.Reset()
	over := compareSets(&out, a, b)
	if len(over) != 1 || over[0] != "live-serve/quality" || !strings.Contains(out.String(), "OVER") {
		t.Errorf("a 10%% quality gap against a 5%% bound: over = %v\n%s", over, out.String())
	}
}

func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-seconds", "0"},
		{"-nonsense"},
		{"stray"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("run(%v) printed a result", args)
		}
	}
}

// TestIncorrectOutputsFail checks the exit path of a failed correctness
// check: the result line says so and the run exits 1.
func TestIncorrectOutputsFail(t *testing.T) {
	o := &outcome{readings: map[string]float64{"quality": 0.5}, attempted: 3, failed: 1}
	o.failf("repetition 2: output digest differs")
	var out bytes.Buffer
	res := report(&out, "log-classify", endToEnd, o)
	if res.Correct || res.Failed != 1 {
		t.Errorf("result = %+v, want incorrect with one failure", res)
	}
	if msg := errIncorrect(o.problems).Error(); !strings.Contains(msg, "repetition 2") {
		t.Errorf("error %q does not name the failed check", msg)
	}
}
