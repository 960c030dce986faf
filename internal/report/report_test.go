package report

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dnsbackscatter/internal/golden"
	"dnsbackscatter/internal/ml"
	"dnsbackscatter/internal/obs"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) < 25 {
		t.Fatalf("only %d experiments registered", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.Name == "" || e.Desc == "" || e.Run == nil {
			t.Errorf("malformed experiment %+v", e)
		}
		if seen[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		got, ok := Find(e.Name)
		if !ok || got.Name != e.Name {
			t.Errorf("Find(%q) failed", e.Name)
		}
	}
	if _, ok := Find("nonsense"); ok {
		t.Error("Find accepted nonsense")
	}
}

// TestHeader pins the title banner: the title underlined with '=' to its
// byte length.
func TestHeader(t *testing.T) {
	r := Result{Title: "Title"}
	if got := r.String(); !strings.HasPrefix(got, "Title\n=====\n") {
		t.Errorf("header = %q", got)
	}
}

// TestTableWriter pins table alignment: columns as wide as their widest
// cell plus two spaces of gutter, no padding after a row's last cell.
func TestTableWriter(t *testing.T) {
	tab := &Table{Header: []string{"a", "bb", "c"}}
	tab.row(Cell{1, "%d"}, str("x"), Cell{2, "%d"})
	out := tableResult("T", tab).String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[2] != "a  bb  c" || lines[3] != "1  x   2" {
		t.Errorf("alignment wrong:\n%s", out)
	}
}

// TestRender pins the renderer: the title underlined to its byte length,
// columns as wide as their widest cell in bytes with a two-space gutter,
// no padding after a row's last cell, rows shorter than others, text
// lines verbatim, and each cell printed with its own verb.
func TestRender(t *testing.T) {
	tab := &Table{Header: []string{"a", "bb", "c"}}
	tab.row(Cell{1, "%d"}, str("x"), Cell{2.5, "%.2f"})
	tab.row(Cell{ml.MeanStd{Mean: 0.756, Std: 0.1}, "%.2f (%.2f)"})
	r := tableResult("Title ≥", tab, "", Cell{12.5, "%.0f%%"}.String())
	want := "Title ≥\n=========\n" +
		"a            bb  c\n" +
		"1            x   2.50\n" +
		"0.76 (0.10)\n" +
		"\n" +
		"12%\n"
	if got := r.String(); got != want {
		t.Errorf("rendered\n%s\nwant\n%s", got, want)
	}
}

// TestMeasures pins how table cells become keys: the table name, the
// row's key cells (trimmed) or its position, the column name, a MeanStd
// split in two, strings skipped, then the named measurements.
func TestMeasures(t *testing.T) {
	keyed := &Table{Name: "JP", Keys: 1, Header: []string{"case", "n", "acc", "note"}, Cols: []string{"", "count"}}
	keyed.row(str(" spam "), Cell{uint64(3), "%d"}, Cell{ml.MeanStd{Mean: 0.5, Std: 0.25}, "%.2f (%.2f)"}, str("x"))
	r := tableResult("T", keyed)
	byPos := &Table{Header: []string{"f"}}
	byPos.row(Cell{0.125, "%.4g%%"})
	r.table(byPos)
	r.measure("fit/exponent", 0.81)
	want := []Measure{{"JP/spam/count", 3}, {"JP/spam", 0.5}, {"JP/spam/std", 0.25}, {"1/f", 0.125}, {"fit/exponent", 0.81}}
	if got := r.Measures(); !reflect.DeepEqual(got, want) {
		t.Errorf("measures = %v, want %v", got, want)
	}
}

// TestSparkline pins the count strips the figures print, one rung per
// interval with no column cap.
func TestSparkline(t *testing.T) {
	if obs.Sparkline([]int(nil)) != "" {
		t.Error("empty sparkline")
	}
	if got := obs.Sparkline([]int{0, 0}); got != "__" {
		t.Errorf("zero sparkline = %q", got)
	}
	if got := obs.Sparkline(make([]int, 300)); len(got) != 300 {
		t.Errorf("300 intervals render %d columns", len(got))
	}
	got := obs.Sparkline([]int{0, 5, 10})
	if len(got) != 3 || got[0] != '_' || got[2] != '@' {
		t.Errorf("sparkline = %q", got)
	}
}

// quick experiments touch only the two-day datasets and finish in seconds.
var quickExperiments = []string{
	"figure3", "table2", "figure16", "table7", "table8", "table4",
	"figure10", "ablation-features", "ablation-classes",
}

func TestQuickExperiments(t *testing.T) {
	s := NewStore(0.3)
	for _, name := range quickExperiments {
		e, ok := Find(name)
		if !ok {
			t.Fatalf("missing experiment %q", name)
		}
		if r := e.Run(s); len(r.Measures()) == 0 {
			t.Errorf("%s: no table row or measurement:\n%s", name, r)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	for _, m := range Figure4(NewStore(0.3)).Measures() {
		if m.Key == "fit/exponent" {
			return
		}
	}
	t.Error("figure4 has no fit/exponent measurement")
}

// TestAllExperiments is the full sweep at a small scale: every experiment
// runs, even on thin data. Their concatenated output, as bsrepro prints
// it, must equal testdata/experiments.golden byte for byte, and their
// measurements, keyed "experiment/key" and sorted, testdata/measures.tsv.
// Every experiment contributes a measurement and no key repeats.
// Regenerate both deliberately with
// BS_UPDATE_GOLDEN=1 go test -run TestAllExperiments ./internal/report.
// Skipped with -short.
func TestAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	s := NewStore(0.2)
	var out strings.Builder
	var tsv []string
	seen := map[string]bool{}
	for _, e := range All() {
		r := e.Run(s)
		out.WriteString(r.String() + "\n")
		ms := r.Measures()
		if len(ms) == 0 {
			t.Errorf("%s: no measurement", e.Name)
		}
		for _, m := range ms {
			key := e.Name + "/" + m.Key
			if seen[key] {
				t.Errorf("measurement key %q repeats", key)
			}
			seen[key] = true
			tsv = append(tsv, key+"\t"+strconv.FormatFloat(m.Value, 'g', -1, 64)+"\n")
		}
	}
	sort.Strings(tsv)
	checkGolden(t, filepath.Join("testdata", "experiments.golden"), out.String())
	checkGolden(t, filepath.Join("testdata", "measures.tsv"), strings.Join(tsv, ""))
}

// checkGolden compares got with the file at path, rewriting the file
// first under BS_UPDATE_GOLDEN=1.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	golden.Record(t, path, []byte(got))
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with BS_UPDATE_GOLDEN=1): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}
