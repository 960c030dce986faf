package report

import (
	"strings"
	"testing"

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

func TestTableWriter(t *testing.T) {
	w := &tw{}
	w.row("a", "bb", "c")
	w.rowf("%d\t%s\t%d", 1, "x", 2)
	out := w.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	// Columns align on the widest cell plus two spaces of gutter.
	if !strings.HasPrefix(lines[0], "a  bb  c") || !strings.HasPrefix(lines[1], "1  x   2") {
		t.Errorf("alignment wrong:\n%s", out)
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

func TestHeader(t *testing.T) {
	h := header("Title")
	if !strings.HasPrefix(h, "Title\n=====") {
		t.Errorf("header = %q", h)
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
		out := e.Run(s)
		if len(out) < 40 {
			t.Errorf("%s: suspiciously short output:\n%s", name, out)
		}
		if !strings.Contains(out, "\n") {
			t.Errorf("%s: no rows", name)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	s := NewStore(0.3)
	out := Figure4(s)
	if !strings.Contains(out, "power-law fit") {
		t.Fatalf("no fit line:\n%s", out)
	}
	if !strings.Contains(out, "detection threshold") {
		t.Error("missing threshold note")
	}
}

// TestAllExperiments is the full sweep at a small scale: every experiment
// must produce output without panicking, even on thin data. Skipped with
// -short; takes a few minutes.
func TestAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	s := NewStore(0.2)
	for _, e := range All() {
		out := e.Run(s)
		if len(out) == 0 {
			t.Errorf("%s: empty output", e.Name)
		}
		t.Logf("%s: %d bytes", e.Name, len(out))
	}
}
