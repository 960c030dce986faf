package stats

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 {
		t.Error("Median reordered its input")
	}
}

// The expected values are statistics.quantiles(xs, n=4) from CPython.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(5), 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, q2, q3 := Quartiles([]float64{4}); q1 != 4 || q2 != 4 || q3 != 4 {
		t.Errorf("Quartiles of one sample = %v %v %v, want 4 4 4", q1, q2, q3)
	}
}

func TestSpread(t *testing.T) {
	if got, want := Spread(seq(10)), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %v, want %v", got, want)
	}
	if got := Spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("Spread of zeros = %v, want 0", got)
	}
}

func TestTailRefusesUnsupportedRank(t *testing.T) {
	// p99 of 1000 samples is rank 990: exactly ten lie beyond it.
	if v, ok := Tail(seq(1000), 99); !ok || v != 990 {
		t.Errorf("Tail(1000, 99) = %v %v, want 990 true", v, ok)
	}
	// One sample fewer leaves nine beyond the rank.
	if _, ok := Tail(seq(999), 99); ok {
		t.Error("Tail(999, 99) reported with nine samples beyond the rank")
	}
	if _, ok := Tail(seq(1000), 99.9); ok {
		t.Error("Tail(1000, 99.9) reported with no support")
	}
	for _, p := range []float64{0, 100, -1} {
		if _, ok := Tail(seq(1000), p); ok {
			t.Errorf("Tail accepted p=%v", p)
		}
	}
	if _, ok := Tail(nil, 50); ok {
		t.Error("Tail reported on an empty sample")
	}
}
