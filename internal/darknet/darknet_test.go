package darknet

import (
	"math"
	"testing"

	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/rng"
)

func TestContains(t *testing.T) {
	d := NewPaperDarknets(150)
	if !d.Contains(ipaddr.MustParse("150.0.100.1")) {
		t.Error("/17 address not monitored")
	}
	if !d.Contains(ipaddr.MustParse("150.200.10.1")) {
		t.Error("/18 address not monitored")
	}
	if d.Contains(ipaddr.MustParse("150.128.0.1")) {
		t.Error("address outside both prefixes reported monitored")
	}
	if d.Contains(ipaddr.MustParse("151.0.0.1")) {
		t.Error("wrong /8 reported monitored")
	}
}

func TestSizeAndFraction(t *testing.T) {
	d := NewPaperDarknets(150)
	want := uint64(1<<15 + 1<<14) // /17 + /18
	if d.Size() != want {
		t.Errorf("Size = %d, want %d", d.Size(), want)
	}
	if f := d.Fraction(); math.Abs(f-float64(want)/float64(uint64(1)<<32)) > 1e-15 {
		t.Errorf("Fraction = %v", f)
	}
}

func TestObserve(t *testing.T) {
	d := NewPaperDarknets(150)
	src := ipaddr.MustParse("1.2.3.4")
	if !d.Observe(src, ipaddr.MustParse("150.0.0.1")) {
		t.Error("monitored probe not observed")
	}
	if d.Observe(src, ipaddr.MustParse("9.9.9.9")) {
		t.Error("unmonitored probe observed")
	}
	if d.Hits(src) != 1 {
		t.Errorf("Hits = %d", d.Hits(src))
	}
}

func TestObserveThinnedMean(t *testing.T) {
	// At fraction ~1.14e-5, 10M raw probes expect ~114 hits (the normal
	// approximation) and 500k expect ~5.7 (Knuth's Poisson draw); repeat
	// to tighten the estimate.
	for _, c := range []struct {
		raw    float64
		rounds int
	}{{1e7, 50}, {5e5, 400}} {
		d := NewPaperDarknets(150)
		src := ipaddr.MustParse("1.2.3.4")
		st := rng.New(7)
		for i := 0; i < c.rounds; i++ {
			d.ObserveThinned(src, c.raw, st)
		}
		want := c.raw * d.Fraction() * float64(c.rounds)
		got := float64(d.Hits(src))
		if math.Abs(got-want)/want > 0.1 {
			t.Errorf("%g raw probes: thinned hits = %v, want ≈%v", c.raw, got, want)
		}
	}
}

func TestObserveThinnedZero(t *testing.T) {
	d := NewPaperDarknets(150)
	st := rng.New(7)
	d.ObserveThinned(ipaddr.MustParse("1.2.3.4"), 0, st)
	if d.Hits(ipaddr.MustParse("1.2.3.4")) != 0 {
		t.Error("zero probes produced hits")
	}
}
