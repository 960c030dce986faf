package hll

import (
	"math"
	"math/big"
	"testing"

	"dnsbackscatter/internal/rng"
)

func TestPrecisionBounds(t *testing.T) {
	for _, p := range []uint8{0, 3, 19, 64} {
		if _, err := New(p); err == nil {
			t.Errorf("precision %d accepted", p)
		}
	}
	for _, p := range []uint8{4, 11, 18} {
		if _, err := New(p); err != nil {
			t.Errorf("precision %d rejected: %v", p, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0) did not panic")
		}
	}()
	MustNew(0)
}

func TestAccuracyAcrossScales(t *testing.T) {
	st := rng.New(42)
	for _, n := range []int{10, 100, 1000, 10000, 200000} {
		s := MustNew(11)
		for i := 0; i < n; i++ {
			s.Add(Hash64(st.Uint64()))
		}
		got := float64(s.Estimate())
		relErr := math.Abs(got-float64(n)) / float64(n)
		// 2048 registers: ~2.3% standard error; allow 4 sigma.
		if relErr > 0.10 {
			t.Errorf("n=%d: estimate %v, rel err %.3f", n, got, relErr)
		}
	}
}

func TestDuplicatesDoNotInflate(t *testing.T) {
	s := MustNew(11)
	for i := 0; i < 100; i++ {
		for k := 0; k < 50; k++ {
			s.Add(Hash64(uint64(i)))
		}
	}
	got := s.Estimate()
	if got < 90 || got > 110 {
		t.Errorf("100 uniques with duplicates estimated as %d", got)
	}
}

func TestSmallCountsExact(t *testing.T) {
	// Linear counting should make tiny cardinalities near-exact — this is
	// what the ≥20-querier threshold depends on.
	for _, n := range []int{1, 5, 20, 25} {
		s := MustNew(11)
		for i := 0; i < n; i++ {
			s.Add(Hash64(uint64(i) * 2654435761))
		}
		got := int(s.Estimate())
		if got < n-1 || got > n+1 {
			t.Errorf("n=%d estimated as %d", n, got)
		}
	}
}

func TestSizeBytes(t *testing.T) {
	if n := len(MustNew(11).registers); n != 2048 {
		t.Errorf("precision 11 holds %d one-byte registers, want 2048", n)
	}
}

func TestHash64Avalanche(t *testing.T) {
	// Flipping one input bit should flip ~half the output bits.
	base := Hash64(12345)
	totalFlips := 0
	for b := 0; b < 64; b++ {
		diff := base ^ Hash64(12345^(1<<b))
		flips := 0
		for ; diff != 0; diff &= diff - 1 {
			flips++
		}
		totalFlips += flips
	}
	mean := float64(totalFlips) / 64
	if mean < 24 || mean > 40 {
		t.Errorf("mean output bit flips = %v, want ≈32", mean)
	}
}

// referenceHarmonic is the harmonic sum as the HyperLogLog paper writes
// it, one division per register in register order — what Estimate ran
// before the rank histogram, kept as its oracle.
func referenceHarmonic(s *Sketch) float64 {
	var sum float64
	for _, r := range s.registers {
		sum += 1 / float64(uint64(1)<<r)
	}
	return sum
}

// referenceEstimate is Estimate over referenceHarmonic and a zero count
// taken from the registers.
func referenceEstimate(s *Sketch) uint64 {
	m := float64(len(s.registers))
	zeros := 0
	for _, r := range s.registers {
		if r == 0 {
			zeros++
		}
	}
	e := alpha(len(s.registers)) * m * m / referenceHarmonic(s)
	if e <= 2.5*m && zeros > 0 {
		e = m * math.Log(m/float64(zeros))
	}
	return uint64(e + 0.5)
}

// roundedHarmonic is the exact harmonic sum, rounded once to nearest even.
func roundedHarmonic(s *Sketch) float64 {
	sum := new(big.Float).SetPrec(256)
	for _, r := range s.registers {
		sum.Add(sum, new(big.Float).SetMantExp(big.NewFloat(1), -int(r)))
	}
	f, _ := sum.Float64()
	return f
}

// checkEstimate holds s to the reference bit for bit — the sum, not only
// the rounded estimate — and its histogram to a recount of the registers.
func checkEstimate(t *testing.T, s *Sketch, when string) {
	t.Helper()
	var hist [64]uint32
	for _, r := range s.registers {
		hist[r]++
	}
	if hist != s.hist {
		t.Fatalf("%s: histogram %v, registers recount to %v", when, s.hist, hist)
	}
	if got, want := s.harmonic(), referenceHarmonic(s); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: harmonic sum %x, register loop %x", when, got, want)
	}
	if got, want := s.Estimate(), referenceEstimate(s); got != want {
		t.Fatalf("%s: Estimate %d, reference %d", when, got, want)
	}
}

// withRank is a hash that lands in register idx of a 2^p-register sketch
// with exactly the given rank (1 ≤ rank ≤ 65−p; the largest is a hash whose
// bits after the index are all zero).
func withRank(p uint8, idx uint64, rank int) uint64 {
	h := idx << (64 - p)
	if rank <= 64-int(p) {
		h |= 1 << (64 - int(p) - rank)
	}
	return h
}

func TestEstimateMatchesReference(t *testing.T) {
	for _, p := range []uint8{4, 11, 14, 18} {
		st := rng.New(uint64(p))
		s := MustNew(p)
		checkEstimate(t, s, "empty")
		n := 0
		for _, upTo := range []int{1, 20, 1000, 1000000} {
			for ; n < upTo; n++ {
				s.Add(Hash64(st.Uint64()))
			}
			checkEstimate(t, s, "after adds")
		}
		// Few registers, so most adds raise one: the histogram is checked
		// after every single add, and now and then from a fresh sketch.
		for i := 0; i < 400; i++ {
			if st.Intn(50) == 0 {
				s = MustNew(p)
			}
			s.Add(Hash64(st.Uint64()))
			checkEstimate(t, s, "random add")
		}
	}
}

// TestEstimateBeyondExactRange pins the documented behaviour once p plus
// the largest rank passes 53 and the sum no longer fits a float64: the
// histogram sum is the correctly rounded one.
func TestEstimateBeyondExactRange(t *testing.T) {
	// What a sketch would need to get there by chance: 1,000 items and one
	// register at rank 54. The stray 2^−54 is far below half an ulp of the
	// sum, so the register loop agrees.
	s := MustNew(11)
	for i := 0; i < 1000; i++ {
		s.Add(Hash64(uint64(i)))
	}
	s.Add(withRank(11, 7, 54))
	if s.registers[7] != 54 {
		t.Fatalf("register 7 holds rank %d, want 54", s.registers[7])
	}
	if got, want := s.harmonic(), roundedHarmonic(s); got != want {
		t.Errorf("harmonic sum %x, correctly rounded %x", got, want)
	}
	checkEstimate(t, s, "rank 54 at p=11")

	// A construction where the order of addition does matter: one register
	// at rank 1 and fifteen at rank 54. Register by register, each 2^−54 is
	// half an ulp of 0.5 and rounds away; together they are 7.5 ulps.
	s = MustNew(4)
	s.Add(withRank(4, 0, 1))
	for i := uint64(1); i < 16; i++ {
		s.Add(withRank(4, i, 54))
	}
	got := s.harmonic()
	if want := roundedHarmonic(s); got != want {
		t.Errorf("harmonic sum %x, correctly rounded %x", got, want)
	}
	if loop := referenceHarmonic(s); loop != 0.5 || got == loop {
		t.Errorf("register loop gives %x and the histogram %x: the case no longer separates them", loop, got)
	}
}

func BenchmarkAdd(b *testing.B) {
	s := MustNew(11)
	for i := 0; i < b.N; i++ {
		s.Add(Hash64(uint64(i)))
	}
}

func BenchmarkEstimate(b *testing.B) {
	// sparse is the analyzability gate's regime (most tracked originators
	// sit near 20 queriers); dense has every register set.
	for _, c := range []struct {
		name  string
		items int
	}{{"sparse", 20}, {"dense", 100000}} {
		b.Run(c.name, func(b *testing.B) {
			s := MustNew(11)
			for i := 0; i < c.items; i++ {
				s.Add(Hash64(uint64(i)))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = s.Estimate()
			}
		})
	}
}

var sink uint64
