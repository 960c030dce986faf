// Package hll implements the distinct-count sketches under the streaming
// engine.
//
// The paper's sensors process billions of queries (Table I); counting
// unique queriers per originator exactly needs a set per originator, which
// dominates sensor memory. BottomK, a KMV (k minimum values) sample of the
// querier hashes, bounds that set at k: it knows the count exactly below k
// and estimates it above, and the same sample is the uniform one the
// static features are computed from. It is order-insensitive, so a
// replayed stream rebuilds it byte for byte.
//
// Sketch is a HyperLogLog counter (Flajolet et al. 2007, with the
// small-range correction of HyperLogLog++) in 2^p one-byte registers:
// nothing in the pipeline counts with it, and cmd/bsperf's hll.add_ns
// times its Add.
package hll

import (
	"fmt"
	"math"
	"math/bits"
)

// Sketch is a HyperLogLog counter. The zero value is not usable; call New.
type Sketch struct {
	p         uint8
	registers []uint8
	// hist[r] counts the registers holding rank r (ranks end at 65−p ≤ 61):
	// what Estimate sums, kept current wherever a register is written.
	hist [64]uint32
}

// New returns a sketch with 2^p registers. p must be in [4, 18]; p = 11
// gives 2048 registers and ~2.3% error.
func New(p uint8) (*Sketch, error) {
	if p < 4 || p > 18 {
		return nil, fmt.Errorf("hll: precision %d outside [4, 18]", p)
	}
	s := &Sketch{p: p, registers: make([]uint8, 1<<p)}
	s.hist[0] = 1 << p
	return s, nil
}

// MustNew is New for static configuration; it panics on error.
func MustNew(p uint8) *Sketch {
	s, err := New(p)
	if err != nil {
		panic(err)
	}
	return s
}

// Add observes a 64-bit hashed item. Callers hash their values (with
// Hash64, say).
func (s *Sketch) Add(hash uint64) {
	idx := hash >> (64 - s.p)
	rest := hash<<s.p | 1<<(s.p-1) // guard bit keeps clz defined
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if old := s.registers[idx]; rank > old {
		s.registers[idx] = rank
		s.hist[old&63]--
		s.hist[rank&63]++
	}
}

// alpha is the bias-correction constant for m registers.
func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// Estimate returns the cardinality estimate.
func (s *Sketch) Estimate() uint64 {
	m := float64(len(s.registers))
	e := alpha(len(s.registers)) * m * m / s.harmonic()
	// Small-range correction: linear counting while registers are sparse.
	if zeros := s.hist[0]; e <= 2.5*m && zeros > 0 {
		e = m * math.Log(m/float64(zeros))
	}
	return uint64(e + 0.5)
}

// harmonic returns Σ 2^−register off the rank histogram, as Σ hist[r]·2^−r
// — 64 multiplications where a loop over the registers divides 2^p times —
// in two halves, ranks ≤ 32 and above. Each half adds at most 2^18
// multiples of 2^−32 (2^−63) that are each at most 1 (2^−33), so every
// partial sum fits a float64 exactly and the order of addition is
// immaterial; adding the halves rounds once. The result is therefore the
// correctly rounded sum, and the exact one — which summing register by
// register gives too — whenever p plus the largest rank is at most 53: at
// p = 11 that is every sketch with no rank above 42, which one hash in 2^42
// reaches.
func (s *Sketch) harmonic() float64 {
	var hi, lo float64
	for r := 0; r <= 32; r++ {
		hi += float64(s.hist[r]) * pow2neg(r)
	}
	for r := 33; r < len(s.hist); r++ {
		lo += float64(s.hist[r]) * pow2neg(r)
	}
	return hi + lo
}

// pow2neg returns 2^−r for 0 ≤ r < 1023, exactly.
func pow2neg(r int) float64 { return math.Float64frombits(uint64(1023-r) << 52) }

// Hash64 is the mixing function the sensor applies to addresses before
// they enter a sketch: the splitmix64 finalizer, a strong 64-bit
// avalanche.
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
