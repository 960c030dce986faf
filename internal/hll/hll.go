// Package hll implements HyperLogLog cardinality estimation (Flajolet et
// al. 2007, with the small-range correction of HyperLogLog++).
//
// The paper's sensors process billions of queries (Table I); counting
// unique queriers per originator exactly needs a set per originator, which
// dominates sensor memory. A 2^p-register HLL answers the only question
// the pipeline asks of those sets — "how many unique queriers?" — in
// fixed space with ~1.04/sqrt(2^p) relative error, comfortably inside the
// ≥20-querier analyzability threshold's tolerance. The streaming extractor
// uses it; the exact extractor remains the default for small datasets.
//
// The package also provides BottomK, the KMV (k minimum values) distinct
// sample that pairs with the HLL in every streaming aggregate: the HLL
// answers "how many distinct queriers", the bottom-k answers "which ones,
// uniformly" in the same bounded space. Both sketches merge losslessly
// (register max / bottom-k of the union), which is what lets sharded
// streaming state recombine into byte-deterministic snapshots.
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
}

// New returns a sketch with 2^p registers. p must be in [4, 18]; p=11
// (2048 registers, ~2.3% error) suits per-originator querier counting.
func New(p uint8) (*Sketch, error) {
	if p < 4 || p > 18 {
		return nil, fmt.Errorf("hll: precision %d outside [4, 18]", p)
	}
	return &Sketch{p: p, registers: make([]uint8, 1<<p)}, nil
}

// MustNew is New for static configuration; it panics on error.
func MustNew(p uint8) *Sketch {
	s, err := New(p)
	if err != nil {
		panic(err)
	}
	return s
}

// Add observes a 64-bit hashed item and reports whether a register rose:
// Estimate is a function of the registers alone, so it is unchanged after
// any run of Adds that all reported false. Callers hash their values (the
// sensor uses the splitmix finalizer over querier addresses).
func (s *Sketch) Add(hash uint64) bool {
	idx := hash >> (64 - s.p)
	rest := hash<<s.p | 1<<(s.p-1) // guard bit keeps clz defined
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank <= s.registers[idx] {
		return false
	}
	s.registers[idx] = rank
	return true
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
	var sum float64
	zeros := 0
	for _, r := range s.registers {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	e := alpha(len(s.registers)) * m * m / sum
	// Small-range correction: linear counting while registers are sparse.
	if e <= 2.5*m && zeros > 0 {
		e = m * math.Log(m/float64(zeros))
	}
	return uint64(e + 0.5)
}

// Merge folds other into s; both must share the precision.
func (s *Sketch) Merge(other *Sketch) error {
	if s.p != other.p {
		return fmt.Errorf("hll: merging precision %d into %d", other.p, s.p)
	}
	for i, r := range other.registers {
		if r > s.registers[i] {
			s.registers[i] = r
		}
	}
	return nil
}

// Clone returns an independent copy of the sketch.
func (s *Sketch) Clone() *Sketch {
	c := &Sketch{p: s.p, registers: make([]uint8, len(s.registers))}
	copy(c.registers, s.registers)
	return c
}

// Equal reports whether two sketches have identical precision and
// register state — the byte-level identity that merge and snapshot
// determinism tests pin.
func (s *Sketch) Equal(other *Sketch) bool {
	if other == nil || s.p != other.p {
		return false
	}
	for i, r := range s.registers {
		if r != other.registers[i] {
			return false
		}
	}
	return true
}

// AppendBinary appends the sketch's canonical serialization (precision
// byte followed by the raw registers) to dst. Two sketches serialize
// identically iff Equal reports true, so snapshot artifacts built from
// sketches are byte-deterministic.
func (s *Sketch) AppendBinary(dst []byte) []byte {
	dst = append(dst, s.p)
	return append(dst, s.registers...)
}

// Reset clears the sketch for reuse.
func (s *Sketch) Reset() {
	for i := range s.registers {
		s.registers[i] = 0
	}
}

// SizeBytes reports the sketch's register memory.
func (s *Sketch) SizeBytes() int { return len(s.registers) }

// Hash64 is the mixing function the sensor applies to addresses before
// Add: the splitmix64 finalizer, a strong 64-bit avalanche.
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
