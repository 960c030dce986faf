// Package rng provides deterministic, splittable random number streams.
//
// Every stochastic subsystem in the simulator (world generation, activity
// scheduling, DNS cache jitter, machine-learning randomization) draws from
// its own named stream derived from a single master seed. Two runs with the
// same master seed therefore produce byte-identical results regardless of
// the order in which subsystems consume randomness.
//
// The generator is splitmix64 (Steele, Lea, Flood 2014): tiny state, full
// 64-bit period per stream, and good statistical quality for simulation
// workloads. It is not cryptographically secure and must never be used for
// key material.
package rng

import (
	"math"
	"math/bits"
)

// Stream is a deterministic pseudo-random stream. The zero value is a valid
// stream seeded with 0; prefer New or Source.Stream for anything real.
type Stream struct {
	state uint64
}

// New returns a stream seeded directly with seed.
func New(seed uint64) *Stream {
	return &Stream{state: seed}
}

// golden gamma for splitmix64 state advance.
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 random bits.
func (s *Stream) Uint64() uint64 {
	s.state += gamma
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method avoids modulo bias.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Int63 returns a non-negative 63-bit random integer.
func (s *Stream) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Float64() < p
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the Box–Muller transform.
func (s *Stream) NormFloat64() float64 {
	for {
		u := s.Float64()
		if u == 0 {
			continue
		}
		v := s.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1.
func (s *Stream) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u == 0 {
			continue
		}
		return -math.Log(u)
	}
}

// Pareto returns a Pareto(alpha)-distributed value with minimum xm. Heavy
// tails in footprint sizes and campaign durations come from here.
func (s *Stream) Pareto(xm, alpha float64) float64 {
	for {
		u := s.Float64()
		if u == 0 {
			continue
		}
		return xm / math.Pow(u, 1/alpha)
	}
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Source derives independent named streams from one master seed.
type Source struct {
	seed uint64
}

// NewSource returns a stream factory for the given master seed.
func NewSource(seed uint64) *Source {
	return &Source{seed: seed}
}

// Stream returns the stream for name. The same (seed, name) pair always
// yields an identical stream, and distinct names yield decorrelated
// streams (FNV-1a mixing of the name into the seed).
func (src *Source) Stream(name string) *Stream {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	// One splitmix step decorrelates adjacent hashes.
	st := Stream{state: src.seed ^ h}
	return &Stream{state: st.Uint64()}
}
