// Package darknet simulates the unused-address-space monitors the paper
// uses as external evidence for scanners (Appendix A: one /17 and one /18
// in Japan; a confirmed scanner hits >1024 darknet addresses).
//
// The simulator does not enumerate every raw probe an originator sends —
// campaigns generate reaction-producing touches — so the darknet accepts
// both exact observations (a probed target that happens to fall inside a
// monitored prefix) and thinned synthetic observations derived from the
// raw-probe volume a touch stream implies.
package darknet

import (
	"math"

	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/rng"
)

// Darknet monitors a set of unused prefixes.
type Darknet struct {
	prefixes []ipaddr.Prefix
	// hits counts distinct darknet addresses probed per source. Random
	// scanning virtually never repeats an address inside a small darknet,
	// so hit count ≈ unique addresses.
	hits map[ipaddr.Addr]int
}

// New returns a darknet over the given prefixes.
func New(prefixes ...ipaddr.Prefix) *Darknet {
	return &Darknet{prefixes: prefixes, hits: make(map[ipaddr.Addr]int)}
}

// NewPaperDarknets builds the paper's deployment: a /17 and a /18,
// placed in the given /8.
func NewPaperDarknets(slash8 byte) *Darknet {
	return New(
		ipaddr.NewPrefix(ipaddr.FromOctets(slash8, 0, 0, 0), 17),
		ipaddr.NewPrefix(ipaddr.FromOctets(slash8, 200, 0, 0), 18),
	)
}

// Contains reports whether target lies in monitored space.
func (d *Darknet) Contains(target ipaddr.Addr) bool {
	for _, p := range d.prefixes {
		if p.Contains(target) {
			return true
		}
	}
	return false
}

// Size returns the number of monitored addresses.
func (d *Darknet) Size() uint64 {
	var n uint64
	for _, p := range d.prefixes {
		n += p.Size()
	}
	return n
}

// Fraction returns the share of the IPv4 space monitored.
func (d *Darknet) Fraction() float64 {
	return float64(d.Size()) / float64(uint64(1)<<32)
}

// Observe records a probe if the target is monitored, returning whether it
// was.
func (d *Darknet) Observe(source, target ipaddr.Addr) bool {
	if !d.Contains(target) {
		return false
	}
	d.hits[source]++
	return true
}

// ObserveThinned accounts for rawProbes unenumerated random probes from
// source: the number landing in the darknet is a Poisson thinning at the
// darknet's space fraction.
func (d *Darknet) ObserveThinned(source ipaddr.Addr, rawProbes float64, st *rng.Stream) {
	lambda := rawProbes * d.Fraction()
	var n int
	switch {
	case lambda <= 0:
		return
	case lambda < 30:
		// Knuth's method.
		l := math.Exp(-lambda)
		p := 1.0
		for {
			p *= st.Float64()
			if p <= l {
				break
			}
			n++
		}
	default:
		n = int(math.Round(lambda + math.Sqrt(lambda)*st.NormFloat64()))
		if n < 0 {
			n = 0
		}
	}
	if n > 0 {
		d.hits[source] += n
	}
}

// Hits returns the distinct-address count for a source.
func (d *Darknet) Hits(source ipaddr.Addr) int { return d.hits[source] }
