package hhh

import (
	"fmt"
	"hash/fnv"
	"testing"

	"dnsbackscatter/internal/golden"
	"dnsbackscatter/internal/hll"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/rng"
)

// zipfStream draws n addresses from a population of pop, rank r drawn
// about ∝ 1/r (a uniform rank shifted right by a uniform 0–15 bits:
// integer-only, so the stream is the same on every platform). Every other
// rank sits in one of 32 hot /16s, so all four levels see structure: what a
// querier population looks like to the engine.
func zipfStream(seed uint64, pop, n int) []ipaddr.Addr {
	st := rng.New(seed)
	out := make([]ipaddr.Addr, n)
	for i := range out {
		rank := uint64(st.Intn(pop)) >> st.Intn(16)
		a := uint32(hll.Hash64(rank ^ seed<<40))
		if rank%2 == 0 {
			a = a&0xffff | uint32(hll.Hash64(rank%64))<<16
		}
		out[i] = ipaddr.Addr(a)
	}
	return out
}

// digest folds everything a sketch reports — the canonical text, then
// Heavy(bits, 0.01) at every level — into one FNV-1a sum.
func digest(s *Sketch) uint64 {
	h := fnv.New64a()
	h.Write(s.AppendText(nil))
	for _, bits := range Levels {
		for _, e := range s.Heavy(bits, 0.01) {
			h.Write([]byte(e.String()))
			h.Write([]byte{'\n'})
		}
	}
	return h.Sum64()
}

// feed adds every address with weight n.
func feed(s *Sketch, items []ipaddr.Addr, n uint64) *Sketch {
	for _, a := range items {
		s.Add(a, n)
	}
	return s
}

// sharded splits items over 16 sketches by address hash, as the engine's
// shards do, and merges them into a fresh sketch in the given order.
func sharded(capacity int, seed uint64, items []ipaddr.Addr, order func(i int) int) *Sketch {
	var parts [16]*Sketch
	for i := range parts {
		parts[i] = New(capacity, seed)
	}
	for _, a := range items {
		parts[hll.Hash64(uint64(a))%16].Add(a, 1)
	}
	out := New(capacity, seed)
	for i := range parts {
		out.Merge(parts[order(i)])
	}
	return out
}

// TestSketchPinned holds the sketch to the hhh/ digests in the module's
// testdata/digests.txt, recorded from the implementation that kept each
// level as a position-tracked heap and rewrote the prefix index on every
// sift (before PR 19): a structure that
// finds the same victims leaves every one unchanged. Unlike the reference
// comparison, this also pins the seeded tie hash itself.
func TestSketchPinned(t *testing.T) {
	churn := zipfStream(3, 40000, 120000)
	distinct := make([]ipaddr.Addr, 700) // all counts equal: the tie hash alone picks victims
	for i := range distinct {
		distinct[i] = ipaddr.Addr(hll.Hash64(uint64(i) + 1<<33))
	}
	reused := feed(New(64, 9), churn, 1)
	reused.Reset()
	for _, c := range []struct {
		name string
		s    *Sketch
	}{
		{"never-fills", feed(New(1024, 1), zipfStream(1, 50, 20000), 1)},
		{"churn-cap64", feed(New(64, 3), churn, 1)},
		{"churn-cap1024", feed(New(1024, 3), churn, 1)},
		{"weight-3", feed(New(64, 3), churn, 3)},
		{"weight-1000", feed(New(64, 3), churn, 1000)},
		{"mixed-weights", feed(feed(feed(New(64, 4), churn[:30000], 1), churn[30000:60000], 1000), churn[60000:], 3)},
		{"all-equal", feed(New(64, 5), distinct, 1)},
		{"cap1", feed(New(1, 6), churn[:5000], 1)},
		{"cap2", feed(New(2, 6), churn[:5000], 1)},
		{"merge16-ascending", sharded(1024, 7, churn, func(i int) int { return i })},
		{"merge16-descending", sharded(1024, 7, churn, func(i int) int { return 15 - i })},
		{"merge16-cap64", sharded(64, 7, churn, func(i int) int { return i })},
		{"reset-reuse", feed(reused, churn[:50000], 1)},
	} {
		golden.Digest(t, "hhh/"+c.name, fmt.Sprintf("%#x", digest(c.s)))
	}
}
