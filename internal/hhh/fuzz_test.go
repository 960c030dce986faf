package hhh

import (
	"testing"

	"dnsbackscatter/internal/ipaddr"
)

// fuzzTruth is the exact per-level mass of everything a sketch observed,
// directly or through merges.
type fuzzTruth [len(Levels)]map[uint32]uint64

func (tr *fuzzTruth) add(a ipaddr.Addr, n uint64) {
	for li := range tr {
		tr.addAt(li, prefixAt(a, li), n)
	}
}

func (tr *fuzzTruth) addAt(li int, prefix uint32, n uint64) {
	if tr[li] == nil {
		tr[li] = make(map[uint32]uint64)
	}
	tr[li][prefix] += n
}

// fuzzAddr spreads two bytes over an address so that a handful of inputs
// share /8s, /16s and /24s: hits, fills and evictions at every level.
func fuzzAddr(x, y byte) ipaddr.Addr {
	return ipaddr.Addr(uint32(x&3)<<24 | uint32(x>>2&3)<<16 | uint32(x>>4&3)<<8 | uint32(y&7))
}

// FuzzSketchOps decodes bytes into Add/Fold/Merge/Reset on a sketch of
// capacity 1–8, where almost every newcomer evicts, and after each
// operation holds the sketch to the reference slot for slot and to the
// space-saving contract against exact counts: true ∈ [Count−Err, Count]
// for every slot. Byte 0 picks the capacity; then each operation is an
// opcode byte and two operand bytes, and a fold takes up to nine more
// addresses of two bytes each. Zero weights are in-domain (they must
// change nothing).
func FuzzSketchOps(f *testing.F) {
	// The seed corpus is testdata/fuzz/FuzzSketchOps: capacity 1, merge and
	// reset, zero weights, a 120-operation churn at capacity 4, and folds
	// that evict inside the run at capacity 2.
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		capacity := 1
		if len(data) > 0 {
			capacity = 1 + int(data[0])%8
			data = data[1:]
		}
		const seed = 42
		p, other := newRefPair(capacity, seed), newRefPair(capacity, seed)
		var truth, otherTruth fuzzTruth
		for len(data) >= 3 {
			op, x, y := data[0], data[1], data[2]
			data = data[3:]
			switch {
			case op >= 240 && op < 250: // a run of 1 + op−240 addresses, folded at once
				run := []ipaddr.Addr{fuzzAddr(x, y)}
				for ; len(run) <= int(op-240) && len(data) >= 2; data = data[2:] {
					run = append(run, fuzzAddr(data[0], data[1]))
				}
				p.fold(run)
				for _, a := range run {
					truth.add(a, 1)
				}
			case op < 250: // most of the space: an Add, weight 0–9 with the odd large one
				n := uint64(op % 10)
				if op%50 == 49 {
					n = uint64(x)<<8 | uint64(y)
				}
				p.add(fuzzAddr(x, y), n)
				truth.add(fuzzAddr(x, y), n)
			case op < 253: // feed the sketch that a later merge folds in
				other.add(fuzzAddr(x, y), 1+uint64(y>>3))
				otherTruth.add(fuzzAddr(x, y), 1+uint64(y>>3))
			case op < 255:
				p.s.Merge(other.s)
				p.r.merge(other.r)
				for li := range otherTruth {
					for prefix, n := range otherTruth[li] {
						truth.addAt(li, prefix, n)
					}
				}
				matchReference(t, other.s, other.r, "merge argument")
			default:
				p.s.Reset()
				p.r.reset()
				truth = fuzzTruth{}
			}
			matchReference(t, p.s, p.r, "after op")
			for li, bits := range Levels {
				for _, e := range p.s.Level(bits) {
					if n := truth[li][uint32(e.Prefix)]; n > e.Count || e.Count-e.Err > n {
						t.Fatalf("/%d %v: true mass %d outside [%d−%d, %d]", bits, e.Prefix, n, e.Count, e.Err, e.Count)
					}
				}
			}
		}
	})
}
