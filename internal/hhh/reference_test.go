package hhh

import (
	"cmp"
	"slices"
	"testing"

	"dnsbackscatter/internal/hll"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/rng"
)

// refSketch is space-saving as Metwally et al. state it, one unordered
// slot list per level and a linear scan for the victim — written for
// reading, not speed. It is the oracle Sketch is compared against: the
// victim is the minimum of the total order (count, tie, prefix), however a
// faster structure finds it.
type refSketch struct {
	cap    int
	seed   uint64
	total  uint64
	levels [len(Levels)][]refSlot
}

type refSlot struct {
	prefix          uint32
	count, err, tie uint64
}

func refLess(a, b refSlot) bool {
	return cmp.Or(cmp.Compare(a.count, b.count), cmp.Compare(a.tie, b.tie), cmp.Compare(a.prefix, b.prefix)) < 0
}

func refIndex(lv []refSlot, prefix uint32) int {
	return slices.IndexFunc(lv, func(sl refSlot) bool { return sl.prefix == prefix })
}

// refMin is the smallest tracked count, 0 while a slot is free.
func refMin(lv []refSlot, capacity int) uint64 {
	if len(lv) < capacity {
		return 0
	}
	return slices.MinFunc(lv, func(a, b refSlot) int { return cmp.Compare(a.count, b.count) }).count
}

func (r *refSketch) add(a ipaddr.Addr, n uint64) {
	if n == 0 {
		return // nothing observed
	}
	r.total += n
	for li := range r.levels {
		p := prefixAt(a, li)
		tie := hll.Hash64(r.seed ^ uint64(Levels[li])<<32 ^ uint64(p))
		lv := r.levels[li]
		if i := refIndex(lv, p); i >= 0 {
			lv[i].count += n
		} else if len(lv) < r.cap {
			r.levels[li] = append(lv, refSlot{prefix: p, count: n, tie: tie})
		} else {
			m := 0
			for j := range lv {
				if refLess(lv[j], lv[m]) {
					m = j
				}
			}
			lv[m] = refSlot{prefix: p, count: lv[m].count + n, err: lv[m].count, tie: tie}
		}
	}
}

// merge is the union rule Sketch.Merge documents: shared prefixes sum, a
// prefix one side lacks takes that side's minimum as count and error, the
// largest cap of the union survive.
func (r *refSketch) merge(o *refSketch) {
	r.total += o.total
	for li := range r.levels {
		a, b := r.levels[li], o.levels[li]
		minA, minB := refMin(a, r.cap), refMin(b, o.cap)
		var all []refSlot
		for _, sl := range a {
			if j := refIndex(b, sl.prefix); j >= 0 {
				sl.count, sl.err = sl.count+b[j].count, sl.err+b[j].err
			} else {
				sl.count, sl.err = sl.count+minB, sl.err+minB
			}
			all = append(all, sl)
		}
		for _, sl := range b {
			if refIndex(a, sl.prefix) < 0 {
				sl.count, sl.err = sl.count+minA, sl.err+minA
				all = append(all, sl)
			}
		}
		slices.SortFunc(all, func(x, y refSlot) int {
			if refLess(x, y) {
				return -1
			}
			return 1
		})
		r.levels[li] = all[max(0, len(all)-r.cap):]
	}
}

func (r *refSketch) reset() {
	r.total = 0
	r.levels = [len(Levels)][]refSlot{}
}

// level is Sketch.Level over the reference's slots.
func (r *refSketch) level(li int) []Entry {
	out := make([]Entry, 0, len(r.levels[li]))
	for _, sl := range r.levels[li] {
		out = append(out, Entry{Prefix: ipaddr.Addr(sl.prefix), Bits: Levels[li], Count: sl.count, Err: sl.err})
	}
	slices.SortFunc(out, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Prefix, b.Prefix))
	})
	return out
}

// matchReference fails unless s holds exactly the reference's slots at
// every level, and its total.
func matchReference(t *testing.T, s *Sketch, r *refSketch, when string) {
	t.Helper()
	if s.Total() != r.total {
		t.Fatalf("%s: Total=%d, reference %d", when, s.Total(), r.total)
	}
	for li, bits := range Levels {
		if got, want := s.Level(bits), r.level(li); !slices.Equal(got, want) {
			t.Fatalf("%s: /%d slots differ\n got %v\nwant %v", when, bits, got, want)
		}
	}
}

// refPair is a sketch and its reference driven through the same operations.
type refPair struct {
	s *Sketch
	r *refSketch
}

func newRefPair(capacity int, seed uint64) refPair {
	return refPair{New(capacity, seed), &refSketch{cap: max(1, capacity), seed: seed}}
}

func (p refPair) add(a ipaddr.Addr, n uint64) {
	p.s.Add(a, n)
	p.r.add(a, n)
}

// fold folds run into the sketch at once and feeds the reference the same
// addresses one Add at a time.
func (p refPair) fold(run []ipaddr.Addr) {
	p.s.Fold(run)
	for _, a := range run {
		p.r.add(a, 1)
	}
}

// TestAddMatchesReference drives a sketch and the reference through random
// Add/Fold/Merge/Reset sequences over an address pool a few times the
// capacity (so hits, fills and evictions all occur, at every level, inside
// a fold too) and compares every slot after every operation.
func TestAddMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 8, 32} {
		for seed := uint64(1); seed <= 4; seed++ {
			st := rng.New(seed*977 + uint64(capacity))
			pool := make([]ipaddr.Addr, 4*capacity+2)
			for i := range pool {
				pool[i] = ipaddr.Addr(st.Uint64())
				if i > 0 && st.Bool(0.4) { // share a /24, /16 or /8 with a neighbour
					keep := uint(8 * (1 + st.Intn(3)))
					pool[i] = pool[i-1]&^(1<<keep-1) | pool[i]&(1<<keep-1)
				}
			}
			draw := func() (ipaddr.Addr, uint64) {
				n := uint64(1)
				if st.Bool(0.2) {
					n = 1 + uint64(st.Intn(1000))
				}
				return pool[st.Intn(len(pool))], n
			}
			p := newRefPair(capacity, seed)
			for op := 0; op < 1500; op++ {
				switch k := st.Intn(100); {
				case k < 88:
					p.add(draw())
				case k < 92:
					run := make([]ipaddr.Addr, 1+st.Intn(3*capacity))
					for i := range run {
						run[i] = pool[st.Intn(len(pool))]
					}
					p.fold(run)
				case k < 98:
					o := newRefPair(capacity, seed)
					for i := st.Intn(6 * capacity); i > 0; i-- {
						o.add(draw())
					}
					p.s.Merge(o.s)
					p.r.merge(o.r)
					matchReference(t, o.s, o.r, "merge argument")
				default:
					p.s.Reset()
					p.r.reset()
				}
				matchReference(t, p.s, p.r, "after op")
			}
		}
	}
}
