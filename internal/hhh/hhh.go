// Package hhh implements a deterministic hierarchical heavy-hitters
// sketch over IPv4 address space.
//
// The streaming engine must answer "which originator prefixes carry the
// query mass?" when the originator population exceeds what it can track
// individually — the aggregate view §IV of the paper reads off its
// sensors, and the structure RHHH-style detectors build per window. Each
// sketch keeps one space-saving summary (Metwally et al. 2005) per
// prefix level (/32, /24, /16, /8) with a fixed slot capacity, so memory
// stays constant however many distinct addresses flow past.
//
// Space-saving guarantees are one-sided: a slot's Count over-estimates
// the prefix's true mass by at most its Err (true ∈ [Count−Err, Count]),
// and any prefix whose true mass exceeds Total/capacity is guaranteed a
// slot. Eviction picks the minimum slot by (count, seeded splitmix64
// hash of the prefix, prefix) — a total order with no dependence on map
// iteration or arrival interleaving, so two sketches fed the same
// multiset of addresses are identical and snapshots are byte-stable at
// any worker count.
package hhh

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"dnsbackscatter/internal/hll"
	"dnsbackscatter/internal/ipaddr"
)

// Levels are the prefix lengths tracked, widest aggregation last.
var Levels = [4]uint8{32, 24, 16, 8}

// Entry is one heavy-hitter candidate at a prefix level.
type Entry struct {
	Prefix ipaddr.Addr // prefix base address (host bits zero)
	Bits   uint8
	Count  uint64 // over-estimate of the prefix's mass
	Err    uint64 // max over-estimation: true count ≥ Count−Err
}

// String renders the entry as "a.b.c.d/bits count±err".
func (e Entry) String() string {
	return fmt.Sprintf("%s/%d %d±%d", e.Prefix, e.Bits, e.Count, e.Err)
}

// slot is one tracked prefix in a level summary.
type slot struct {
	prefix uint32
	count  uint64
	err    uint64
	tie    uint64 // seeded hash of the prefix, the deterministic tiebreak
}

// summary is a space-saving counter set with a position-tracked min-heap,
// so eviction of the minimum slot is O(log capacity) per update.
type summary struct {
	cap   int
	slots []slot // min-heap ordered by less
	pos   map[uint32]int
}

// less orders the eviction heap: smallest count first, seeded hash then
// prefix breaking ties so the victim never depends on arrival order.
func (su *summary) less(a, b slot) bool {
	if a.count != b.count {
		return a.count < b.count
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return a.prefix < b.prefix
}

func (su *summary) swap(i, j int) {
	su.slots[i], su.slots[j] = su.slots[j], su.slots[i]
	su.pos[su.slots[i].prefix] = i
	su.pos[su.slots[j].prefix] = j
}

func (su *summary) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !su.less(su.slots[i], su.slots[p]) {
			return
		}
		su.swap(i, p)
		i = p
	}
}

func (su *summary) siftDown(i int) {
	n := len(su.slots)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && su.less(su.slots[l], su.slots[small]) {
			small = l
		}
		if r < n && su.less(su.slots[r], su.slots[small]) {
			small = r
		}
		if small == i {
			return
		}
		su.swap(i, small)
		i = small
	}
}

// add offers n observations of prefix with tiebreak hash tie.
func (su *summary) add(prefix uint32, tie, n uint64) {
	if i, ok := su.pos[prefix]; ok {
		su.slots[i].count += n
		su.siftDown(i)
		return
	}
	if len(su.slots) < su.cap {
		su.slots = append(su.slots, slot{prefix: prefix, count: n, tie: tie})
		su.pos[prefix] = len(su.slots) - 1
		su.siftUp(len(su.slots) - 1)
		return
	}
	// Evict the deterministic minimum: the newcomer inherits its count
	// as over-estimate and records it as the error bound.
	victim := su.slots[0]
	delete(su.pos, victim.prefix)
	su.slots[0] = slot{prefix: prefix, count: victim.count + n, err: victim.count, tie: tie}
	su.pos[prefix] = 0
	su.siftDown(0)
}

// min returns the smallest tracked count, or 0 while the summary has
// free slots (an absent prefix then provably has count 0).
func (su *summary) min() uint64 {
	if len(su.slots) < su.cap {
		return 0
	}
	return su.slots[0].count
}

// Sketch tracks heavy hitters at every level of Levels. The zero value
// is not usable; call New.
type Sketch struct {
	seed   uint64
	total  uint64
	levels [len(Levels)]summary
}

// New returns a sketch with the given per-level slot capacity
// (capacity < 1 is clamped to 1) and tiebreak seed. Two sketches must
// share a seed to merge.
func New(capacity int, seed uint64) *Sketch {
	if capacity < 1 {
		capacity = 1
	}
	s := &Sketch{seed: seed}
	for i := range s.levels {
		s.levels[i] = summary{cap: capacity, pos: make(map[uint32]int, capacity)}
	}
	return s
}

// Capacity returns the per-level slot capacity.
func (s *Sketch) Capacity() int { return s.levels[0].cap }

// Total returns the total mass observed (sum of Add weights).
func (s *Sketch) Total() uint64 { return s.total }

// prefixAt masks a down to its level-index prefix.
func prefixAt(a ipaddr.Addr, li int) uint32 {
	bits := Levels[li]
	if bits == 32 {
		return uint32(a)
	}
	return uint32(a) &^ (1<<(32-bits) - 1)
}

// Add observes address a with weight n at every level. Unlike RHHH's
// randomized single-level update, all levels update on every call:
// deterministic, and cheap at four levels.
func (s *Sketch) Add(a ipaddr.Addr, n uint64) {
	s.total += n
	for li := range s.levels {
		p := prefixAt(a, li)
		s.levels[li].add(p, s.tie(li, p), n)
	}
}

// tie computes the seeded eviction tiebreak for a prefix at a level.
func (s *Sketch) tie(li int, prefix uint32) uint64 {
	return hll.Hash64(s.seed ^ uint64(Levels[li])<<32 ^ uint64(prefix))
}

// Merge folds other into s using merged space-saving semantics (Cafaro
// et al.): counts and errors sum for shared prefixes; a prefix absent
// from one input inherits that input's minimum count as extra count and
// error (its true mass there is provably no larger). The merged summary
// keeps the top-capacity slots, so the over-estimate invariant and the
// Total/capacity presence guarantee carry over to the union stream.
// Panics if the seeds differ — tiebreaks would be incoherent.
func (s *Sketch) Merge(other *Sketch) {
	if other == nil {
		return
	}
	if s.seed != other.seed {
		panic("hhh: merging sketches with different seeds")
	}
	s.total += other.total
	for li := range s.levels {
		a, b := &s.levels[li], &other.levels[li]
		minA, minB := a.min(), b.min()
		inB := make(map[uint32]slot, len(b.slots))
		for _, sl := range b.slots {
			inB[sl.prefix] = sl
		}
		merged := make(map[uint32]slot, len(a.slots)+len(b.slots))
		for _, sl := range a.slots {
			if bs, ok := inB[sl.prefix]; ok {
				sl.count += bs.count
				sl.err += bs.err
			} else {
				sl.count += minB
				sl.err += minB
			}
			merged[sl.prefix] = sl
		}
		for _, sl := range b.slots {
			if _, ok := merged[sl.prefix]; ok {
				continue
			}
			sl.count += minA
			sl.err += minA
			merged[sl.prefix] = sl
		}
		all := make([]slot, 0, len(merged))
		for _, sl := range merged {
			all = append(all, sl)
		}
		// Keep the largest cap slots. The eviction order is total over
		// distinct prefixes, so the survivors are deterministic, and a
		// slice ascending in it is already the min-heap.
		slices.SortFunc(all, func(x, y slot) int {
			switch {
			case a.less(x, y):
				return -1
			case a.less(y, x):
				return 1
			}
			return 0
		})
		all = all[max(0, len(all)-a.cap):]
		a.slots = append(a.slots[:0], all...)
		clear(a.pos)
		for i, sl := range a.slots {
			a.pos[sl.prefix] = i
		}
	}
}

// Level returns every tracked prefix at the given level, ordered by
// count descending then prefix ascending — the canonical report order.
// Unknown levels return nil.
func (s *Sketch) Level(bits uint8) []Entry {
	for li, b := range Levels {
		if b != bits {
			continue
		}
		su := &s.levels[li]
		out := make([]Entry, 0, len(su.slots))
		for _, sl := range su.slots {
			out = append(out, Entry{Prefix: ipaddr.Addr(sl.prefix), Bits: bits, Count: sl.count, Err: sl.err})
		}
		slices.SortFunc(out, func(a, b Entry) int {
			return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Prefix, b.Prefix))
		})
		return out
	}
	return nil
}

// Heavy returns the level's candidates whose count reaches phi*Total.
// Over-estimation makes this a superset guarantee: every prefix whose
// true mass is ≥ phi*Total appears (if phi ≥ 1/capacity), possibly
// alongside false positives within Err of the threshold.
func (s *Sketch) Heavy(bits uint8, phi float64) []Entry {
	thresh := uint64(phi * float64(s.total))
	all := s.Level(bits)
	out := all[:0]
	for _, e := range all {
		if e.Count >= thresh {
			out = append(out, e)
		}
	}
	return out
}

// AppendText appends the sketch's canonical rendering to dst: one
// "prefix/bits count err" line per slot, levels widest-last, each level
// in Level order. Byte-identical across runs, worker counts, and merge
// orders for the same observed multiset.
func (s *Sketch) AppendText(dst []byte) []byte {
	for _, bits := range Levels {
		for _, e := range s.Level(bits) {
			dst = append(dst, e.Prefix.String()...)
			dst = append(dst, '/')
			dst = strconv.AppendUint(dst, uint64(e.Bits), 10)
			dst = append(dst, ' ')
			dst = strconv.AppendUint(dst, e.Count, 10)
			dst = append(dst, ' ')
			dst = strconv.AppendUint(dst, e.Err, 10)
			dst = append(dst, '\n')
		}
	}
	return dst
}

// Reset clears all levels and the total for reuse.
func (s *Sketch) Reset() {
	s.total = 0
	for i := range s.levels {
		s.levels[i].slots = s.levels[i].slots[:0]
		clear(s.levels[i].pos)
	}
}
