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
// iteration, so a sketch is a function of the sequence of operations on
// it: the same sequence gives identical sketches, and snapshots are
// byte-stable at any worker count. While no level has evicted, counts are
// exact and only the multiset of addresses matters; once one has, an
// arbitrary reordering can change which near-minimum slot an eviction
// hits. Merge is commutative (a into b and b into a hold the same slots),
// and a many-way merge is order-free while the union fits the capacity;
// past it the engine's fixed shard order is what keeps the bytes stable.
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

// slot is one tracked prefix in a level summary. A slot keeps its index
// for life: a newcomer that evicts a prefix takes over its slot in place.
type slot struct {
	prefix uint32
	hpos   int32 // index of the slot's heap entry, once the heap exists
	count  uint64
	err    uint64
	tie    uint64 // seeded hash of the prefix, the deterministic tiebreak
}

// entry is one slot's place in the eviction heap. It carries the whole
// ordering key, so a sift reads the heap array alone.
type entry struct {
	count  uint64
	tie    uint64
	prefix uint32
	slot   int32
}

// less is the eviction order: smallest count first, seeded hash then
// prefix breaking ties so the victim never depends on arrival order.
func (a entry) less(b entry) bool {
	if a.count != b.count {
		return a.count < b.count
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return a.prefix < b.prefix
}

// summary is a space-saving counter set. The victim of an eviction is the
// unique minimum of a total order, so the structure that finds it is free:
// slots sit wherever they were first appended, pos is written only when a
// prefix enters or leaves, and the min-heap over the slots is built when
// the summary first has to evict — a level that never fills pays a lookup
// and an increment per update and nothing else. Merge and Reset drop the
// heap (heap[:0]); while it exists it has one entry per slot.
type summary struct {
	cap   int
	slots []slot
	pos   map[uint32]int32 // prefix → index in slots
	heap  []entry
}

// siftDown restores heap order below i after heap[i]'s key rose. Counts
// only grow and a newcomer enters at the root, so nothing ever sifts up.
func (su *summary) siftDown(i int) {
	h := su.heap
	e := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(e) {
			break
		}
		h[i] = h[c]
		su.slots[h[i].slot].hpos = int32(i)
		i = c
	}
	h[i] = e
	su.slots[e.slot].hpos = int32(i)
}

// heapify builds the eviction heap over the slots, O(cap).
func (su *summary) heapify() {
	su.heap = slices.Grow(su.heap[:0], len(su.slots))
	for i := range su.slots {
		sl := &su.slots[i]
		sl.hpos = int32(i)
		su.heap = append(su.heap, entry{count: sl.count, tie: sl.tie, prefix: sl.prefix, slot: int32(i)})
	}
	for i := len(su.heap)/2 - 1; i >= 0; i-- {
		su.siftDown(i)
	}
}

// add offers n observations of prefix, whose tiebreak is hashed from seed
// and level only if it has to be inserted.
func (su *summary) add(prefix uint32, n, seed uint64, li int) {
	if i, ok := su.pos[prefix]; ok {
		sl := &su.slots[i]
		sl.count += n
		if len(su.heap) > 0 {
			su.heap[sl.hpos].count = sl.count
			su.siftDown(int(sl.hpos))
		}
		return
	}
	tie := tieOf(seed, li, prefix)
	if len(su.slots) < su.cap {
		su.pos[prefix] = int32(len(su.slots))
		su.slots = append(su.slots, slot{prefix: prefix, count: n, tie: tie})
		return
	}
	// Evict the deterministic minimum: the newcomer takes its slot,
	// inherits its count as over-estimate and records it as the error bound.
	if len(su.heap) == 0 {
		su.heapify()
	}
	v := su.heap[0]
	delete(su.pos, v.prefix)
	su.pos[prefix] = v.slot
	su.slots[v.slot] = slot{prefix: prefix, count: v.count + n, err: v.count, tie: tie}
	su.heap[0] = entry{count: v.count + n, tie: tie, prefix: prefix, slot: v.slot}
	su.siftDown(0)
}

// min returns the smallest tracked count, or 0 while the summary has
// free slots (an absent prefix then provably has count 0).
func (su *summary) min() uint64 {
	if len(su.slots) < su.cap {
		return 0
	}
	m := su.slots[0].count
	for _, sl := range su.slots[1:] {
		m = min(m, sl.count)
	}
	return m
}

// merge folds b into su by the rule Sketch.Merge documents. It needs no
// scratch index: b's prefixes are distinct, so each is looked up once in
// su's own pos, and eviction order matters only if the union outgrows the
// capacity.
func (su *summary) merge(b *summary) {
	minA, minB := su.min(), b.min()
	su.heap = su.heap[:0]
	for i := range su.slots {
		su.slots[i].count += minB
		su.slots[i].err += minB
	}
	held := len(su.slots)
	for _, sl := range b.slots {
		if i, ok := su.pos[sl.prefix]; ok {
			// b does hold it: its own count and error replace the minimum
			// charged above (sl.count ≥ minB, and the error was just raised
			// by minB, so neither difference wraps).
			a := &su.slots[i]
			a.count += sl.count - minB
			a.err = a.err - minB + sl.err
			continue
		}
		su.slots = append(su.slots, slot{prefix: sl.prefix, count: sl.count + minA, err: sl.err + minA, tie: sl.tie})
	}
	if len(su.slots) <= su.cap {
		for i := held; i < len(su.slots); i++ {
			su.pos[su.slots[i].prefix] = int32(i)
		}
		return
	}
	// Keep the largest cap slots: evict the union's minimum until it fits.
	// The eviction order is total over distinct prefixes, so the survivors
	// are deterministic. They then close ranks, which moves them off the
	// indices the heap and pos know.
	su.heapify()
	for len(su.heap) > su.cap {
		su.slots[su.heap[0].slot].hpos = -1
		last := len(su.heap) - 1
		su.heap[0] = su.heap[last]
		su.heap = su.heap[:last]
		su.siftDown(0)
	}
	su.heap = su.heap[:0]
	su.slots = slices.DeleteFunc(su.slots, func(sl slot) bool { return sl.hpos < 0 })
	clear(su.pos)
	for i, sl := range su.slots {
		su.pos[sl.prefix] = int32(i)
	}
}

// Sketch tracks heavy hitters at every level of Levels. The zero value
// is not usable; call New.
type Sketch struct {
	seed   uint64
	total  uint64
	levels [len(Levels)]summary
}

// New returns a sketch with the given per-level slot capacity (clamped to
// [1, 2^30], so that the two summaries a merge joins index with an int32)
// and tiebreak seed. Two sketches must share a seed to merge. A level's
// memory grows with the prefixes it holds, up to the capacity.
func New(capacity int, seed uint64) *Sketch {
	capacity = min(max(capacity, 1), 1<<30)
	s := &Sketch{seed: seed}
	for i := range s.levels {
		s.levels[i] = summary{cap: capacity, pos: make(map[uint32]int32)}
	}
	return s
}

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

// Add observes address a with weight n at every level; n = 0 observes
// nothing and changes nothing. Unlike RHHH's randomized single-level
// update, all levels update on every call, which keeps the sketch
// deterministic. A caller holding many unit-weight addresses folds them
// with Fold instead, as the stream engine does with its kept records.
func (s *Sketch) Add(a ipaddr.Addr, n uint64) {
	if n == 0 {
		return
	}
	s.total += n
	for li := range s.levels {
		s.levels[li].add(prefixAt(a, li), n, s.seed, li)
	}
}

// Fold observes each address of run with weight 1, leaving the sketch
// exactly as Add(a, 1) for each a in run order would: levels share
// nothing, so each receives the same update sequence. It walks the run
// once per level, so one summary's slots, heap and index stay hot for
// the whole run instead of four summaries taking turns per address. The
// stream engine buffers its kept records and folds them in runs.
func (s *Sketch) Fold(run []ipaddr.Addr) {
	s.total += uint64(len(run))
	for li := range s.levels {
		su, mask := &s.levels[li], prefixAt(^ipaddr.Addr(0), li)
		for _, a := range run {
			su.add(uint32(a)&mask, 1, s.seed, li)
		}
	}
}

// tieOf computes the seeded eviction tiebreak for a prefix at a level.
func tieOf(seed uint64, li int, prefix uint32) uint64 {
	return hll.Hash64(seed ^ uint64(Levels[li])<<32 ^ uint64(prefix))
}

// Merge folds other into s using merged space-saving semantics (Cafaro
// et al.): counts and errors sum for shared prefixes; a prefix absent
// from one input inherits that input's minimum count as extra count and
// error (its true mass there is provably no larger). The merged summary
// keeps the top-capacity slots, so the over-estimate invariant and the
// Total/capacity presence guarantee carry over to the union stream.
// Panics if the seeds differ — tiebreaks would be incoherent. other is
// only read, and must not be s itself.
func (s *Sketch) Merge(other *Sketch) {
	if other == nil {
		return
	}
	if s.seed != other.seed {
		panic("hhh: merging sketches with different seeds")
	}
	s.total += other.total
	for li := range s.levels {
		s.levels[li].merge(&other.levels[li])
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
// in Level order. Byte-identical across runs and worker counts for the
// same sequence of operations; the package comment says what reordering
// preserves.
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
		su := &s.levels[i]
		su.slots, su.heap = su.slots[:0], su.heap[:0]
		clear(su.pos)
	}
}
