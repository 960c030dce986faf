package cache

import (
	"math/bits"

	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
)

// ownerBits is where a shared table packs the owner id into a key: the
// tier scheme (see tierNames) uses bits 0-41, owners sit above.
const ownerBits = 42

// Table is a flat open-addressed TTL store shared by many owners — the
// simulated resolvers of one world shard, each bounded separately — in
// place of one Go map per owner. Slots are probed linearly from a
// multiplicative hash of (owner, key) and deleted by backward shift, so the
// layout, and with it the eviction victim, is a pure function of the
// operation sequence. With a pointer-free V the whole table is invisible
// to the garbage collector. Not safe for concurrent use.
// A table with a horizon sweeps out what expired by it before it grows:
// no later lookup could read that, so the sweep changes no answer or
// counter, only what the per-owner bound counts and eviction sees.
type Table[V any] struct {
	slots []slot[V] // power-of-two length, at most three-quarters full
	hash  uint      // home slot = key * phi >> hash
	used  int
	owned []int32 // live entries per owner, for the bound; grown by put
	max   int     // per-owner bound; <= 0 is unbounded
	// horizon is a time no later operation precedes; 0 is none.
	horizon simtime.Time
	// shift is ownerBits, or 64 for a one-owner table whose keys use the
	// whole uint64 (Go defines x<<64 and x>>64 as 0).
	shift uint

	m *cacheMetrics

	// A world's shard tables are allocated back to back and written from
	// different cores; the pad keeps one table's counters off the cache
	// line of the next one's.
	_ [64]byte
}

// slot is one entry. exp packs (expiry << 1 | negative); an entry's expiry
// is always positive, so exp == 0 marks the slot empty. val leads so a
// zero-size V adds no padding.
type slot[V any] struct {
	val V
	key uint64
	exp uint64
}

func (s *slot[V]) expires() simtime.Time { return simtime.Time(s.exp >> 1) }
func (s *slot[V]) negative() bool        { return s.exp&1 != 0 }

const minSlots = 8

// NewTable returns an empty shared table whose owners each hold at most max
// entries (max <= 0 is unbounded). Keys must stay below 1<<42. Owners are
// small non-negative ids the caller assigns, ideally densely; the table
// learns an owner at its first Put, so assigning one writes nothing here.
func NewTable[V any](max int) *Table[V] {
	return newTable[V](max, ownerBits)
}

func newTable[V any](max int, shift uint) *Table[V] {
	t := &Table[V]{max: max, shift: shift}
	t.alloc(minSlots)
	return t
}

func (t *Table[V]) alloc(n int) {
	t.slots = make([]slot[V], n)
	t.hash = uint(64 - bits.TrailingZeros(uint(n)))
	t.used = 0
}

func (t *Table[V]) home(k uint64) int {
	return int(k * 0x9e3779b97f4a7c15 >> t.hash)
}

// find returns the slot holding k, or nil, for an operation at now.
func (t *Table[V]) find(k uint64, now simtime.Time) (int, *slot[V]) {
	if now < t.horizon {
		t.beforeHorizon(now)
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.exp == 0 {
			return 0, nil
		}
		if s.key == k {
			return i, s
		}
	}
}

// SetHorizon promises that no later Get or put comes before h; one that
// does panics, and so does a horizon that moves back.
func (t *Table[V]) SetHorizon(h simtime.Time) {
	if h < t.horizon {
		panic("cache: horizon moved back from " + t.horizon.String() + " to " + h.String())
	}
	t.horizon = h
}

func (t *Table[V]) beforeHorizon(now simtime.Time) {
	panic("cache: operation at " + now.String() + " before the horizon " + t.horizon.String())
}

// live is the lookup behind Get: the slot of owner's live entry for key at
// time now, or nil. Expired entries are removed and count as misses.
func (t *Table[V]) live(owner int, key uint64, now simtime.Time) *slot[V] {
	i, s := t.find(uint64(owner)<<t.shift|key, now)
	if s == nil {
		t.m.miss(key)
		return nil
	}
	if !now.Before(s.expires()) {
		t.remove(i)
		t.m.miss(key)
		return nil
	}
	t.m.hit(key, s.negative())
	return s
}

// Get returns owner's live entry for key at time now.
func (t *Table[V]) Get(owner int, key uint64, now simtime.Time) (v V, negative, ok bool) {
	s := t.live(owner, key, now)
	if s == nil {
		return v, false, false
	}
	return s.val, s.negative(), true
}

// Put stores a positive entry with the given TTL. A TTL <= 0 stores
// nothing and clears any previous entry (the zero-TTL PTR records of the
// paper's controlled experiment disable caching entirely).
func (t *Table[V]) Put(owner int, key uint64, v V, ttl simtime.Duration, now simtime.Time) {
	t.put(owner, key, v, false, ttl, now)
}

// PutNegative stores an NXDomain result for the negative-cache TTL.
func (t *Table[V]) PutNegative(owner int, key uint64, ttl simtime.Duration, now simtime.Time) {
	var zero V
	t.put(owner, key, zero, true, ttl, now)
}

func (t *Table[V]) put(owner int, key uint64, v V, negative bool, ttl simtime.Duration, now simtime.Time) {
	k := uint64(owner)<<t.shift | key
	i, s := t.find(k, now)
	expires := now.Add(ttl)
	if ttl <= 0 || expires <= 0 {
		if s != nil {
			t.remove(i)
		}
		return
	}
	exp := uint64(expires) << 1
	if negative {
		exp |= 1
	}
	if s != nil {
		s.val, s.exp = v, exp
		return
	}
	if owner >= len(t.owned) {
		t.owned = append(t.owned, make([]int32, owner+1-len(t.owned))...)
	}
	if t.max > 0 && int(t.owned[owner]) >= t.max {
		t.evict(owner, k, now)
	}
	if (t.used+1)*4 > len(t.slots)*3 {
		t.sweep()
		if (t.used+1)*2 > len(t.slots) {
			t.grow()
		}
	}
	t.place(slot[V]{val: v, key: k, exp: exp})
	t.owned[owner]++
}

// place stores a slot whose key is known to be absent.
func (t *Table[V]) place(s slot[V]) {
	mask := len(t.slots) - 1
	i := t.home(s.key)
	for t.slots[i].exp != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
	t.used++
}

func (t *Table[V]) grow() {
	old := t.slots
	t.alloc(2 * len(old))
	for i := range old {
		if old[i].exp != 0 {
			t.place(old[i])
		}
	}
}

// sweep removes, in place, every entry that expires by the horizon. A
// removal shifts later entries of the run back over slot i, so i is read
// again; a run wrapping past the end shifts back only slots already read.
func (t *Table[V]) sweep() {
	for i := 0; i < len(t.slots); {
		if s := &t.slots[i]; s.exp != 0 && !t.horizon.Before(s.expires()) {
			t.remove(i)
		} else {
			i++
		}
	}
}

// remove empties slot i and shifts the rest of its probe run back over the
// hole, so lookups never need tombstones.
func (t *Table[V]) remove(i int) {
	t.owned[t.slots[i].key>>t.shift]--
	t.used--
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].exp != 0; j = (j + 1) & mask {
		// The entry at j may move to i only if its home is not inside
		// (i, j]: its probe distance must reach back at least to i.
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot[V]{}
}

// evict makes room for owner's new key k: scanning forward from k's home
// slot it removes the first expired of the owner's next eight entries,
// else the first of them. The victim depends only on the table's layout —
// never on iteration order of a runtime map — so a replay evicts the same
// entries and answers the same lookups.
func (t *Table[V]) evict(owner int, k uint64, now simtime.Time) {
	mask := len(t.slots) - 1
	victim, seen := -1, 0
	for n, i := 0, t.home(k); n < len(t.slots) && seen < 8; n, i = n+1, (i+1)&mask {
		s := &t.slots[i]
		if s.exp == 0 || int(s.key>>t.shift) != owner {
			continue
		}
		if !now.Before(s.expires()) {
			victim = i
			break
		}
		if victim < 0 {
			victim = i
		}
		seen++
	}
	if victim >= 0 {
		t.remove(victim)
		t.m.evict()
	}
}

// Key tiers: a resolver's cache key is a tag in bits 40+ (the index into
// tierNames) over the zone's identity — built only by the three functions
// below, for simulated resolvers and the live recursor alike — which is
// what makes per-zone cache metrics possible without string keys.
var tierNames = [4]string{"other", "ptr", "z8", "z16"}

// PTRKey is the key of o's PTR record.
func PTRKey(o ipaddr.Addr) uint64 { return 1<<40 | uint64(o) }

// Zone8Key is the key of the delegation of o's /8 reverse zone.
func Zone8Key(o ipaddr.Addr) uint64 { return 2<<40 | uint64(o.Slash8()) }

// Zone16Key is the key of the delegation of o's /16 reverse zone.
func Zone16Key(o ipaddr.Addr) uint64 { return 3<<40 | uint64(o.Slash16()) }

// tierOf maps a cache key to its metric tier index.
func tierOf(key uint64) int {
	if t := key >> 40; t >= 1 && t <= 3 {
		return int(t)
	}
	return 0
}

// cacheMetrics holds the pre-resolved counters of one instrumented table.
// All methods are no-ops on a nil receiver, so the uninstrumented hot
// path pays one pointer test.
type cacheMetrics struct {
	hits      [4]*obs.Counter
	negHits   [4]*obs.Counter
	misses    [4]*obs.Counter
	evictions *obs.Counter
}

// SetMetrics instruments the table: hits, negative hits, and misses are
// counted per key tier under cache_*_total{cache=name,
// tier=ptr|z8|z16|other}; evictions under cache_evictions_total{cache=name}.
// Tables sharing a name (every shard of a world, say) share counters — the
// registry dedups by identity. A nil registry uninstruments.
func (t *Table[V]) SetMetrics(reg *obs.Registry, name string) {
	if reg == nil {
		t.m = nil
		return
	}
	m := &cacheMetrics{evictions: reg.Counter("cache_evictions_total", obs.L("cache", name))}
	for ti, tier := range tierNames {
		ls := []obs.Label{obs.L("cache", name), obs.L("tier", tier)}
		m.hits[ti] = reg.Counter("cache_hits_total", ls...)
		m.negHits[ti] = reg.Counter("cache_negative_hits_total", ls...)
		m.misses[ti] = reg.Counter("cache_misses_total", ls...)
	}
	t.m = m
}

func (m *cacheMetrics) hit(key uint64, negative bool) {
	if m == nil {
		return
	}
	t := tierOf(key)
	m.hits[t].Inc()
	if negative {
		m.negHits[t].Inc()
	}
}

func (m *cacheMetrics) miss(key uint64) {
	if m == nil {
		return
	}
	m.misses[tierOf(key)].Inc()
}

func (m *cacheMetrics) evict() {
	if m == nil {
		return
	}
	m.evictions.Inc()
}
