package stream

import (
	"math"

	"dnsbackscatter/internal/simtime"
)

// Per-shard dedup table sizes. The bound is what every shard held when
// the window was a direct-mapped array: 2^20 slots engine-wide, 16 MiB.
const (
	dedupMinSlots = 32
	dedupMaxSlots = 1 << 20 / engineShards
)

// dedupLateness is how far behind its shard's latest record a straggler
// may arrive and still find its pair. It is fixed rather than the epoch:
// what dedup keeps must not depend on how often the engine re-scores.
const dedupLateness = simtime.Hour

// dedupSlot is one pair's last sighting; key 0 marks an empty slot.
type dedupSlot struct {
	key  uint64
	last simtime.Time
}

// dedupTable is one shard's sliding dedup window: (pair hash, last
// sighting) slots, probed linearly from the hash's low bits and emptied by
// backward shift, so it needs no tombstones. Below its bound it remembers
// every pair that can still suppress a record, where a direct-mapped array
// forgets a pair whenever another hashes to its slot. Every decision is a
// function of the shard's record sequence alone, whatever the batching.
//
//   - A pair expires once last + window + dedupLateness <= high, the
//     latest sighting time the table has seen.
//   - Expired pairs are swept only when budget new pairs have been placed
//     since the last sweep; the table is then resized to hold its pairs at
//     most 3/8 full, so a record costs amortized O(1).
//   - At max slots, a sweep that leaves no room for one more pair under
//     the 3/4 load limit sweeps again with no lateness allowance
//     (last + window <= high expires). Until the next sweep, max/4 new
//     pairs later, a new pair then overwrites the pair in its home slot,
//     or goes unremembered if that slot is empty.
type dedupTable struct {
	slots  []dedupSlot // power-of-two length, at most max
	used   int
	max    int
	budget int // new pairs to place before the next sweep
	high   simtime.Time
	swept  uint64 // slots read by sweeps and resizes, for the amortized bound's test
}

func newDedupTable() dedupTable {
	return dedupTable{
		slots:  make([]dedupSlot, dedupMinSlots),
		max:    dedupMaxSlots,
		budget: dedupMinSlots * 3 / 4,
		high:   math.MinInt64,
	}
}

// seen reports whether the pair key was sighted within window before t
// and, when it was not, records t as its last sighting. A sighting before
// the last one is never suppressed; it moves the last sighting back.
//
//bslint:hotpath
func (d *dedupTable) seen(key uint64, t simtime.Time, window simtime.Duration) bool {
	if key == 0 {
		key = 1 // 0 marks an empty slot
	}
	d.high = max(d.high, t)
	i, s := d.find(key)
	if s != nil {
		if t >= s.last && t.Sub(s.last) < window {
			return true
		}
		s.last = t
		return false
	}
	if d.budget <= 0 {
		d.sweep(window)
		i, _ = d.find(key)
	}
	d.budget--
	if (d.used+1)*4 <= len(d.slots)*3 {
		d.slots[i] = dedupSlot{key: key, last: t}
		d.used++
	} else if h := &d.slots[d.home(key)]; h.key != 0 {
		*h = dedupSlot{key: key, last: t}
	}
	return false
}

func (d *dedupTable) home(key uint64) int {
	return int(key & uint64(len(d.slots)-1))
}

// find returns the slot holding key, or the empty slot its probe reached
// and nil.
func (d *dedupTable) find(key uint64) (int, *dedupSlot) {
	mask := len(d.slots) - 1
	for i := d.home(key); ; i = (i + 1) & mask {
		s := &d.slots[i]
		if s.key == key {
			return i, s
		}
		if s.key == 0 {
			return i, nil
		}
	}
}

// sweep expires what the latest sighting has passed and resizes the table
// to hold the rest at most 3/8 full, within [dedupMinSlots, max].
func (d *dedupTable) sweep(window simtime.Duration) {
	d.expire(d.high.Add(-window - dedupLateness))
	n := d.fit()
	if n == d.max && (d.used+1)*4 > n*3 {
		d.expire(d.high.Add(-window)) // what this frees is room to fill, not to shrink
	}
	if n != len(d.slots) {
		d.resize(n)
	}
	d.budget = max(n*3/4-d.used, n/4)
}

// fit is the smallest table size that holds the pairs at most 3/8 full.
func (d *dedupTable) fit() int {
	n := dedupMinSlots
	for n < d.max && d.used*8 > n*3 {
		n *= 2
	}
	return n
}

// expire removes, in place, every pair last sighted at or before cutoff.
// A removal shifts later pairs of the run back over slot i, so i is read
// again; a run wrapping past the end shifts back only slots already read.
func (d *dedupTable) expire(cutoff simtime.Time) {
	d.swept += uint64(len(d.slots))
	for i := 0; i < len(d.slots); {
		if s := &d.slots[i]; s.key != 0 && s.last <= cutoff {
			d.remove(i)
		} else {
			i++
		}
	}
}

// remove empties slot i and shifts the rest of its probe run back over the
// hole.
func (d *dedupTable) remove(i int) {
	d.used--
	mask := len(d.slots) - 1
	for j := (i + 1) & mask; d.slots[j].key != 0; j = (j + 1) & mask {
		// The pair at j may move to i only if its home is not inside
		// (i, j]: its probe distance must reach back at least to i.
		if (j-d.home(d.slots[j].key))&mask >= (j-i)&mask {
			d.slots[i] = d.slots[j]
			i = j
		}
	}
	d.slots[i] = dedupSlot{}
}

// resize moves the pairs into a new table of n slots.
func (d *dedupTable) resize(n int) {
	old := d.slots
	d.swept += uint64(len(old))
	d.slots = make([]dedupSlot, n)
	for _, s := range old {
		if s.key != 0 {
			i, _ := d.find(s.key)
			d.slots[i] = s
		}
	}
}
