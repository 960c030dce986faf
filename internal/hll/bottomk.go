package hll

import (
	"cmp"
	"slices"
)

// BottomK is a KMV (k minimum values) distinct sample: it retains the k
// items whose 64-bit hashes are smallest, which — under a uniform hash —
// is a uniform random sample of the *distinct* items seen, however
// skewed the raw stream is. The streaming pipeline uses it to estimate
// static name fractions, entropies, and AS/country dispersion from a
// bounded per-originator sample. The retained pairs are kept ascending by
// value — querier address order, for the stream's samples, the order the
// vector computation reads — hashes in one slice and values beside them
// in another, and both grow on demand: a sample costs what it holds, not
// k. The largest retained hash is tracked for the admission test.
//
// A value names its item: an item is always offered with the same value,
// and distinct items have distinct values. The sample is then a pure
// function of the distinct (hash, value) set fed in: insertion order
// never changes the retained set, so merged or replayed streams produce
// byte-identical samples.
type BottomK[V cmp.Ordered] struct {
	k      int
	top    uint64   // the largest retained hash; 0 when empty
	hashes []uint64 // hashes[i] came with vals[i]
	vals   []V      // ascending
}

// NewBottomK returns a bottom-k sample retaining the k smallest-hash
// distinct items (k < 1 is clamped to 1).
func NewBottomK[V cmp.Ordered](k int) *BottomK[V] {
	if k < 1 {
		k = 1
	}
	return &BottomK[V]{k: k}
}

// Len returns the current number of sampled items.
func (b *BottomK[V]) Len() int { return len(b.hashes) }

// Admits reports whether Add(h, v) would change the sample. A caller whose
// value is expensive to derive asks first, with a key in its place: any
// value that sorts at or below v and above every smaller item's (for a
// value packing an identity above other bits, the identity alone).
func (b *BottomK[V]) Admits(h uint64, key V) bool {
	if len(b.hashes) == b.k && h >= b.top {
		return false
	}
	i, _ := slices.BinarySearch(b.vals, key)
	return i == len(b.vals) || b.hashes[i] != h
}

// Add offers one (hash, value) observation and reports whether the sample
// changed. Items hash their identity exactly once (the sensor uses
// Hash64); a retained item is not added twice, and a full sample refuses
// a hash at or above its largest or else drops the pair holding that one.
func (b *BottomK[V]) Add(h uint64, v V) bool {
	full := len(b.hashes) == b.k
	if full && h >= b.top {
		return false
	}
	i, dup := slices.BinarySearch(b.vals, v)
	if dup {
		return false
	}
	if !full {
		b.hashes = slices.Insert(b.hashes, i, h)
		b.vals = slices.Insert(b.vals, i, v)
		b.top = max(b.top, h)
		return true
	}
	// Close the gap the largest hash leaves, opening one at v's place.
	if j := slices.Index(b.hashes, b.top); j < i {
		i--
		copy(b.hashes[j:i], b.hashes[j+1:i+1])
		copy(b.vals[j:i], b.vals[j+1:i+1])
	} else {
		copy(b.hashes[i+1:j+1], b.hashes[i:j])
		copy(b.vals[i+1:j+1], b.vals[i:j])
	}
	b.hashes[i], b.vals[i] = h, v
	b.top = slices.Max(b.hashes)
	return true
}

// Merge folds other's sample into b: the result is exactly the bottom-k
// of the union of both distinct sets, so sharded samples recombine into
// the sample a single stream would have produced.
func (b *BottomK[V]) Merge(other *BottomK[V]) {
	if other == nil {
		return
	}
	for i, h := range other.hashes {
		b.Add(h, other.vals[i])
	}
}

// Values returns the sampled values in ascending order — a canonical,
// deterministic iteration order for downstream feature computation and
// snapshots. The slice is a view of the sample, not a copy: it is valid
// until the next Add, Merge or Reset, and callers must not write to it.
func (b *BottomK[V]) Values() []V { return b.vals }

// Reset clears the sample for reuse, keeping capacity.
func (b *BottomK[V]) Reset() {
	b.hashes = b.hashes[:0]
	b.vals = b.vals[:0]
	b.top = 0
}
