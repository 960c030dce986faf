package hll

import "slices"

// BottomK is a KMV (k minimum values) distinct sample: it retains the k
// items whose 64-bit hashes are smallest, which — under a uniform hash —
// is a uniform random sample of the *distinct* items seen, however
// skewed the raw stream is. The streaming pipeline uses it to estimate
// static name fractions, entropies, and AS/country dispersion from a
// bounded per-originator sample. The retained hashes are kept ascending
// in one slice, their values beside them in another, and both grow on
// demand: a sample costs what it holds, not k.
//
// The sample is a pure function of the distinct (hash, value) set fed
// in: insertion order never changes the retained set, so merged or
// replayed streams produce byte-identical samples.
type BottomK[V any] struct {
	k      int
	hashes []uint64 // ascending
	vals   []V      // vals[i] came with hashes[i]
}

// NewBottomK returns a bottom-k sample retaining the k smallest-hash
// distinct items (k < 1 is clamped to 1).
func NewBottomK[V any](k int) *BottomK[V] {
	if k < 1 {
		k = 1
	}
	return &BottomK[V]{k: k}
}

// Len returns the current number of sampled items.
func (b *BottomK[V]) Len() int { return len(b.hashes) }

// Admits reports whether Add(h, v) would change the sample: h is not
// retained already and lies below the k-th smallest hash (or the sample
// has room). Callers whose value is expensive to derive ask first.
func (b *BottomK[V]) Admits(h uint64) bool {
	i, dup := slices.BinarySearch(b.hashes, h)
	return !dup && i < b.k
}

// Add offers one (hash, value) observation and reports whether the sample
// changed. Items hash their identity exactly once (the sensor uses
// Hash64); a duplicate of a retained hash is a no-op that keeps the first
// value, so hot items occupy at most one slot, and a hash at or above the
// k-th smallest of a full sample is refused.
func (b *BottomK[V]) Add(h uint64, v V) bool {
	i, dup := slices.BinarySearch(b.hashes, h)
	if dup || i == b.k {
		return false
	}
	if len(b.hashes) < b.k {
		var zero V
		b.hashes = append(b.hashes, 0)
		b.vals = append(b.vals, zero)
	}
	// Shift the tail up one slot; on a full sample that drops the largest.
	copy(b.hashes[i+1:], b.hashes[i:])
	copy(b.vals[i+1:], b.vals[i:])
	b.hashes[i], b.vals[i] = h, v
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

// Values returns the sampled values in ascending hash order — a
// canonical, deterministic iteration order for downstream feature
// computation and snapshots. The slice is a view of the sample, not a
// copy: it is valid until the next Add, Merge or Reset, and callers must
// not write to it.
func (b *BottomK[V]) Values() []V { return b.vals }

// Reset clears the sample for reuse, keeping capacity.
func (b *BottomK[V]) Reset() {
	b.hashes = b.hashes[:0]
	b.vals = b.vals[:0]
}
