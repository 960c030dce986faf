package hll

import (
	"cmp"
	"slices"
)

// BottomK is a KMV (k minimum values) distinct sample: it retains the k
// items whose 64-bit hashes are smallest, which — under a uniform hash —
// is a uniform random sample of the *distinct* items seen, however
// skewed the raw stream is. The streaming engine counts an originator's
// queriers with it (Estimate) and computes static name fractions,
// entropies, and AS/country dispersion from the sample. The retained
// pairs are kept ascending by value — querier address order, for the
// stream's samples, the order the vector computation reads — hashes in
// one slice and values beside them in another, and both grow on demand: a
// sample costs what it holds, not k. The largest retained hash is tracked
// for the admission test and the estimate.
//
// A value names its item: an item is always offered with the same value,
// and distinct items have distinct values. The sample is then a pure
// function of the distinct (hash, value) set fed in: insertion order
// never changes the retained set, so a stream replayed in any order
// produces a byte-identical sample.
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

// Estimate returns the number of distinct items offered: exactly Len()
// while the sample holds fewer than k, and after that the KMV estimate
// (k − 1)/u, u the largest retained hash as a fraction of 2^64 (Beyer et
// al., SIGMOD 2007), with a relative standard error near 1/√(k − 2). It
// never reads below k, the count the full sample proves.
func (b *BottomK[V]) Estimate() int {
	if len(b.hashes) < b.k {
		return len(b.hashes)
	}
	return max(b.k, int(float64(b.k-1)*0x1p64/(float64(b.top)+1)+0.5))
}

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

// Values returns the sampled values in ascending order — a canonical,
// deterministic iteration order for downstream feature computation and
// snapshots. The slice is a view of the sample, not a copy: it is valid
// until the next Add, and callers must not write to it.
func (b *BottomK[V]) Values() []V { return b.vals }
