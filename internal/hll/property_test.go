package hll

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"testing"

	"dnsbackscatter/internal/rng"
)

// distinctStream draws n distinct uint64 items from a seeded stream.
func distinctStream(seed uint64, n int) []uint64 {
	st := rng.New(seed)
	seen := make(map[uint64]struct{}, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		v := st.Uint64()
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// TestHLLEstimateWithinBound checks the 1.04/sqrt(m) relative-error
// bound at 3 sigma against an exact oracle, across cardinalities,
// precisions, and seeds — the property the analyzability threshold
// leans on.
func TestHLLEstimateWithinBound(t *testing.T) {
	cases := []struct {
		p uint8
		n int
	}{
		{10, 100}, {10, 1000}, {10, 20000},
		{11, 50}, {11, 500}, {11, 5000}, {11, 50000},
		{14, 1000}, {14, 100000},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 5; seed++ {
			s := MustNew(tc.p)
			for _, v := range distinctStream(seed<<8|uint64(tc.p), tc.n) {
				h := Hash64(v)
				s.Add(h)
				s.Add(h) // duplicates must not move the estimate
			}
			est := float64(s.Estimate())
			m := math.Exp2(float64(tc.p))
			sigma := 1.04 / math.Sqrt(m)
			rel := math.Abs(est-float64(tc.n)) / float64(tc.n)
			// Small cardinalities use linear counting, which is far
			// tighter than the asymptotic bound; 3 sigma covers both
			// regimes with a tiny absolute floor for integer rounding.
			bound := 3*sigma + 2/float64(tc.n)
			if rel > bound {
				t.Errorf("p=%d n=%d seed=%d: estimate %.0f off by %.3f > %.3f",
					tc.p, tc.n, seed, est, rel, bound)
			}
		}
	}
}

// sortedHashes returns b's retained hashes ascending: the sample keeps
// them in value order.
func sortedHashes[V cmp.Ordered](b *BottomK[V]) []uint64 {
	hs := slices.Clone(b.hashes)
	slices.Sort(hs)
	return hs
}

// oracleBottomK computes the exact bottom-k of the distinct hash set.
func oracleBottomK(items []uint64, k int) []uint64 {
	hs := make([]uint64, 0, len(items))
	seen := make(map[uint64]struct{}, len(items))
	for _, v := range items {
		h := Hash64(v)
		if _, dup := seen[h]; dup {
			continue
		}
		seen[h] = struct{}{}
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	if len(hs) > k {
		hs = hs[:k]
	}
	return hs
}

// TestBottomKIsExactBottomK proves the sample is exactly the k distinct
// items with the smallest hashes — the property that makes it a uniform
// sample of the distinct set — across sizes, capacities, and seeds,
// with heavy duplication in the stream, and that Estimate counts the
// distinct items exactly while they are fewer than k.
func TestBottomKIsExactBottomK(t *testing.T) {
	for _, k := range []int{1, 16, 256} {
		for _, n := range []int{1, 10, 1000, 5000} {
			for seed := uint64(1); seed <= 3; seed++ {
				items := distinctStream(seed*31+uint64(n), n)
				b := NewBottomK[uint64](k)
				for i, v := range items {
					b.Add(Hash64(v), v)
					// Replay every third item: duplicates must not
					// displace or double-count sample slots.
					if i%3 == 0 {
						b.Add(Hash64(v), v)
					}
				}
				want := oracleBottomK(items, k)
				if got := sortedHashes(b); !slices.Equal(got, want) {
					t.Fatalf("k=%d n=%d seed=%d: sample is not the exact bottom-k (%d vs %d hashes)",
						k, n, seed, len(got), len(want))
				}
				if b.Len() != len(want) || b.k != k || b.top != want[len(want)-1] {
					t.Fatalf("k=%d n=%d: Len=%d K=%d top=%x want %d/%d/%x", k, n, b.Len(), b.k, b.top, len(want), k, want[len(want)-1])
				}
				// Below k the count is exact, replays and all.
				if got := b.Estimate(); n < k && got != n || n >= k && got < k {
					t.Fatalf("k=%d n=%d: Estimate %d", k, n, got)
				}
				// Values come back strictly ascending, each beside its hash.
				vals := b.Values()
				for i, h := range b.hashes {
					if Hash64(vals[i]) != h || i > 0 && vals[i-1] >= vals[i] {
						t.Fatalf("k=%d n=%d: value %d out of order or apart from its hash", k, n, i)
					}
				}
			}
		}
	}
}

// TestBottomKOrderInvariance feeds the same distinct set in three
// orders; the retained sample must be identical.
func TestBottomKOrderInvariance(t *testing.T) {
	items := distinctStream(5, 2000)
	build := func(in []uint64) []uint64 {
		b := NewBottomK[uint64](64)
		for _, v := range in {
			b.Add(Hash64(v), v)
		}
		return b.hashes
	}
	fwd := build(items)
	rev := slices.Clone(items)
	slices.Reverse(rev)
	shuf := slices.Clone(items)
	rng.New(77).Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
	if !slices.Equal(fwd, build(rev)) || !slices.Equal(fwd, build(shuf)) {
		t.Fatal("sample depends on insertion order")
	}
}

// TestBottomKClamp covers the k<1 clamp.
func TestBottomKClamp(t *testing.T) {
	b := NewBottomK[uint64](0)
	if b.k != 1 {
		t.Fatalf("K=%d, want clamp to 1", b.k)
	}
	b.Add(Hash64(1), 1)
	b.Add(Hash64(2), 2)
	if b.Len() != 1 || b.Estimate() < 1 {
		t.Fatalf("Len=%d Estimate=%d, want 1 and at least 1", b.Len(), b.Estimate())
	}
}

// TestBottomKEstimateError holds the KMV estimate above k to its standard
// error 1/√(k − 2): over 50 seeds at each of three cardinalities, the root
// mean square relative error lies within a quarter of it, the mean within
// 3 % of the truth, and no single estimate beyond five standard errors.
// It logs the HyperLogLog's error at p = 11 (1.04/√2048) over the same
// items beside it.
func TestBottomKEstimateError(t *testing.T) {
	const k, seeds = 256, 50
	sigma := 1 / math.Sqrt(k-2)
	var kmvSq, kmvSum, hllSq float64
	samples := 0
	for _, n := range []int{1000, 5000, 20000} {
		for seed := uint64(1); seed <= seeds; seed++ {
			b, s := NewBottomK[uint64](k), MustNew(11)
			for i := range uint64(n) {
				v := seed<<32 | i
				b.Add(Hash64(v), v)
				s.Add(Hash64(v))
			}
			rel := float64(b.Estimate())/float64(n) - 1
			if math.Abs(rel) > 5*sigma {
				t.Errorf("n=%d seed=%d: estimate %d, relative error %.3f", n, seed, b.Estimate(), rel)
			}
			hrel := float64(s.Estimate())/float64(n) - 1
			kmvSq, kmvSum, hllSq = kmvSq+rel*rel, kmvSum+rel, hllSq+hrel*hrel
			samples++
		}
	}
	rms, mean := math.Sqrt(kmvSq/float64(samples)), kmvSum/float64(samples)
	t.Logf("k=%d: KMV rms relative error %.4f (1/√(k−2) = %.4f), mean %.4f; HLL p=11 rms %.4f (1.04/√2048 = %.4f)",
		k, rms, sigma, mean, math.Sqrt(hllSq/float64(samples)), 1.04/math.Sqrt(2048))
	if rms < 0.75*sigma || rms > 1.25*sigma {
		t.Errorf("KMV rms relative error %.4f outside [%.4f, %.4f]", rms, 0.75*sigma, 1.25*sigma)
	}
	if math.Abs(mean) > 0.03 {
		t.Errorf("KMV mean relative error %.4f: biased", mean)
	}
}

// TestBottomKAddContracts pins what a caller with an expensive value
// relies on: Add reports a change exactly when the retained hashes
// changed, Admits predicts that report from a key that sorts like the
// value (here the item shifted above an eight-bit tag, as the stream's
// samples pack an address above its category), a refused or duplicate
// item leaves the sample alone, an admission into a full sample drops the
// largest hash, and the values stay ascending with the largest hash
// tracked.
func TestBottomKAddContracts(t *testing.T) {
	for _, k := range []int{1, 8, 64} {
		b := NewBottomK[uint64](k)
		st := rng.New(uint64(k))
		for i := 0; i < 2000; i++ {
			item := uint64(st.Intn(300)) // ~300 distinct items, so most offers repeat
			h, v := Hash64(item), item<<8|item%7
			before := slices.Clone(b.hashes)
			admits := b.Admits(h, item<<8)
			if !slices.Equal(b.hashes, before) {
				t.Fatalf("k=%d: Admits changed the sample", k)
			}
			changed := b.Add(h, v)
			if changed != admits {
				t.Fatalf("k=%d offer %d: Admits said %v, Add reported %v", k, i, admits, changed)
			}
			if changed == slices.Equal(b.hashes, before) {
				t.Fatalf("k=%d offer %d: Add reported %v, hashes changed: %v", k, i, changed, !changed)
			}
			if changed && slices.Contains(before, h) {
				t.Fatalf("k=%d offer %d: a retained item was admitted again", k, i)
			}
			if len(before) == k && changed {
				if h >= slices.Max(before) {
					t.Fatalf("k=%d offer %d: a hash at or above the largest retained was admitted", k, i)
				}
				if slices.Contains(b.hashes, slices.Max(before)) {
					t.Fatalf("k=%d offer %d: an admission kept the largest hash", k, i)
				}
			}
			if len(b.Values()) != len(b.hashes) || !slices.IsSorted(b.Values()) || b.top != slices.Max(b.hashes) {
				t.Fatalf("k=%d offer %d: views out of step, out of order, or the top untracked", k, i)
			}
		}
		if b.Len() != k {
			t.Fatalf("k=%d: sample holds %d after 300 distinct items", k, b.Len())
		}
	}
}

// TestBottomKGrowsOnDemand pins the memory contract the streaming engine
// sizes itself by: an originator with three queriers pays for three.
func TestBottomKGrowsOnDemand(t *testing.T) {
	b := NewBottomK[uint64](256)
	for v := uint64(0); v < 3; v++ {
		b.Add(Hash64(v), v)
	}
	if c := cap(b.Values()) + cap(b.hashes); c > 16 {
		t.Fatalf("a 3-item sample of capacity 256 holds %d slots", c)
	}
}

// TestBottomKAddAllocs holds Add on a full sample to no allocation: every
// run offers a hash below all retained ones, which shifts both slices and
// drops the largest, and one above them, which is refused.
func TestBottomKAddAllocs(t *testing.T) {
	b := NewBottomK[uint64](64)
	for v := uint64(0); v < 64; v++ {
		b.Add(1<<40+v, v)
	}
	h := uint64(1 << 40)
	n := testing.AllocsPerRun(1000, func() {
		h--
		if !b.Add(h, h) || b.Add(1<<41, 0) {
			t.Fatal("a smallest hash was refused or a largest admitted")
		}
	})
	if n != 0 {
		t.Errorf("BottomK.Add on a full sample makes %.0f allocations, want 0", n)
	}
}
