package hll

import (
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

// TestHLLMergeIsUnion pins register-exact merge semantics: merging
// sketches of two streams yields exactly the sketch of the concatenated
// stream, whatever the split point or order.
func TestHLLMergeIsUnion(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		items := distinctStream(seed, 4000)
		for _, cut := range []int{0, 1, 1337, 3999, 4000} {
			a, b := MustNew(11), MustNew(11)
			for _, v := range items[:cut] {
				a.Add(Hash64(v))
			}
			for _, v := range items[cut:] {
				b.Add(Hash64(v))
			}
			union := MustNew(11)
			for _, v := range items {
				union.Add(Hash64(v))
			}
			if err := a.Merge(b); err != nil {
				t.Fatalf("merge: %v", err)
			}
			if !a.Equal(union) {
				t.Fatalf("seed=%d cut=%d: merged registers differ from union sketch", seed, cut)
			}
			if got, want := a.AppendBinary(nil), union.AppendBinary(nil); !slices.Equal(got, want) {
				t.Fatalf("seed=%d cut=%d: canonical serialization differs", seed, cut)
			}
		}
	}
}

// TestHLLMergeErrors pins the precision-mismatch error and Clone
// independence.
func TestHLLMergeErrors(t *testing.T) {
	a, b := MustNew(10), MustNew(11)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging mismatched precisions must fail")
	}
	a.Add(Hash64(7))
	c := a.Clone()
	if !c.Equal(a) {
		t.Fatal("clone differs from original")
	}
	c.Add(Hash64(9))
	if c.Equal(a) && c.Estimate() != a.Estimate() {
		t.Fatal("clone shares register storage with original")
	}
	a.Reset()
	if a.Estimate() != 0 {
		t.Fatalf("estimate %d after Reset, want 0", a.Estimate())
	}
	if a.Equal(nil) {
		t.Fatal("Equal(nil) must be false")
	}
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
// with heavy duplication in the stream.
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
				if got := b.hashes; !slices.Equal(got, want) {
					t.Fatalf("k=%d n=%d seed=%d: sample is not the exact bottom-k (%d vs %d hashes)",
						k, n, seed, len(got), len(want))
				}
				if b.Len() != len(want) || b.k != k {
					t.Fatalf("k=%d n=%d: Len=%d K=%d want %d/%d", k, n, b.Len(), b.k, len(want), k)
				}
				// Values must come back in ascending hash order.
				vals := b.Values()
				for i, h := range b.hashes {
					if Hash64(vals[i]) != h {
						t.Fatalf("Values order diverges from Hashes order at %d", i)
					}
				}
			}
		}
	}
}

// TestBottomKMergeIsUnion pins that merging sharded samples equals the
// sample of the concatenated stream, for every split point.
func TestBottomKMergeIsUnion(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		items := distinctStream(seed+99, 3000)
		for _, cut := range []int{0, 7, 1500, 3000} {
			a, b := NewBottomK[uint64](128), NewBottomK[uint64](128)
			for _, v := range items[:cut] {
				a.Add(Hash64(v), v)
			}
			for _, v := range items[cut:] {
				b.Add(Hash64(v), v)
			}
			a.Merge(b)
			a.Merge(nil) // nil merge is a no-op
			if got, want := a.hashes, oracleBottomK(items, 128); !slices.Equal(got, want) {
				t.Fatalf("seed=%d cut=%d: merged sample is not the union bottom-k", seed, cut)
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

// TestBottomKClampAndReset covers the k<1 clamp and Reset reuse.
func TestBottomKClampAndReset(t *testing.T) {
	b := NewBottomK[uint64](0)
	if b.k != 1 {
		t.Fatalf("K=%d, want clamp to 1", b.k)
	}
	b.Add(Hash64(1), 1)
	b.Add(Hash64(2), 2)
	if b.Len() != 1 {
		t.Fatalf("Len=%d, want 1", b.Len())
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len=%d after Reset, want 0", b.Len())
	}
	b.Add(Hash64(3), 3)
	if b.Len() != 1 {
		t.Fatalf("Len=%d after reuse, want 1", b.Len())
	}
}

// TestBottomKAddContracts pins what a caller with an expensive value
// relies on: Add reports a change exactly when the retained hashes
// changed, Admits predicts that report without a value, a refused or
// duplicate hash leaves the sample alone, and a duplicate keeps the value
// that came first.
func TestBottomKAddContracts(t *testing.T) {
	for _, k := range []int{1, 8, 64} {
		b := NewBottomK[int](k)
		st := rng.New(uint64(k))
		for i := 0; i < 2000; i++ {
			h := Hash64(uint64(st.Intn(300))) // ~300 distinct items, so most offers repeat
			before := slices.Clone(b.hashes)
			kept, held := 0, slices.Contains(before, h)
			if held {
				kept = b.Values()[slices.Index(before, h)]
			}
			admits := b.Admits(h)
			if !slices.Equal(b.hashes, before) {
				t.Fatalf("k=%d: Admits changed the sample", k)
			}
			changed := b.Add(h, i+1)
			if changed != admits {
				t.Fatalf("k=%d offer %d: Admits said %v, Add reported %v", k, i, admits, changed)
			}
			if changed == slices.Equal(b.hashes, before) {
				t.Fatalf("k=%d offer %d: Add reported %v, hashes changed: %v", k, i, changed, !changed)
			}
			if len(before) == k && h >= before[k-1] && changed {
				t.Fatalf("k=%d offer %d: a hash at or above the k-th smallest was admitted", k, i)
			}
			if held && b.Values()[slices.Index(b.hashes, h)] != kept {
				t.Fatalf("k=%d offer %d: a duplicate replaced the first value", k, i)
			}
			if len(b.Values()) != len(b.hashes) || !slices.IsSorted(b.hashes) {
				t.Fatalf("k=%d offer %d: views out of step or out of order", k, i)
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

// TestSketchAddReportsRegisterChange: Add is true exactly when a register
// rose, and while it is false the estimate cannot move.
func TestSketchAddReportsRegisterChange(t *testing.T) {
	s := MustNew(6) // 64 registers, so both outcomes are frequent
	st := rng.New(11)
	rose := 0
	for i := 0; i < 5000; i++ {
		before, est := s.Clone(), s.Estimate()
		changed := s.Add(Hash64(uint64(st.Intn(2000))))
		if changed == s.Equal(before) {
			t.Fatalf("add %d: reported %v, registers changed: %v", i, changed, !changed)
		}
		if !changed && s.Estimate() != est {
			t.Fatalf("add %d: estimate moved %d -> %d with no register change", i, est, s.Estimate())
		}
		if changed {
			rose++
		}
	}
	if rose == 0 || rose == 5000 {
		t.Fatalf("%d of 5000 adds raised a register: one outcome went untested", rose)
	}
}
