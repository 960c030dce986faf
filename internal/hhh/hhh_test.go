package hhh

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"dnsbackscatter/internal/hll"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/rng"
)

// skewedStream draws n addresses from a heavy-tailed distribution: a few
// hot /16 blocks carry most of the mass, the rest is uniform noise —
// the originator shape the sketch exists to summarize.
func skewedStream(seed uint64, n int) []ipaddr.Addr {
	st := rng.New(seed)
	hot := make([]ipaddr.Addr, 8)
	for i := range hot {
		hot[i] = ipaddr.Addr(st.Uint64())
	}
	out := make([]ipaddr.Addr, n)
	for i := range out {
		switch {
		case st.Bool(0.5): // half the mass on 8 exact hot addresses
			out[i] = hot[st.Intn(len(hot))]
		case st.Bool(0.5): // a quarter inside the hot /16s
			out[i] = hot[st.Intn(len(hot))]&0xffff0000 | ipaddr.Addr(st.Uint64()&0xffff)
		default:
			out[i] = ipaddr.Addr(st.Uint64())
		}
	}
	return out
}

// exactCounts is the oracle: true per-prefix mass at one level.
func exactCounts(items []ipaddr.Addr, li int) map[uint32]uint64 {
	m := make(map[uint32]uint64)
	for _, a := range items {
		m[prefixAt(a, li)]++
	}
	return m
}

// TestOverEstimateInvariant checks the space-saving contract against the
// exact oracle at every level: true count ∈ [Count−Err, Count], and any
// prefix with true mass > Total/capacity holds a slot.
func TestOverEstimateInvariant(t *testing.T) {
	for _, cap := range []int{8, 64, 512} {
		for seed := uint64(1); seed <= 3; seed++ {
			items := skewedStream(seed, 20000)
			s := New(cap, seed)
			for _, a := range items {
				s.Add(a, 1)
			}
			if s.Total() != uint64(len(items)) {
				t.Fatalf("Total=%d, want %d", s.Total(), len(items))
			}
			for li, bits := range Levels {
				oracle := exactCounts(items, li)
				tracked := make(map[uint32]Entry)
				for _, e := range s.Level(bits) {
					tracked[uint32(e.Prefix)] = e
					truth := oracle[uint32(e.Prefix)]
					if truth > e.Count {
						t.Errorf("cap=%d seed=%d /%d %v: count %d under-estimates true %d",
							cap, seed, bits, e.Prefix, e.Count, truth)
					}
					if e.Count-e.Err > truth {
						t.Errorf("cap=%d seed=%d /%d %v: lower bound %d exceeds true %d",
							cap, seed, bits, e.Prefix, e.Count-e.Err, truth)
					}
				}
				guarantee := s.Total() / uint64(cap)
				for p, truth := range oracle {
					if truth > guarantee {
						if _, ok := tracked[p]; !ok {
							t.Errorf("cap=%d seed=%d /%d %v: true mass %d > %d yet untracked",
								cap, seed, bits, ipaddr.Addr(p), truth, guarantee)
						}
					}
				}
			}
		}
	}
}

// TestHeavySuperset pins that Heavy returns every prefix whose true mass
// clears phi*Total (plus bounded false positives, which it may).
func TestHeavySuperset(t *testing.T) {
	items := skewedStream(7, 30000)
	s := New(256, 7)
	for _, a := range items {
		s.Add(a, 1)
	}
	const phi = 0.05
	oracle := exactCounts(items, 2) // /16
	heavy := make(map[uint32]struct{})
	for _, e := range s.Heavy(16, phi) {
		heavy[uint32(e.Prefix)] = struct{}{}
	}
	thresh := uint64(phi * float64(len(items)))
	for p, truth := range oracle {
		if truth >= thresh {
			if _, ok := heavy[p]; !ok {
				t.Errorf("/16 %v with true mass %d ≥ %d missing from Heavy", ipaddr.Addr(p), truth, thresh)
			}
		}
	}
	if len(s.Heavy(16, 2)) != 0 {
		t.Error("phi=2 must return no candidates")
	}
}

// TestOrderInvariance feeds one multiset in three different orders; the
// canonical text must be byte-identical — the determinism contract the
// sharded engine leans on.
func TestOrderInvariance(t *testing.T) {
	items := skewedStream(11, 8000)
	build := func(in []ipaddr.Addr) []byte {
		s := New(128, 11)
		for _, a := range in {
			s.Add(a, 1)
		}
		return s.AppendText(nil)
	}
	fwd := build(items)
	if len(fwd) == 0 || !strings.Contains(string(fwd), "/32 ") {
		t.Fatalf("canonical text looks wrong: %q", fwd[:min(len(fwd), 80)])
	}
	grouped := make([]ipaddr.Addr, 0, len(items))
	seen := make(map[ipaddr.Addr]int)
	for _, a := range items {
		seen[a]++
	}
	for _, a := range items { // group duplicates together, first-seen order
		for ; seen[a] > 0; seen[a]-- {
			grouped = append(grouped, a)
		}
	}
	if !bytes.Equal(fwd, build(grouped)) {
		t.Error("snapshot depends on duplicate grouping")
	}
	// NOTE: arbitrary reorderings can shift which near-minimum slot an
	// eviction hits mid-stream, so full permutation invariance is not
	// claimed — only invariance over the dedup-grouping above and over
	// merge order (TestMergeGuarantees), which is what sharding needs.
	//
	// While no level has evicted, counts are exact and any order will do.
	quiet := zipfStream(11, 100, 4000)
	reversed := slices.Clone(quiet)
	slices.Reverse(reversed)
	if !bytes.Equal(feed(New(128, 11), quiet, 1).AppendText(nil), feed(New(128, 11), reversed, 1).AppendText(nil)) {
		t.Error("snapshot depends on arrival order although no level filled")
	}
}

// TestMergeGuarantees splits a stream in two, merges the halves, and
// checks the union oracle still satisfies the over-estimate contract and
// that merge order does not change a byte.
func TestMergeGuarantees(t *testing.T) {
	items := skewedStream(13, 16000)
	mk := func(in []ipaddr.Addr) *Sketch {
		s := New(128, 13)
		for _, a := range in {
			s.Add(a, 1)
		}
		return s
	}
	ab := mk(items[:9000])
	ab.Merge(mk(items[9000:]))
	ba := mk(items[9000:])
	ba.Merge(mk(items[:9000]))
	ba.Merge(nil) // no-op
	if !bytes.Equal(ab.AppendText(nil), ba.AppendText(nil)) {
		t.Error("merge is not commutative byte-for-byte")
	}
	if ab.Total() != uint64(len(items)) {
		t.Fatalf("merged Total=%d, want %d", ab.Total(), len(items))
	}
	for li, bits := range Levels {
		oracle := exactCounts(items, li)
		for _, e := range ab.Level(bits) {
			truth := oracle[uint32(e.Prefix)]
			if truth > e.Count {
				t.Errorf("/%d %v: merged count %d under-estimates true %d", bits, e.Prefix, e.Count, truth)
			}
			if e.Count-e.Err > truth {
				t.Errorf("/%d %v: merged lower bound %d exceeds true %d", bits, e.Prefix, e.Count-e.Err, truth)
			}
		}
	}
}

// TestZeroWeightAdd pins that observing nothing changes nothing: no slot
// spent below capacity, no eviction at it (a slot must stand for observed
// mass, which Merge's bounds assume).
func TestZeroWeightAdd(t *testing.T) {
	s := New(2, 1)
	s.Add(ipaddr.MustParse("10.0.0.1"), 0)
	if s.Total() != 0 || len(s.Level(32)) != 0 {
		t.Fatalf("Add(a, 0) on an empty sketch left %v", s.Level(32))
	}
	s.Add(ipaddr.MustParse("10.0.0.1"), 5)
	s.Add(ipaddr.MustParse("172.16.0.1"), 7)
	before := s.AppendText(nil)
	s.Add(ipaddr.MustParse("192.168.0.1"), 0) // every level but /8 is full
	s.Add(ipaddr.MustParse("10.0.0.1"), 0)
	if after := s.AppendText(nil); !bytes.Equal(before, after) || s.Total() != 12 {
		t.Errorf("Add(a, 0) on a full sketch changed it:\n%s\nto\n%s", before, after)
	}
}

// TestMergeSeedMismatchPanics pins the incoherent-tiebreak guard.
func TestMergeSeedMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("merging different seeds must panic")
		}
	}()
	New(8, 1).Merge(New(8, 2))
}

// TestSmallAndReset covers capacity clamping, weighted adds, unknown
// levels, entry rendering, and Reset reuse.
func TestSmallAndReset(t *testing.T) {
	s := New(0, 5)
	if s.levels[0].cap != 1 {
		t.Fatalf("capacity=%d, want clamp to 1", s.levels[0].cap)
	}
	a := ipaddr.MustParse("10.1.2.3")
	s.Add(a, 41)
	s.Add(a, 1)
	es := s.Level(32)
	if len(es) != 1 || es[0].Count != 42 || es[0].Err != 0 {
		t.Fatalf("Level(32) = %v, want one exact count of 42", es)
	}
	if got := es[0].String(); !strings.Contains(got, "10.1.2.3/32 42") {
		t.Errorf("Entry.String() = %q", got)
	}
	if s.Level(9) != nil {
		t.Error("unknown level must return nil")
	}
	// Overflow the single slot: the newcomer inherits count+err.
	b := ipaddr.MustParse("172.16.0.1")
	s.Add(b, 1)
	es = s.Level(32)
	if len(es) != 1 || es[0].Count != 43 || es[0].Err != 42 {
		t.Fatalf("after eviction: %v, want count 43 err 42", es)
	}
	s.Reset()
	if s.Total() != 0 || len(s.Level(32)) != 0 {
		t.Error("Reset left state behind")
	}
	s.Add(a, 1)
	if s.Total() != 1 {
		t.Errorf("Total=%d after reuse, want 1", s.Total())
	}
}

// BenchmarkSketchAdd times one Add (four level updates) on the two regimes
// the engine's sketches live in: quiet, 50 prefixes drawn evenly, which
// never fill a level but whose counts keep overtaking one another — so
// anything kept in eviction order is reshuffled for nothing; and churn, a
// 43 k-address Zipf stream through 1,024 slots, the querier side, where
// three of the four levels evict continuously.
func BenchmarkSketchAdd(b *testing.B) {
	st := rng.New(1)
	quiet := make([]ipaddr.Addr, 1<<18)
	for i := range quiet {
		quiet[i] = ipaddr.Addr(hll.Hash64(uint64(st.Intn(50))))
	}
	for _, c := range []struct {
		name  string
		items []ipaddr.Addr
	}{{"quiet", quiet}, {"churn", zipfStream(1, 43000, 1<<18)}} {
		b.Run(c.name, func(b *testing.B) {
			s := feed(New(1024, 1), c.items, 1) // warm: every level as full as it gets
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Add(c.items[i&(len(c.items)-1)], 1)
			}
		})
	}
}

// BenchmarkSketchMerge times what one Snapshot does per address space:
// sixteen churned shard sketches merged into a fresh one.
func BenchmarkSketchMerge(b *testing.B) {
	var parts [16]*Sketch
	for i := range parts {
		parts[i] = feed(New(1024, 1), zipfStream(uint64(i)+1, 43000, 1<<16), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := New(1024, 1)
		for _, p := range parts {
			out.Merge(p)
		}
	}
}
