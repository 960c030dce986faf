package world

import (
	"runtime"
	"testing"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/qname"
	"dnsbackscatter/internal/rng"
)

func newTestPool(seed uint64) *querierPool {
	g := geo.NewRegistry(seed)
	return newQuerierPool(g, rng.NewSource(seed), nil)
}

// TestPoolOrderIndependence: a querier's identity must be a pure function
// of its slot, regardless of the order slots are materialized in.
func TestPoolOrderIndependence(t *testing.T) {
	keys := []poolKey{
		{cat: qname.Mail, country: 3, rank: 0},
		{cat: qname.Home, country: 3, rank: 17},
		{cat: qname.NS, country: 8, rank: 2},
		{cat: qname.FW, country: 1, rank: 99},
	}
	a := newTestPool(42)
	b := newTestPool(42)
	var fromA []ipaddr.Addr
	for _, k := range keys {
		fromA = append(fromA, a.get(k).Addr)
	}
	for i := len(keys) - 1; i >= 0; i-- { // reverse order
		q := b.get(keys[i])
		if q.Addr != fromA[i] {
			t.Fatalf("slot %v: addr %v vs %v depending on order", keys[i], q.Addr, fromA[i])
		}
	}
}

func TestPoolSlotStability(t *testing.T) {
	p := newTestPool(42)
	k := poolKey{cat: qname.Mail, country: 3, rank: 5}
	q1 := p.get(k)
	q2 := p.get(k)
	if q1 != q2 {
		t.Error("same slot returned different queriers")
	}
}

func TestPoolAddressesUnique(t *testing.T) {
	p := newTestPool(42)
	seen := make(map[ipaddr.Addr]poolKey)
	for cat := qname.Category(0); cat < qname.NumCategories; cat++ {
		for rank := 0; rank < 40; rank++ {
			k := poolKey{cat: cat, country: int(rank % 10), rank: rank}
			q := p.get(k)
			if prev, dup := seen[q.Addr]; dup {
				t.Fatalf("address %v shared by %v and %v", q.Addr, prev, k)
			}
			seen[q.Addr] = k
		}
	}
}

func TestPoolNamesMatchCategory(t *testing.T) {
	p := newTestPool(42)
	for cat := qname.Category(0); cat < qname.NumCategories; cat++ {
		name, unreach := p.nameOf(p.get(poolKey{cat: cat, country: 2, rank: 1}).Addr)
		got := qname.Classify(name)
		want := cat
		if cat == qname.Unreach {
			want = qname.NXDomain // nameless; unreach is flagged separately
		}
		if got != want || unreach != (cat == qname.Unreach) {
			t.Errorf("cat %v: name %q (unreach %v) classifies as %v", cat, name, unreach, got)
		}
	}
}

func TestForTargetStability(t *testing.T) {
	p := newTestPool(42)
	mix := classMixes[activity.Scan]
	target := ipaddr.MustParse("100.50.3.4")
	orig := ipaddr.MustParse("1.2.3.4")
	q1 := p.forTarget(orig, &mix, target)
	q2 := p.forTarget(orig, &mix, target)
	if q1 != q2 {
		t.Error("re-touching a target reached a different querier")
	}
}

func TestForTargetSharing(t *testing.T) {
	// Different originators touching the same target with rank keyed by
	// target should often share queriers via the Zipf popularity draw:
	// verify at least that querier count grows sublinearly in touches.
	p := newTestPool(42)
	mix := classMixes[activity.Scan]
	st := rng.New(9)
	uniq := make(map[ipaddr.Addr]struct{})
	const touches = 5000
	for i := 0; i < touches; i++ {
		target := ipaddr.Addr(st.Uint64())
		q := p.forTarget(ipaddr.MustParse("1.2.3.4"), &mix, target)
		uniq[q.Addr] = struct{}{}
	}
	if len(uniq) >= touches*95/100 {
		t.Errorf("%d touches reached %d queriers: no sharing", touches, len(uniq))
	}
	if len(uniq) < touches/20 {
		t.Errorf("%d touches reached only %d queriers: oversharing", touches, len(uniq))
	}
}

func TestZipfRankDistribution(t *testing.T) {
	p := newTestPool(42)
	st := rng.New(11)
	counts := make(map[int]int)
	const draws = 200000
	for i := 0; i < draws; i++ {
		r := p.zipfRank(st.Uint64())
		if r < 0 || r >= querierRanks {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	// Rank 0 must dominate and the tail must exist.
	if counts[0] < draws/4 {
		t.Errorf("rank 0 drew %d of %d; want heavy head", counts[0], draws)
	}
	tail := 0
	for r, c := range counts {
		if r >= 100 {
			tail += c
		}
	}
	if tail == 0 {
		t.Error("no tail ranks drawn")
	}
}

func TestViolatorRatesByCategory(t *testing.T) {
	p := newTestPool(42)
	violFrac := func(cat qname.Category) float64 {
		n, v := 0, 0
		for rank := 0; rank < 400; rank++ {
			q := p.get(poolKey{cat: cat, country: rank % 8, rank: rank})
			n++
			if q.MaxPTRTTL > 0 {
				v++
			}
		}
		return float64(v) / float64(n)
	}
	ns := violFrac(qname.NS)
	fw := violFrac(qname.FW)
	if ns > 0.1 {
		t.Errorf("NS violator fraction %.2f, want ≈0.03", ns)
	}
	if fw < 0.4 {
		t.Errorf("FW violator fraction %.2f, want ≈0.55", fw)
	}
}

// refName is how the pool named a querier before it kept slots: the
// slot's stream, address draws that skip the addresses in taken (at most
// 32 of them), then the name. It returns the address and the name.
func refName(p *querierPool, k poolKey, taken map[ipaddr.Addr]bool) (ipaddr.Addr, string) {
	st := rng.New(mix64(p.seed, mix64(uint64(k.cat)<<32|uint64(k.rank), uint64(k.country)+0x1b3)))
	var addr ipaddr.Addr
	for i := 0; ; i++ {
		a, ok := p.geo.RandomAddrIn(geo.CountryCode(k.country), st)
		if !ok {
			a = ipaddr.Addr(st.Uint64())
		}
		if !taken[a] || i >= 32 {
			addr = a
			break
		}
	}
	return addr, qname.NewGenerator(st).Name(k.cat, addr, p.geo.CCTLD(addr))
}

// TestCollapseKeepsNames: every materialized querier's name, regenerated
// from its slot, is byte for byte the name the pool drew when it made the
// querier, before and after collapse; so is its category, and the
// materialized count survives. Beside thousands of ordinary slots, it
// covers a slot in a country without address space (the RandomAddrIn
// fallback) and one whose first two draws were taken (draw index 2). An
// address never materialized still has no name.
func TestCollapseKeepsNames(t *testing.T) {
	p := newTestPool(42)
	st := rng.New(3)
	taken := make(map[ipaddr.Addr]bool)
	want := make(map[ipaddr.Addr]string)
	get := func(k poolKey) *querier {
		n := p.size()
		addr, name := refName(p, k, taken)
		q := p.get(k)
		if p.size() > n {
			if q.Addr != addr {
				t.Fatalf("%+v: materialized at %v, drawn at %v", k, q.Addr, addr)
			}
			taken[addr] = true
			want[addr] = name
		}
		return q
	}
	for i := 0; i < 5000; i++ {
		get(poolKey{
			cat:     qname.Category(st.Intn(int(qname.NumCategories))),
			country: p.geo.CountryIndex(ipaddr.Addr(st.Uint64())),
			rank:    st.Intn(querierRanks),
		})
	}

	empty := -1
	for ci := range geo.Countries {
		if _, ok := p.geo.RandomAddrIn(geo.CountryCode(ci), rng.New(1)); !ok {
			empty = ci
			break
		}
	}
	if empty < 0 {
		t.Fatal("every country holds space: no slot exercises the fallback")
	}
	get(poolKey{cat: qname.Mail, country: empty, rank: 3})

	// Occupy the first two addresses a slot draws, as two other queriers
	// would, so that it accepts its third.
	busy := poolKey{cat: qname.Home, country: p.geo.CountryIndex(ipaddr.MustParse("10.0.0.1")), rank: 11}
	bst := p.stream(busy)
	for i := 0; i < 2; i++ {
		a := p.drawAddr(busy, bst)
		p.named[a] = packSlot(poolKey{cat: qname.NXDomain}, 0, qname.NXDomain)
		taken[a] = true
	}
	if q := get(busy); p.named[q.Addr].draw() != 2 {
		t.Fatalf("slot accepted draw %d, want 2", p.named[q.Addr].draw())
	}

	check := func(when string) {
		t.Helper()
		for a, name := range want {
			got, unreach := p.nameOf(a)
			if got != name {
				t.Errorf("%s: %v named %q, drawn as %q", when, a, got, name)
			}
			if cat := qname.ClassifyQuerier(got, unreach); cat != p.categoryOf(a) {
				t.Errorf("%s: %v (%q) has category %v, its name classifies as %v", when, a, got, p.categoryOf(a), cat)
			}
		}
	}
	size := p.size()
	if size != len(p.byKey) {
		t.Fatalf("size %d, %d slots materialized", size, len(p.byKey))
	}
	check("before collapse")
	p.collapse()
	if p.byKey != nil || p.caches[0] != nil || p.arena[0] != nil || p.zipf != nil {
		t.Fatal("collapse kept the simulator's part of the pool")
	}
	if got := p.size(); got != size {
		t.Errorf("size %d after collapse, %d before", got, size)
	}
	check("after collapse")
	unknown := ipaddr.MustParse("203.0.113.1")
	if taken[unknown] {
		t.Fatal("test address was materialized")
	}
	if name, unreach := p.nameOf(unknown); name != "" || unreach || p.categoryOf(unknown) != qname.NXDomain {
		t.Errorf("unmaterialized address answers (%q, %v, %v)", name, unreach, p.categoryOf(unknown))
	}
}

// TestSlotPacking: every field of a slot round-trips at the extremes of
// its range, and the ranges fit their bits.
func TestSlotPacking(t *testing.T) {
	if qname.NumCategories > 1<<4 || len(geo.Countries) > 1<<6 || querierRanks > 1<<12 || maxAddrDraws >= 1<<6 {
		t.Fatalf("a slot field outgrew its bits: %d categories, %d countries, %d ranks, %d draws",
			qname.NumCategories, len(geo.Countries), querierRanks, maxAddrDraws)
	}
	for _, k := range []poolKey{
		{},
		{cat: qname.NumCategories - 1, country: len(geo.Countries) - 1, rank: querierRanks - 1},
		{cat: qname.Unreach, country: 7, rank: 1234},
	} {
		for _, draw := range []int{0, 1, maxAddrDraws} {
			for _, cat := range []qname.Category{0, k.cat, qname.NumCategories - 1} {
				s := packSlot(k, draw, cat)
				if s.key() != k || s.draw() != draw || s.category() != cat {
					t.Errorf("packSlot(%+v, %d, %v) unpacks as (%+v, %d, %v)", k, draw, cat, s.key(), s.draw(), s.category())
				}
			}
		}
	}
}

// TestPoolCostPerQuerier: a materialized querier costs at most 140 B of
// live heap and 5 allocations, its name's and the maps' growth included,
// which holds only while queriers are values in the arena, and finding
// one already materialized allocates nothing.
func TestPoolCostPerQuerier(t *testing.T) {
	const n = 60000
	p := newTestPool(42)
	keys := make([]poolKey, n)
	for i := range keys {
		keys[i] = poolKey{
			cat:     qname.Category(i % int(qname.NumCategories)),
			country: i / int(qname.NumCategories) % len(geo.Countries),
			rank:    i / (int(qname.NumCategories) * len(geo.Countries)),
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, k := range keys {
		p.get(k)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if p.size() != n {
		t.Fatalf("%d queriers materialized, want %d", p.size(), n)
	}
	live := float64(after.HeapAlloc-before.HeapAlloc) / n
	mallocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.1f B live, %.2f allocations a querier", live, mallocs)
	if live > 140 || mallocs > 5 {
		t.Errorf("%.1f B live and %.2f allocations a querier, want at most 140 B and 5", live, mallocs)
	}
	if a := testing.AllocsPerRun(100, func() { p.get(keys[n/2]) }); a != 0 {
		t.Errorf("finding a materialized querier: %.1f allocations, want 0", a)
	}
	runtime.KeepAlive(p)
}
