package world

import (
	"testing"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/qname"
	"dnsbackscatter/internal/rng"
)

func newTestPool(seed uint64) *querierPool {
	g := geo.NewRegistry(seed)
	return newQuerierPool(g, rng.NewSource(seed), 4096, 1.4, nil)
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
		if r < 0 || r >= p.ranks {
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
			if q.Resolver.MaxPTRTTL > 0 {
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

// TestCollapseKeepsNames: collapsing a pool keeps every name answer and the
// materialized count, and an address never materialized still has no name.
func TestCollapseKeepsNames(t *testing.T) {
	p := newTestPool(42)
	mix := classMixes[activity.Scan]
	st := rng.New(3)
	for i := 0; i < 5000; i++ {
		p.forTarget(ipaddr.MustParse("1.2.3.4"), &mix, ipaddr.Addr(st.Uint64()))
	}
	want := make(map[ipaddr.Addr]querierName)
	for _, q := range p.byKey {
		name, unreach := p.nameOf(q.Addr)
		want[q.Addr] = querierName{name, unreach}
	}
	size := p.size()
	if size != len(p.byKey) {
		t.Fatalf("size %d, %d slots materialized", size, len(p.byKey))
	}

	p.collapse()
	if p.byKey != nil || p.caches[0] != nil || p.zipf != nil || p.names != nil {
		t.Fatal("collapse kept the simulator's part of the pool")
	}
	if got := p.size(); got != size {
		t.Errorf("size %d after collapse, %d before", got, size)
	}
	for a, q := range want {
		if name, unreach := p.nameOf(a); name != q.name || unreach != q.unreach {
			t.Errorf("%v: (%q, %v) after collapse, (%q, %v) before", a, name, unreach, q.name, q.unreach)
		}
	}
	unknown := ipaddr.MustParse("203.0.113.1")
	if _, taken := want[unknown]; taken {
		t.Fatal("test address was materialized")
	}
	if name, unreach := p.nameOf(unknown); name != "" || unreach {
		t.Errorf("unmaterialized address answers (%q, %v)", name, unreach)
	}
}
