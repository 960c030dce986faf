package features

import (
	"math"
	"testing"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/qname"
	"dnsbackscatter/internal/simtime"
)

// testCategories maps a querier's last octet to a name category so tests
// can steer static features precisely.
func testCategories(a ipaddr.Addr) qname.Category {
	_, _, _, o3 := a.Octets()
	switch o3 % 4 {
	case 0:
		return qname.Mail
	case 1:
		return qname.Home
	case 2:
		return qname.NXDomain
	default:
		return qname.NS
	}
}

func mkRecs(orig string, nQueriers, queriesEach int) []dnslog.Record {
	o := ipaddr.MustParse(orig)
	var recs []dnslog.Record
	t := simtime.Time(0)
	for q := 0; q < nQueriers; q++ {
		qa := ipaddr.FromOctets(10, byte(q/256), byte(q%256), byte(q%251))
		for k := 0; k < queriesEach; k++ {
			recs = append(recs, dnslog.Record{
				Time: t, Originator: o, Querier: qa, Authority: dnslog.MustAuthority("jp"),
			})
			t = t.Add(40) // outside the 30 s dedup window
		}
	}
	return recs
}

func newTestExtractor() *Extractor {
	return NewExtractor(geo.NewRegistry(42), testCategories)
}

func TestNamesShape(t *testing.T) {
	names := Names()
	if len(names) != NumFeatures {
		t.Fatalf("Names has %d entries, want %d", len(names), NumFeatures)
	}
	if names[int(qname.Mail)] != "mail" {
		t.Errorf("static name order wrong: %v", names[:NumStatic])
	}
	if names[NumStatic+DynGlobalEntropy] != "global-entropy" {
		t.Errorf("dynamic name order wrong")
	}
}

func TestAnalyzabilityThreshold(t *testing.T) {
	x := newTestExtractor()
	recs := mkRecs("1.2.3.4", 19, 1)
	if got := x.Extract(recs, 0, simtime.Day); len(got) != 0 {
		t.Errorf("19 queriers passed the 20-querier threshold")
	}
	recs = mkRecs("1.2.3.4", 20, 1)
	if got := x.Extract(recs, 0, simtime.Day); len(got) != 1 {
		t.Errorf("20 queriers rejected")
	}
}

func TestStaticFractionsSumToOne(t *testing.T) {
	x := newTestExtractor()
	vs := x.Extract(mkRecs("1.2.3.4", 40, 2), 0, simtime.Day)
	if len(vs) != 1 {
		t.Fatal("no vector")
	}
	sum := 0.0
	for i := 0; i < NumStatic; i++ {
		sum += vs[0].X[i]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("static fractions sum to %v", sum)
	}
	// The o3%4 split gives roughly a quarter per bucket.
	for _, c := range []qname.Category{qname.Mail, qname.Home, qname.NXDomain, qname.NS} {
		if f := vs[0].Static(c); f < 0.1 || f > 0.45 {
			t.Errorf("%v fraction = %v, want ≈0.25", c, f)
		}
	}
}

func TestQueriesPerQuerier(t *testing.T) {
	x := newTestExtractor()
	vs := x.Extract(mkRecs("1.2.3.4", 30, 3), 0, simtime.Day)
	if got := vs[0].Dynamic(DynQueriesPerQuerier); math.Abs(got-3) > 1e-9 {
		t.Errorf("queries/querier = %v, want 3", got)
	}
	if vs[0].Queries != 90 {
		t.Errorf("Queries = %d, want 90", vs[0].Queries)
	}
}

func TestDedupAffectsRates(t *testing.T) {
	o := ipaddr.MustParse("1.2.3.4")
	var recs []dnslog.Record
	for q := 0; q < 25; q++ {
		qa := ipaddr.FromOctets(10, 0, byte(q), 1)
		// Three queries within one 30 s window: only one survives.
		for k := 0; k < 3; k++ {
			recs = append(recs, dnslog.Record{Time: simtime.Time(k), Originator: o, Querier: qa})
		}
	}
	x := newTestExtractor()
	vs := x.Extract(recs, 0, simtime.Day)
	if got := vs[0].Dynamic(DynQueriesPerQuerier); math.Abs(got-1) > 1e-9 {
		t.Errorf("queries/querier = %v after dedup, want 1", got)
	}
}

func TestPersistence(t *testing.T) {
	o := ipaddr.MustParse("1.2.3.4")
	var recs []dnslog.Record
	// 25 queriers all inside one 10-minute bucket.
	for q := 0; q < 25; q++ {
		recs = append(recs, dnslog.Record{
			Time:       simtime.Time(q), // within bucket 0
			Originator: o,
			Querier:    ipaddr.FromOctets(10, 0, byte(q), 1),
		})
	}
	x := newTestExtractor()
	vs := x.Extract(recs, 0, simtime.Hours(1)) // 6 buckets
	want := 1.0 / 6
	if got := vs[0].Dynamic(DynPersistence); math.Abs(got-want) > 1e-9 {
		t.Errorf("persistence = %v, want %v", got, want)
	}
}

func TestEntropyContrast(t *testing.T) {
	x := newTestExtractor()
	o := ipaddr.MustParse("1.2.3.4")
	// Concentrated: all queriers in one /24 and one /8.
	var conc []dnslog.Record
	for q := 0; q < 30; q++ {
		conc = append(conc, dnslog.Record{Time: simtime.Time(q * 40), Originator: o,
			Querier: ipaddr.FromOctets(10, 0, 0, byte(q))})
	}
	// Dispersed: all queriers in distinct /8s.
	var disp []dnslog.Record
	for q := 0; q < 30; q++ {
		disp = append(disp, dnslog.Record{Time: simtime.Time(q * 40), Originator: o,
			Querier: ipaddr.FromOctets(byte(q*7), 1, 2, 3)})
	}
	vc := x.Extract(conc, 0, simtime.Day)[0]
	vd := x.Extract(disp, 0, simtime.Day)[0]
	if vc.Dynamic(DynGlobalEntropy) != 0 {
		t.Errorf("single-/8 global entropy = %v, want 0", vc.Dynamic(DynGlobalEntropy))
	}
	if vd.Dynamic(DynGlobalEntropy) < 0.95 {
		t.Errorf("distinct-/8 global entropy = %v, want ≈1", vd.Dynamic(DynGlobalEntropy))
	}
	if vc.Dynamic(DynLocalEntropy) != 0 {
		t.Errorf("single-/24 local entropy = %v, want 0", vc.Dynamic(DynLocalEntropy))
	}
}

func TestUnreachFlagOverridesName(t *testing.T) {
	nameOf := func(a ipaddr.Addr) (string, bool) { return "", true }
	x := NewExtractor(geo.NewRegistry(42), nameOf)
	vs := x.Extract(mkRecs("1.2.3.4", 25, 1), 0, simtime.Day)
	if got := vs[0].Static(qname.Unreach); got != 1 {
		t.Errorf("unreach fraction = %v, want 1", got)
	}
}

func TestNormalizedDispersion(t *testing.T) {
	// Two originators: one touched by all interval queriers, one by a
	// geographically narrow subset. Dispersion features must differ.
	o1 := ipaddr.MustParse("1.1.1.1")
	o2 := ipaddr.MustParse("2.2.2.2")
	var recs []dnslog.Record
	for q := 0; q < 40; q++ {
		recs = append(recs, dnslog.Record{Time: simtime.Time(q * 40), Originator: o1,
			Querier: ipaddr.FromOctets(byte(q*5), 1, 2, 3)})
	}
	for q := 0; q < 25; q++ {
		recs = append(recs, dnslog.Record{Time: simtime.Time(q*40 + 7), Originator: o2,
			Querier: ipaddr.FromOctets(100, 1, byte(q), 3)})
	}
	x := newTestExtractor()
	vs := x.Extract(recs, 0, simtime.Day)
	if len(vs) != 2 {
		t.Fatalf("%d vectors", len(vs))
	}
	byOrig := map[ipaddr.Addr]*Vector{vs[0].Originator: vs[0], vs[1].Originator: vs[1]}
	if byOrig[o1].Dynamic(DynUniqueCountries) <= byOrig[o2].Dynamic(DynUniqueCountries) {
		t.Error("globally dispersed originator has no higher country dispersion")
	}
	if byOrig[o1].Dynamic(DynUniqueASes) <= byOrig[o2].Dynamic(DynUniqueASes) {
		t.Error("globally dispersed originator has no higher AS dispersion")
	}
}

func TestSortingAndTopN(t *testing.T) {
	var recs []dnslog.Record
	recs = append(recs, mkRecs("1.1.1.1", 50, 1)...)
	recs = append(recs, mkRecs("2.2.2.2", 30, 1)...)
	recs = append(recs, mkRecs("3.3.3.3", 40, 1)...)
	x := newTestExtractor()
	vs := x.Extract(recs, 0, simtime.Day)
	if len(vs) != 3 {
		t.Fatalf("%d vectors", len(vs))
	}
	if vs[0].Queriers < vs[1].Queriers || vs[1].Queriers < vs[2].Queriers {
		t.Error("vectors not footprint-sorted")
	}
	if vs[0].Originator != ipaddr.MustParse("1.1.1.1") {
		t.Errorf("largest footprint first = %v", vs[0].Originator)
	}
}

func TestExtractDeterministic(t *testing.T) {
	recs := append(mkRecs("1.1.1.1", 30, 2), mkRecs("2.2.2.2", 30, 2)...)
	x := newTestExtractor()
	a := x.Extract(recs, 0, simtime.Day)
	b := x.Extract(recs, 0, simtime.Day)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Originator != b[i].Originator || a[i].X != b[i].X {
			t.Fatalf("vector %d differs across runs", i)
		}
	}
}

func TestVectorAccessors(t *testing.T) {
	v := &Vector{}
	v.X[int(qname.Mail)] = 0.5
	v.X[NumStatic+DynGlobalEntropy] = 0.9
	if v.Static(qname.Mail) != 0.5 || v.Dynamic(DynGlobalEntropy) != 0.9 {
		t.Error("accessors wrong")
	}
	if v.String() == "" {
		t.Error("String empty")
	}
}

func BenchmarkExtract(b *testing.B) {
	recs := append(mkRecs("1.1.1.1", 200, 3), mkRecs("2.2.2.2", 100, 2)...)
	x := newTestExtractor()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Extract(recs, 0, simtime.Day)
	}
}
