package features

import (
	"slices"
	"testing"

	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/qname"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

func TestSampledRoundTrip(t *testing.T) {
	for _, a := range []ipaddr.Addr{0, 1, ipaddr.MustParse("10.20.30.40"), 1<<32 - 1} {
		unreach := func(ipaddr.Addr) qname.Category { return qname.Unreach }
		if s := SampleOf(unreach, a); s.Addr() != a || s.Category() != qname.Unreach {
			t.Errorf("unreachable %v sampled as (%v, %v)", a, s.Addr(), s.Category())
		}
		if s := SampleOf(fuzzCategories, a); s.Addr() != a {
			t.Errorf("%v came back as %v", a, s.Addr())
		}
	}
	// Packed samples order by address: the scan relies on it, and a
	// sample finds an address by its key before its category is known.
	lo, hi := SampleOf(fuzzCategories, 5), SampleOf(fuzzCategories, 6)
	if lo >= hi {
		t.Error("a lower address sorts after a higher one")
	}
	if SampleKey(5) > lo || lo >= SampleKey(6) {
		t.Error("an address's key does not sort between it and the next address")
	}
}

func TestRadixSortMatchesSort(t *testing.T) {
	st := rng.New(3)
	for _, n := range []int{0, 1, 2, 100, 5000} {
		for _, mask := range []uint32{1<<32 - 1, 0xffff, 0xff000000, 7} { // spread, and heavy duplication in each digit
			a := make([]uint32, n)
			for i := range a {
				a[i] = uint32(st.Uint64()) & mask
			}
			want := slices.Clone(a)
			slices.Sort(want)
			if got := radixSort(a, make([]uint32, n)); !slices.Equal(got, want) {
				t.Fatalf("n=%d mask=%#x: radixSort differs from slices.Sort", n, mask)
			}
		}
	}
}

// TestNormsFromStatsMatchesSets holds the sort-and-scan normalizers to
// their definition: sizes of the sets of distinct sampled queriers, their
// ASes and their countries, the first rescaled by estimate mass over
// sample mass. One scratch serves every population, a small one after a
// large one, as an engine's does epoch after epoch.
func TestNormsFromStatsMatchesSets(t *testing.T) {
	g := geo.NewRegistry(42)
	st := rng.New(9)
	var buf NormScratch
	for _, nOrig := range []int{0, 1, 40, 3} {
		var stats []SketchStats
		queriers, ases, countries := map[ipaddr.Addr]bool{}, map[int]bool{}, map[string]bool{}
		estMass, sampleMass := 0, 0
		for o := 0; o < nOrig; o++ {
			s := SketchStats{Originator: ipaddr.Addr(o), Estimate: 1 + st.Intn(500)}
			for q := st.Intn(60); q > 0; q-- {
				// A small address pool, so samples overlap within and across /16s.
				a := ipaddr.FromOctets(byte(20+st.Intn(3)), byte(st.Intn(4)), byte(st.Intn(2)), byte(st.Intn(8)))
				s.Sample = append(s.Sample, SampleOf(fuzzCategories, a))
				queriers[a], ases[g.ASN(a)], countries[g.Country(a)] = true, true, true
			}
			estMass += s.Estimate
			sampleMass += len(s.Sample)
			stats = append(stats, s)
		}
		want := SketchNorms{TotalAS: len(ases), TotalCountry: len(countries), TotalQueriers: len(queriers), TotalBuckets: 6}
		if sampleMass > 0 {
			want.TotalQueriers = int(float64(len(queriers)) * float64(estMass) / float64(sampleMass))
		}
		if got := NormsFromStats(g, stats, simtime.Hour, &buf); got != want {
			t.Errorf("%d originators: norms %+v, want %+v", nOrig, got, want)
		}
	}
}
