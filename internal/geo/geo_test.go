package geo

import (
	"testing"

	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/rng"
)

func TestDeterminism(t *testing.T) {
	a := NewRegistry(42)
	b := NewRegistry(42)
	for i := 0; i < 256; i++ {
		addr := ipaddr.Addr(uint32(i) << 24)
		if a.Country(addr) != b.Country(addr) {
			t.Fatalf("/8 %d: country mismatch across identical seeds", i)
		}
	}
	for i := 0; i < 1<<16; i += 37 {
		addr := ipaddr.Addr(uint32(i) << 16)
		if a.ASN(addr) != b.ASN(addr) {
			t.Fatalf("/16 %d: ASN mismatch across identical seeds", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := NewRegistry(1)
	b := NewRegistry(2)
	diff := 0
	for i := 0; i < 256; i++ {
		addr := ipaddr.Addr(uint32(i) << 24)
		if a.Country(addr) != b.Country(addr) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical /8 allocation")
	}
}

func TestEveryBlockHasCountry(t *testing.T) {
	r := NewRegistry(7)
	valid := make(map[string]bool)
	for _, c := range Countries {
		valid[c.Code] = true
	}
	for i := 0; i < 256; i++ {
		code := r.Country(ipaddr.Addr(uint32(i) << 24))
		if !valid[code] {
			t.Fatalf("/8 %d assigned unknown country %q", i, code)
		}
	}
}

func TestASNConsistentWithinSlash16(t *testing.T) {
	r := NewRegistry(7)
	base := ipaddr.MustParse("100.50.0.0")
	want := r.ASN(base)
	for _, s := range []string{"100.50.0.1", "100.50.128.9", "100.50.255.255"} {
		if got := r.ASN(ipaddr.MustParse(s)); got != want {
			t.Errorf("ASN(%s) = %d, want %d (same /16)", s, got, want)
		}
	}
}

func TestASesStayWithinSlash8(t *testing.T) {
	r := NewRegistry(7)
	// The last /16 of one /8 and the first of the next must be different
	// ASes: AS carving restarts at each /8 boundary.
	for b8 := 0; b8 < 255; b8++ {
		last := r.ASN(ipaddr.FromOctets(byte(b8), 255, 0, 0))
		next := r.ASN(ipaddr.FromOctets(byte(b8+1), 0, 0, 0))
		if last == next {
			t.Fatalf("AS %d spans /8 boundary at %d", last, b8)
		}
	}
}

func TestCountsPositive(t *testing.T) {
	r := NewRegistry(7)
	ases := map[int32]bool{}
	for _, asn := range r.asOf {
		ases[asn] = true
	}
	if len(ases) < 256 {
		t.Errorf("%d ASes, want at least one per /8", len(ases))
	}
	if len(r.byCountry) < 10 {
		t.Errorf("%d countries, want broad coverage", len(r.byCountry))
	}
}

func TestSlash8sInMatchesCountry(t *testing.T) {
	r := NewRegistry(7)
	for _, c := range Countries {
		for _, b8 := range r.byCountry[c.Code] {
			if got := r.Country(ipaddr.Addr(uint32(b8) << 24)); got != c.Code {
				t.Errorf("byCountry[%q] contains %d owned by %q", c.Code, b8, got)
			}
		}
	}
}

func TestSlash8sInCoversAllBlocks(t *testing.T) {
	r := NewRegistry(7)
	n := 0
	for _, c := range Countries {
		n += len(r.byCountry[c.Code])
	}
	if n != 256 {
		t.Errorf("country allocations cover %d /8s, want 256", n)
	}
}

func TestRandomAddrIn(t *testing.T) {
	r := NewRegistry(7)
	st := rng.New(9)
	for i := 0; i < 200; i++ {
		a, ok := r.RandomAddrIn("jp", st)
		if !ok {
			t.Skip("jp holds no space under this seed (allowed but unexpected)")
		}
		if got := r.Country(a); got != "jp" {
			t.Fatalf("RandomAddrIn(jp) returned %v in country %q", a, got)
		}
	}
	if _, ok := r.RandomAddrIn("zz", st); ok {
		t.Error("RandomAddrIn for unknown country succeeded")
	}
}

func TestMajorCountriesAllocated(t *testing.T) {
	r := NewRegistry(7)
	// High-weight countries should essentially always receive space.
	for _, code := range []string{"us", "cn", "jp"} {
		if len(r.byCountry[code]) == 0 {
			t.Errorf("country %q received no /8s", code)
		}
	}
}

func TestCCTLD(t *testing.T) {
	r := NewRegistry(7)
	blocks := r.byCountry["jp"]
	if len(blocks) == 0 {
		t.Skip("jp empty under this seed")
	}
	a := ipaddr.Addr(uint32(blocks[0]) << 24)
	if got := r.CCTLD(a); got != "jp" {
		t.Errorf("CCTLD = %q, want jp", got)
	}
	if reg := r.Region(a); reg != "asia" {
		t.Errorf("Region = %q, want asia", reg)
	}
}

func BenchmarkLookups(b *testing.B) {
	r := NewRegistry(7)
	a := ipaddr.MustParse("133.4.5.6")
	for i := 0; i < b.N; i++ {
		_ = r.Country(a)
		_ = r.ASN(a)
	}
}
