package ipaddr

import (
	"testing"
	"testing/quick"
)

func TestStringRoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0", "1.2.3.4", "255.255.255.255", "192.168.0.1", "10.0.0.254"}
	for _, s := range cases {
		a, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := a.String(); got != s {
			t.Errorf("Parse(%q).String() = %q", s, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "1..2.3", "a.b.c.d", "1.2.3.4 ", ".1.2.3", "1.2.3."}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParseStringProperty(t *testing.T) {
	if err := quick.Check(func(v uint32) bool {
		a := Addr(v)
		back, err := Parse(a.String())
		return err == nil && back == a
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestOctets(t *testing.T) {
	a := FromOctets(1, 2, 3, 4)
	o0, o1, o2, o3 := a.Octets()
	if o0 != 1 || o1 != 2 || o2 != 3 || o3 != 4 {
		t.Errorf("Octets() = %d.%d.%d.%d", o0, o1, o2, o3)
	}
}

func TestPrefixOps(t *testing.T) {
	a := MustParse("10.2.3.4")
	if a.Slash8() != 10 {
		t.Errorf("Slash8 = %d", a.Slash8())
	}
	if a.Slash16() != 10<<8|2 {
		t.Errorf("Slash16 = %d", a.Slash16())
	}
	if a.Slash24() != 10<<16|2<<8|3 {
		t.Errorf("Slash24 = %d", a.Slash24())
	}
}

func TestPrefixContains(t *testing.T) {
	p := NewPrefix(MustParse("10.2.0.0"), 16)
	if !p.Contains(MustParse("10.2.255.255")) {
		t.Error("prefix should contain 10.2.255.255")
	}
	if p.Contains(MustParse("10.3.0.0")) {
		t.Error("prefix should not contain 10.3.0.0")
	}
	if got := p.String(); got != "10.2.0.0/16" {
		t.Errorf("String = %q", got)
	}
}

func TestPrefixNormalizesBase(t *testing.T) {
	p := NewPrefix(MustParse("10.2.3.4"), 16)
	if p.Base != MustParse("10.2.0.0") {
		t.Errorf("base = %v, want 10.2.0.0", p.Base)
	}
}

func TestPrefixSizeAndNth(t *testing.T) {
	p := NewPrefix(MustParse("192.168.1.0"), 24)
	if p.Size() != 256 {
		t.Errorf("Size = %d", p.Size())
	}
	if got := p.Nth(255); got != MustParse("192.168.1.255") {
		t.Errorf("Nth(255) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Nth out of range did not panic")
		}
	}()
	p.Nth(256)
}

func TestPrefixZeroBits(t *testing.T) {
	p := NewPrefix(MustParse("1.2.3.4"), 0)
	if !p.Contains(MustParse("255.255.255.255")) || !p.Contains(0) {
		t.Error("0-bit prefix must contain everything")
	}
	if p.Size() != 1<<32 {
		t.Errorf("Size = %d", p.Size())
	}
}

func TestReverseName(t *testing.T) {
	a := MustParse("1.2.3.4")
	want := "4.3.2.1.in-addr.arpa"
	if got := a.ReverseName(); got != want {
		t.Errorf("ReverseName = %q, want %q", got, want)
	}
}

func TestFromReverseName(t *testing.T) {
	a, err := FromReverseName("4.3.2.1.in-addr.arpa")
	if err != nil {
		t.Fatal(err)
	}
	if a != MustParse("1.2.3.4") {
		t.Errorf("got %v", a)
	}
	// Trailing dot accepted.
	if _, err := FromReverseName("4.3.2.1.in-addr.arpa."); err != nil {
		t.Errorf("trailing dot rejected: %v", err)
	}
	for _, bad := range []string{"4.3.2.1.ip6.arpa", "3.2.1.in-addr.arpa", "x.3.2.1.in-addr.arpa"} {
		if _, err := FromReverseName(bad); err == nil {
			t.Errorf("FromReverseName(%q) succeeded", bad)
		}
	}
}

func TestReverseNameRoundTrip(t *testing.T) {
	if err := quick.Check(func(v uint32) bool {
		a := Addr(v)
		back, err := FromReverseName(a.ReverseName())
		return err == nil && back == a
	}, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAddrString(b *testing.B) {
	a := MustParse("203.178.141.194")
	for i := 0; i < b.N; i++ {
		_ = a.String()
	}
}

func BenchmarkReverseName(b *testing.B) {
	a := MustParse("203.178.141.194")
	for i := 0; i < b.N; i++ {
		_ = a.ReverseName()
	}
}

func TestAppendToAllocs(t *testing.T) {
	buf := make([]byte, 0, 15)
	for _, a := range []Addr{0, MustParse("192.0.2.1"), MustParse("255.255.255.255")} {
		if got := string(a.AppendTo(buf[:0])); got != a.String() {
			t.Errorf("AppendTo = %q, String = %q", got, a.String())
		}
		if n := testing.AllocsPerRun(1000, func() { buf = a.AppendTo(buf[:0]) }); n != 0 {
			t.Errorf("AppendTo(%v) makes %.0f allocations, want 0", a, n)
		}
	}
}
