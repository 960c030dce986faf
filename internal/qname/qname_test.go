package qname

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"strings"
	"testing"

	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/golden"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/rng"
)

func TestClassifyPaperExamples(t *testing.T) {
	// Examples taken directly from §III-C.
	cases := []struct {
		name string
		want Category
	}{
		{"home1-2-3-4.example.com", Home},
		{"mail.example.com", Mail},
		{"ns.example.com", NS},
		{"firewall.example.com", FW},
		{"spam.example.com", Antispam},
		{"www.example.com", WWW},
		{"ntp.example.com", NTP},
		// "mail.google.com is both google and mail": suffix rules fire
		// on the registered domain, so it is google infrastructure.
		{"mail.google.com", Google},
		// "both mail.ns.example.com and mail-ns.example.com are mail".
		{"mail.ns.example.com", Mail},
		{"mail-ns.example.com", Mail},
		{"", NXDomain},
	}
	for _, c := range cases {
		if got := Classify(c.name); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassifyRulePrecedence(t *testing.T) {
	// "pop" appears in both home and mail keyword lists; home is the
	// first rule so it wins.
	if got := Classify("pop.example.com"); got != Home {
		t.Errorf("pop classified as %v, want home (first rule wins)", got)
	}
	// Left-most component wins over later components.
	if got := Classify("zeusbox.mail.example.com"); got != Mail {
		t.Errorf("fallthrough to second component got %v, want mail", got)
	}
	if got := Classify("dsl-1-2-3-4.mail.example.com"); got != Home {
		t.Errorf("leftmost home vs later mail got %v, want home", got)
	}
}

func TestClassifyTokenBoundaries(t *testing.T) {
	cases := []struct {
		name string
		want Category
	}{
		// "ironport" must not match the "ip" home keyword: tokens are
		// maximal alphabetic runs.
		{"ironport2.example.com", Antispam},
		{"smtp3.example.com", Mail},
		// send* is a prefix rule.
		{"sendgrid7.example.com", Mail},
		{"sender.example.com", Mail},
		// Digits split tokens: "mx" inside "mx9" matches.
		{"mx9.example.com", Mail},
		// No rule matches: other-unclassified.
		{"zeus17.example.com", Other},
		// Keyword hidden inside a longer token must not match.
		{"hostile.example.com", Other},
		{"mailbag.example.com", Other},
		{"network.example.com", Other},
	}
	for _, c := range cases {
		if got := Classify(c.name); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassifyCaseAndDot(t *testing.T) {
	if got := Classify("MAIL.Example.COM."); got != Mail {
		t.Errorf("case/trailing-dot handling got %v, want mail", got)
	}
}

func TestClassifySuffixRules(t *testing.T) {
	cases := []struct {
		name string
		want Category
	}{
		{"a1-2-3-4.deploy.akamaitechnologies.com", CDN},
		{"gs1.wac.edgecastcdn.net", CDN},
		{"cdn77.px.cdnetworks.com", CDN},
		{"ec2-54-1-2-3.compute-1.amazonaws.com", AWS},
		{"waws-prod-bay-01.cloudapp.azure.com", MS},
		{"rate-limited-proxy-66-249-81-1.google.com", Google},
		{"crawl-66-249-66-1.googlebot.com", Google},
		// Suffix must anchor at a label boundary.
		{"notgooglebot.com", Other},
		{"fakeamazonaws.com", Other},
	}
	for _, c := range cases {
		if got := Classify(c.name); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCategoryString(t *testing.T) {
	if Home.String() != "home" || NXDomain.String() != "nxdomain" {
		t.Error("category names wrong")
	}
	if Category(-1).String() != "invalid" || NumCategories.String() != "invalid" {
		t.Error("out-of-range category must stringify as invalid")
	}
}

// TestGeneratorMatchesClassifier is the central consistency property: every
// generated name must classify back to the category it was generated for,
// under every ccTLD the geo registry hands out — with one exception: an
// Other name has no keyword in its host, so a ccTLD that is a keyword
// ("mx") classifies it. A run world keeps each querier's category as
// classified, so the exception moves no feature.
func TestGeneratorMatchesClassifier(t *testing.T) {
	g := NewGenerator(rng.New(42))
	st := rng.New(43)
	for _, c := range geo.Countries {
		for cat := Category(0); cat < NumCategories; cat++ {
			for i := 0; i < 500; i++ {
				addr := ipaddr.Addr(st.Uint64())
				name := g.Name(cat, addr, c.CCTLD)
				got := Classify(name)
				want := cat
				if cat == Unreach {
					want = NXDomain // no name to classify; both are nameless
				}
				if tld, ok := classifyComponent(c.CCTLD); ok && cat == Other {
					want = tld
				}
				if got != want {
					t.Fatalf("cat %v generated %q which classifies as %v", cat, name, got)
				}
			}
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(rng.New(7))
	b := NewGenerator(rng.New(7))
	addr := ipaddr.MustParse("10.20.30.40")
	for i := 0; i < 100; i++ {
		if x, y := a.Name(Home, addr, "jp"), b.Name(Home, addr, "jp"); x != y {
			t.Fatalf("generator diverged: %q vs %q", x, y)
		}
	}
}

func TestGeneratorNamelessCategories(t *testing.T) {
	g := NewGenerator(rng.New(7))
	addr := ipaddr.MustParse("10.20.30.40")
	if g.Name(NXDomain, addr, "jp") != "" || g.Name(Unreach, addr, "jp") != "" {
		t.Error("nameless categories must yield empty names")
	}
}

func TestGeneratorPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid category did not panic")
		}
	}()
	NewGenerator(rng.New(1)).Name(NumCategories, 0, "jp")
}

// TestDomainUsesCCTLD: a name that carries a registered domain ends in
// the ccTLD it was generated under.
func TestDomainUsesCCTLD(t *testing.T) {
	g := NewGenerator(rng.New(7))
	addr := ipaddr.MustParse("10.20.30.40")
	for _, cat := range []Category{Home, Mail, NS, FW, Antispam, WWW, NTP, Other} {
		if d := g.Name(cat, addr, "jp"); !strings.HasSuffix(d, ".jp") {
			t.Errorf("%v: Name = %q, want .jp suffix", cat, d)
		}
	}
}

// TestGeneratorNamesPinned holds Name's output, and so the order of its
// draws, to the qname/ digests in the module's testdata/digests.txt,
// recorded before the registered domain was assembled inline: one shared
// generator under seed 42 and ccTLD "jp" names 300 addresses per
// category, the categories interleaved, each category's names hashed in
// order. The nameless categories pin the digest of 300 empty lines.
func TestGeneratorNamesPinned(t *testing.T) {
	g := NewGenerator(rng.New(42))
	addrs := rng.New(43)
	var h [NumCategories]hash.Hash
	for i := range h {
		h[i] = sha256.New()
	}
	for i := 0; i < 300; i++ {
		for cat := Category(0); cat < NumCategories; cat++ {
			name := g.Name(cat, ipaddr.Addr(addrs.Uint64()), "jp")
			h[cat].Write([]byte(name))
			h[cat].Write([]byte{'\n'})
		}
	}
	for cat := Category(0); cat < NumCategories; cat++ {
		golden.Digest(t, "qname/"+cat.String(), hex.EncodeToString(h[cat].Sum(nil))[:16])
	}
}

// referenceClassify is the matcher Classify replaced, kept as the oracle:
// the same prelude and suffix rules, then every component re-tokenised
// once for each keyword of each rule, in rule order.
func referenceClassify(name string) Category {
	if name == "" {
		return NXDomain
	}
	name = strings.ToLower(strings.TrimSuffix(name, "."))
	for _, r := range suffixRules {
		for _, suf := range r.suffixes {
			if strings.HasSuffix(name, suf) {
				return r.cat
			}
		}
	}
	for _, comp := range strings.Split(name, ".") {
		for _, r := range tokenRules {
			for _, kw := range r.keywords {
				if referenceHasKeyword(comp, kw) {
					return r.cat
				}
			}
		}
	}
	return Other
}

func referenceHasKeyword(comp, kw string) bool {
	text, prefix := strings.CutSuffix(kw, "*")
	for i := 0; i < len(comp); {
		if !isAlpha(comp[i]) {
			i++
			continue
		}
		j := i
		for j < len(comp) && isAlpha(comp[j]) {
			j++
		}
		tok := comp[i:j]
		if prefix {
			if strings.HasPrefix(tok, text) {
				return true
			}
		} else if tok == text {
			return true
		}
		i = j
	}
	return false
}

// TestClassifyMatchesReference compares the single-pass tokeniser with the
// keyword-by-keyword reference on every category the generator can name,
// over 20 seeds, and on hand cases aimed at where one pass could differ.
func TestClassifyMatchesReference(t *testing.T) {
	check := func(name string) {
		t.Helper()
		if got, want := Classify(name), referenceClassify(name); got != want {
			t.Errorf("Classify(%q) = %v, reference says %v", name, got, want)
		}
	}
	for seed := uint64(1); seed <= 20; seed++ {
		g, st := NewGenerator(rng.New(seed)), rng.New(seed+100)
		for cat := Category(0); cat < NumCategories; cat++ {
			for i := 0; i < 50; i++ {
				check(g.Name(cat, ipaddr.Addr(st.Uint64()), "jp"))
			}
		}
	}
	for _, c := range []struct {
		name string
		want Category
	}{
		{"MaIl7.Example.JP.", Mail},                 // mixed case, trailing dot
		{"pop.example.com", Home},                   // listed by home and by mail
		{"pop3-imap.example.com", Home},             // a later token must not raise the rule
		{"imap-pop3.example.com", Home},             // nor an earlier one hide it
		{"sender7.example.com", Mail},               // send* by prefix
		{"send.example.com", Mail},                  // the bare prefix
		{"sen.example.com", Other},                  // shorter than the prefix
		{"ironport.example.com", Antispam},          // never "ip"
		{"ip-ironport.example.com", Home},           // unless ip is a token of its own
		{"ntp-www-fw.example.com", FW},              // lowest rule of three tokens
		{"a1b2mx3.example.com", Mail},               // digits break tokens
		{"x--dsl__7.example.com", Home},             // so do hyphens and underscores
		{"a..b", Other},                             // empty components
		{"..mail", Mail},                            //
		{".", Other},                                // the root alone
		{"zeus.ns.example.com", NS},                 // a later component, when the first has none
		{"www.mail.example.com", WWW},               // the leftmost matching component wins
		{"mail.deploy.akamaitechnologies.com", CDN}, // a suffix rule beats a token
		{"ns1.google.com.", Google},                 //
		{"ma\x00il.example.com", Other},             // bytes that are not letters break tokens
		{"ma\xffil\xc4\xb0.example.com", Other},     //
	} {
		check(c.name)
		if got := Classify(c.name); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

// FuzzClassify holds Classify to the reference on arbitrary strings. The
// seeds are keyword fragments and separators, so mutation assembles names
// that straddle rules.
func FuzzClassify(f *testing.F) {
	for _, seed := range []string{"", ".", "pop", "send", "sendx", "ip", "ironport", "mail-ns", "www.ntp",
		"dsl1-2.fw", "A.B.", "cache9.amazonaws.com", ".google.com", "x.1e100.net.", "imap\x00pop", "\xff.mx"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		if got, want := Classify(name), referenceClassify(name); got != want {
			t.Fatalf("Classify(%q) = %v, reference says %v", name, got, want)
		}
	})
}

// classifyCases are BenchmarkClassify's names: a first-rule hit, a
// one-token mail name, a suffix hit and two names no rule matches.
var classifyCases = []string{
	"home1-2-3-4.telecom5.jp",
	"mail.example.com",
	"a10-2-3-4.deploy.akamaitechnologies.com",
	"zeus17.example.com",
	"srv12-core.vpn3.metro41.co.jp", // other, five components
	"db7.node-eagle.orbit9.de",      // other, three components ahead of the TLD
}

// TestClassifyAllocs holds Classify of a lowercase name to no allocation,
// whichever rule decides it.
func TestClassifyAllocs(t *testing.T) {
	for _, name := range classifyCases {
		if n := testing.AllocsPerRun(1000, func() { _ = Classify(name) }); n != 0 {
			t.Errorf("Classify(%q) makes %.0f allocations, want 0", name, n)
		}
	}
}

// TestGenerateAllocs holds Generator.Name to one allocation a name, the
// returned string: the name is assembled in the generator's scratch
// buffer. The runs cycle through every category that has a name.
func TestGenerateAllocs(t *testing.T) {
	g := NewGenerator(rng.New(1))
	addr := ipaddr.MustParse("10.20.30.40")
	i := 0
	n := testing.AllocsPerRun(1000, func() {
		_ = g.Name(Category(i%int(Unreach)), addr, "jp") // Home through Other
		i++
	})
	if n > 1 {
		t.Errorf("Generator.Name makes %.0f allocations a name, want 1", n)
	}
}

// BenchmarkClassify covers the spread of costs, up to the expensive end:
// names no rule matches, whose every token of every component is looked
// up.
func BenchmarkClassify(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Classify(classifyCases[i%len(classifyCases)])
	}
}

// BenchmarkGenerate costs one allocation a name, the returned string:
// the registered domain is assembled in the generator's scratch buffer.
func BenchmarkGenerate(b *testing.B) {
	g := NewGenerator(rng.New(1))
	addr := ipaddr.MustParse("10.20.30.40")
	_ = g.Name(Home, addr, "jp") // warm the scratch buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Name(Category(i%int(Other)), addr, "jp")
	}
}
