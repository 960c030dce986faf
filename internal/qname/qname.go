// Package qname models querier reverse-DNS names: the Internet naming
// conventions the paper's static features are built on (§III-C).
//
// It has two halves sharing one keyword vocabulary:
//
//   - Classify implements the paper's matcher: split a domain name into
//     components, scan components left to right, and within a component
//     take the first matching rule in the fixed rule order (so both
//     "mail.ns.example.com" and "mail-ns.example.com" classify as mail,
//     and "pop" resolves to home because home precedes mail).
//   - Generator produces synthetic querier names for each category,
//     substituting for the real reverse zones the paper observed.
package qname

import (
	"strconv"
	"strings"

	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/rng"
)

// Category is a static querier-name class from §III-C.
type Category int

// Categories in the paper's rule order. Matching takes the first rule that
// fires, so this order is semantically significant.
const (
	Home Category = iota
	Mail
	NS
	FW
	Antispam
	WWW
	NTP
	CDN
	AWS
	MS
	Google
	Other    // other-unclassified: a name not matching any rule
	Unreach  // querier's reverse zone authority cannot be reached
	NXDomain // no reverse name exists
	NumCategories
)

var categoryNames = [NumCategories]string{
	"home", "mail", "ns", "fw", "antispam", "www", "ntp",
	"cdn", "aws", "ms", "google", "other", "unreach", "nxdomain",
}

// String returns the short feature name for c.
func (c Category) String() string {
	if c < 0 || c >= NumCategories {
		return "invalid"
	}
	return categoryNames[c]
}

// tokenRules are the keyword lists from §III-C, in rule order. A keyword
// matches a token exactly, or by prefix when the paper's list has a
// trailing '*' (send*).
var tokenRules = []struct {
	cat      Category
	keywords []string
}{
	{Home, []string{"ap", "cable", "cpe", "customer", "dsl", "dynamic", "fiber",
		"flets", "home", "host", "ip", "net", "pool", "pop", "retail", "user"}},
	{Mail, []string{"mail", "mx", "smtp", "post", "correo", "poczta", "send*",
		"lists", "newsletter", "zimbra", "mta", "pop", "imap"}},
	{NS, []string{"cns", "dns", "ns", "cache", "resolv", "name"}},
	{FW, []string{"firewall", "wall", "fw"}},
	{Antispam, []string{"ironport", "spam"}},
	{WWW, []string{"www"}},
	{NTP, []string{"ntp"}},
}

// suffixRules classify infrastructure by registered-domain suffix
// (CDN operators, AWS, Azure, Google), checked after token rules fail.
var suffixRules = []struct {
	cat      Category
	suffixes []string
}{
	{CDN, []string{".akamaitechnologies.com", ".akamai.net", ".edgecastcdn.net",
		".cdnetworks.com", ".llnwd.net"}},
	{AWS, []string{".amazonaws.com"}},
	{MS, []string{".cloudapp.azure.com", ".microsoft.com"}},
	{Google, []string{".google.com", ".1e100.net", ".googlebot.com"}},
}

// Classify maps a querier reverse name to its static category. Empty input
// is NXDomain (no reverse name). Names are lowercased before matching.
func Classify(name string) Category {
	if name == "" {
		return NXDomain
	}
	name = strings.ToLower(strings.TrimSuffix(name, "."))

	// Domain-suffix rules fire regardless of the leftmost label: a CDN
	// edge node is CDN even when its hostname is a serial number.
	for _, r := range suffixRules {
		for _, suf := range r.suffixes {
			if strings.HasSuffix(name, suf) {
				return r.cat
			}
		}
	}

	// Token rules: leftmost component wins; within a component, the first
	// rule in order wins.
	for len(name) > 0 {
		comp := name
		if i := strings.IndexByte(name, '.'); i >= 0 {
			comp, name = name[:i], name[i+1:]
		} else {
			name = ""
		}
		if cat, ok := classifyComponent(comp); ok {
			return cat
		}
	}
	return Other
}

// ClassifyQuerier is the category of a querier with the given reverse name:
// Classify's, or Unreach whatever the name when the querier's reverse zone
// authority cannot be reached.
func ClassifyQuerier(name string, unreach bool) Category {
	if unreach {
		return Unreach
	}
	return Classify(name)
}

// exactRule maps a keyword to the index of the first token rule listing
// it ("pop" is both home and mail: home, the earlier rule, owns it);
// prefixRules holds the trailing-'*' keywords with theirs.
var exactRule, prefixRules = indexTokenRules()

type prefixRule struct {
	text string
	rule int
}

func indexTokenRules() (map[string]int, []prefixRule) {
	exact := make(map[string]int)
	var prefixes []prefixRule
	for ri, r := range tokenRules {
		for _, kw := range r.keywords {
			if text, ok := strings.CutSuffix(kw, "*"); ok {
				prefixes = append(prefixes, prefixRule{text, ri})
			} else if _, listed := exact[kw]; !listed {
				exact[kw] = ri
			}
		}
	}
	return exact, prefixes
}

// classifyComponent checks one dot-separated component against the token
// rules. Tokens are maximal alphabetic runs, so "home1-2-3-4" yields the
// token "home" and "ironport" stays a single token (never matching "ip").
// The component is tokenised once: "the first rule in order that any token
// matches" is the minimum over tokens of each token's first rule.
func classifyComponent(comp string) (Category, bool) {
	best := len(tokenRules)
	for i := 0; i < len(comp) && best > 0; {
		if !isAlpha(comp[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(comp) && isAlpha(comp[j]) {
			j++
		}
		tok := comp[i:j]
		if ri, ok := exactRule[tok]; ok && ri < best {
			best = ri
		}
		for _, p := range prefixRules {
			if p.rule < best && strings.HasPrefix(tok, p.text) {
				best = p.rule
			}
		}
		i = j
	}
	if best == len(tokenRules) {
		return 0, false
	}
	return tokenRules[best].cat, true
}

func isAlpha(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// Generator produces synthetic querier names with the keyword structure of
// each category. All choices come from the supplied stream, so a seeded
// generator is fully reproducible.
type Generator struct {
	st  *rng.Stream
	buf []byte // scratch for assembling names in one allocation
}

// NewGenerator returns a generator drawing from st.
func NewGenerator(st *rng.Stream) *Generator {
	return &Generator{st: st}
}

// domainWords avoid every token keyword so the registered domain never
// changes the classification of the leftmost label.
var domainWords = []string{
	"telecom", "example", "online", "hosting", "global", "metro", "city",
	"bluesky", "zone", "grid", "nova", "corp", "media", "digital", "plus",
	"prime", "apex", "orbit", "vista", "delta",
}

func init() {
	for _, w := range domainWords {
		if cat, ok := classifyComponent(w); ok {
			panic("qname: domain word " + w + " collides with keyword rule " + cat.String())
		}
	}
}

var (
	homeKeywords   = []string{"home", "dsl", "cable", "dynamic", "cpe", "customer", "pool", "fiber", "flets", "user", "retail"}
	mailHosts      = []string{"mail", "mx", "smtp", "post", "zimbra", "mta", "imap", "sendnode", "lists", "newsletter", "correo", "poczta"}
	nsHosts        = []string{"ns", "dns", "cns", "cache", "resolv", "name"}
	fwHosts        = []string{"firewall", "fw", "wall"}
	antispamHosts  = []string{"ironport", "spam"}
	otherHosts     = []string{"srv", "node", "sys", "box", "zeus", "eagle", "alpha", "beta", "omega", "core", "vpn", "db", "app", "api", "login", "portal"}
	cdnSuffixes    = []string{"deploy.akamaitechnologies.com", "static.akamai.net", "wac.edgecastcdn.net", "px.cdnetworks.com", "fcs.llnwd.net"}
	googleSuffixes = []string{"google.com", "1e100.net", "googlebot.com"}
	msSuffixes     = []string{"cloudapp.azure.com", "microsoft.com"}
)

// Name generates a reverse name for a querier at addr in category cat under
// the given ccTLD. It returns "" for NXDomain and Unreach (no usable name);
// callers track unreachability separately.
func (g *Generator) Name(cat Category, addr ipaddr.Addr, cctld string) string {
	o0, o1, o2, o3 := addr.Octets()
	// The registered domain's word is drawn first and unconditionally —
	// even for categories that ignore it — so the stream advances
	// identically for every category.
	word := domainWords[g.st.Intn(len(domainWords))]
	pick := func(xs []string) string { return xs[g.st.Intn(len(xs))] }

	// The name is assembled into the generator's scratch buffer and
	// copied out once: the many intermediate concatenations the naive
	// form allocates (quad, host+digit, host+"."+dom) never materialize.
	b := g.buf[:0]
	quad := func(b []byte) []byte {
		b = strconv.AppendInt(b, int64(o0), 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(o1), 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(o2), 10)
		b = append(b, '-')
		return strconv.AppendInt(b, int64(o3), 10)
	}
	// dom appends the registered domain under cctld, e.g. "metro3.jp";
	// the /16 diversifies organizations within a country.
	dom := func(b []byte) []byte {
		b = append(b, word...)
		b = strconv.AppendInt(b, int64(addr.Slash16()%97), 10)
		b = append(b, '.')
		return append(b, cctld...)
	}
	done := func(b []byte) string {
		g.buf = b
		return string(b)
	}

	switch cat {
	case Home:
		b = append(b, pick(homeKeywords)...)
		if !g.st.Bool(0.5) {
			b = append(b, '-')
		}
		b = quad(b)
		b = append(b, '.')
		return done(dom(b))
	case Mail:
		b = append(b, pick(mailHosts)...)
		if g.st.Bool(0.3) {
			b = strconv.AppendInt(b, int64(1+g.st.Intn(9)), 10)
		}
		// A slice of compound names exercises the precedence rules.
		if g.st.Bool(0.1) {
			b = append(b, ".ns"...)
			b = strconv.AppendInt(b, int64(g.st.Intn(4)), 10)
		}
		b = append(b, '.')
		return done(dom(b))
	case NS:
		b = append(b, pick(nsHosts)...)
		if g.st.Bool(0.4) {
			b = strconv.AppendInt(b, int64(1+g.st.Intn(4)), 10)
		}
		b = append(b, '.')
		return done(dom(b))
	case FW:
		b = append(b, pick(fwHosts)...)
		b = strconv.AppendInt(b, int64(g.st.Intn(3)), 10)
		b = append(b, '.')
		return done(dom(b))
	case Antispam:
		b = append(b, pick(antispamHosts)...)
		b = strconv.AppendInt(b, int64(1+g.st.Intn(4)), 10)
		b = append(b, '.')
		return done(dom(b))
	case WWW:
		b = append(b, "www"...)
		if g.st.Bool(0.3) {
			b = strconv.AppendInt(b, int64(1+g.st.Intn(4)), 10)
		}
		b = append(b, '.')
		return done(dom(b))
	case NTP:
		b = append(b, "ntp"...)
		b = strconv.AppendInt(b, int64(g.st.Intn(4)), 10)
		b = append(b, '.')
		return done(dom(b))
	case CDN:
		b = append(b, 'a')
		b = quad(b)
		b = append(b, '.')
		return done(append(b, pick(cdnSuffixes)...))
	case AWS:
		b = append(b, "ec2-"...)
		b = quad(b)
		return done(append(b, ".compute-1.amazonaws.com"...))
	case MS:
		b = append(b, "waws-"...)
		b = strconv.AppendInt(b, int64(o2), 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(o3), 10)
		b = append(b, '.')
		return done(append(b, pick(msSuffixes)...))
	case Google:
		b = append(b, "rate-limited-proxy-"...)
		b = quad(b)
		b = append(b, '.')
		return done(append(b, pick(googleSuffixes)...))
	case Other:
		b = append(b, pick(otherHosts)...)
		b = strconv.AppendInt(b, int64(g.st.Intn(40)), 10)
		b = append(b, '.')
		return done(dom(b))
	case NXDomain, Unreach:
		return ""
	default:
		panic("qname: Name for invalid category " + strconv.Itoa(int(cat)))
	}
}
