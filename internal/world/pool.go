package world

import (
	"math"

	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/qname"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

// Querier is one reacting party: the resolver that contacts authorities on
// behalf of targets (a shared ISP cache, a self-resolving mail server, a
// firewall doing log lookups, ...).
type Querier struct {
	Addr     ipaddr.Addr
	Category qname.Category
	Resolver *dnssim.Resolver

	shard uint8 // which of the world's simShards walks this resolver
}

// poolKey identifies a querier slot by (category, country, popularity
// rank).
type poolKey struct {
	cat     qname.Category
	country int // index into geo.Countries
	rank    int
}

// packed folds the key into one word, which the runtime's maps hash far
// faster than a three-field struct on the per-touch hot path.
func (k poolKey) packed() uint64 {
	return uint64(k.cat)<<48 | uint64(k.country)<<32 | uint64(uint32(k.rank))
}

// querierName is all a run world keeps of a querier: the reverse name the
// sensor looks up (empty for NXDomain/Unreach) and whether its reverse zone
// is unreachable.
type querierName struct {
	name    string
	unreach bool
}

// querierPool lazily materializes the world's querier population. A slot's
// querier is a pure function of (world seed, category, country, rank), so
// pools are reproducible regardless of materialization order, and the same
// target always reaches the same querier.
type querierPool struct {
	geo          *geo.Registry
	seed         uint64
	qminFraction float64

	// zipf[k] is the smallest 53-bit draw whose rank is <= k; see zipfRank.
	zipf []uint64

	byKey map[uint64]*Querier // by poolKey.packed
	// named answers nameOf and keeps materialized addresses distinct; n
	// counts materializations. Only these two survive collapse.
	named map[ipaddr.Addr]querierName
	n     int

	// caches[s] holds the resolver caches of every querier in shard s;
	// owners[s] is the owner id there of the next querier materialized in
	// it, counted here because generation runs beside the shard's walks.
	caches [simShards]*dnssim.Caches
	owners [simShards]int
}

// resolverCacheMax bounds each simulated resolver's cache entries. Shard
// tables sweep out what expired before the day being resolved, so the
// bound counts little beyond entries that can still be read.
const resolverCacheMax = 2048

// newQuerierPool returns an empty pool whose resolver caches, materialized
// or not, count into reg (nil: uninstrumented).
func newQuerierPool(g *geo.Registry, src *rng.Source, reg *obs.Registry) *querierPool {
	p := &querierPool{
		geo:   g,
		seed:  src.Stream("querier-pool").Uint64(),
		zipf:  zipfThresholds(),
		byKey: make(map[uint64]*Querier),
		named: make(map[ipaddr.Addr]querierName),
	}
	for s := range p.caches {
		p.caches[s] = dnssim.NewCaches(resolverCacheMax, reg)
	}
	return p
}

func mix64(a, b uint64) uint64 {
	z := a ^ (b+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// get returns the querier for a slot, creating it on first use.
func (p *querierPool) get(k poolKey) *Querier {
	if q, ok := p.byKey[k.packed()]; ok {
		return q
	}
	st := rng.New(mix64(p.seed, mix64(uint64(k.cat)<<32|uint64(k.rank), uint64(k.country)+0x1b3)))

	// Draw an address in the country, avoiding collisions with already
	// materialized queriers (two slots must stay distinguishable).
	var addr ipaddr.Addr
	for i := 0; ; i++ {
		a, ok := p.geo.RandomAddrIn(geo.CountryCode(k.country), st)
		if !ok {
			a = ipaddr.Addr(st.Uint64())
		}
		if _, taken := p.named[a]; !taken || i >= 32 {
			addr = a
			break
		}
	}

	name := qname.NewGenerator(st).Name(k.cat, addr, p.geo.CCTLD(addr))

	// Popular slots (low rank) and shared resolvers (NS category) carry
	// more background traffic, keeping the upper reverse tree warm.
	base := 0.10
	if k.cat == qname.NS {
		base = 0.55
	}
	popularity := 1 / (1 + float64(k.rank)/50)
	busy := base + 0.4*popularity
	if busy > 0.97 {
		busy = 0.97
	}

	// The shard is a stable hash of the resolver address into a fixed
	// count, so which resolvers share a walk never depends on the worker
	// count (determinism rule 4).
	shard := uint8(mix64(uint64(addr), 0x5a17) % simShards)
	q := &Querier{
		Addr:     addr,
		Category: k.cat,
		Resolver: dnssim.NewResolverIn(p.caches[shard], p.owners[shard], addr, busy, preferM(p.geo.Region(addr)), rng.New(st.Uint64())),
		shard:    shard,
	}
	p.owners[shard]++
	// Some queriers ignore DNS timeout rules and re-query aggressively
	// (§III-C). Firewalls and home gear logging per connection are the
	// usual offenders; shared resolvers and real mail servers cache
	// properly.
	violator := 0.25
	switch k.cat {
	case qname.NS:
		violator = 0.03
	case qname.Mail, qname.Antispam:
		violator = 0.10
	case qname.FW:
		violator = 0.55
	case qname.Home:
		violator = 0.45
	}
	if st.Bool(violator) {
		q.Resolver.MaxPTRTTL = simtime.Duration(60 + st.Intn(240))
		q.Resolver.RetransmitProb = 0.35
	}
	if p.qminFraction > 0 && st.Bool(p.qminFraction) {
		q.Resolver.QNameMin = true
	}
	p.byKey[k.packed()] = q
	p.named[addr] = querierName{name, k.cat == qname.Unreach}
	p.n++
	return q
}

// preferM maps a querier's region to its probability of reaching M-Root
// (anycast in Asia/Europe/NA) rather than B-Root (US west coast only).
func preferM(region string) float64 {
	switch region {
	case "asia":
		return 0.85
	case "oceania":
		return 0.7
	case "europe":
		return 0.6
	case "africa":
		return 0.55
	case "south-america":
		return 0.35
	default: // north-america
		return 0.25
	}
}

// forTarget maps a touched target to its querier. The category comes from
// the originator's campaign mix, keyed by (originator, target) so that
// re-touching a target reaches the same querier; the popularity rank is
// keyed by the target alone, so shared resolvers absorb many targets
// across campaigns.
func (p *querierPool) forTarget(orig ipaddr.Addr, mix *classMix, target ipaddr.Addr) *Querier {
	h := mix64(p.seed^uint64(orig), uint64(target))
	u := float64(h>>11) / (1 << 53)
	cat := drawCategory(mix, u)

	country := p.geo.CountryIndex(target)
	rank := p.zipfRank(mix64(mix64(p.seed, uint64(target)), 0xabcd))
	return p.get(poolKey{cat: cat, country: country, rank: rank})
}

// zipfDraw is the inverse-CDF of the continuous power law, rank ~
// u^{-1/(s-1)}, on a 53-bit draw x (u = x / 2^53). The result is at or
// beyond querierRanks when the draw falls outside the pool.
func zipfDraw(x uint64) int {
	u := float64(x) / (1 << 53)
	if u == 0 {
		u = 1e-12
	}
	return int(math.Pow(u, -1/(zipfS-1))) - 1
}

// zipfThresholds tabulates zipfDraw: entry k is the smallest draw whose
// rank is <= k (ranks fall as draws grow). Each entry starts from the
// analytic inverse and is then walked to the exact boundary of zipfDraw
// itself, so a table lookup returns precisely what the formula would.
func zipfThresholds() []uint64 {
	th := make([]uint64, querierRanks)
	for k := range th {
		x := uint64(math.Pow(float64(k+2), -(zipfS-1)) * (1 << 53))
		for x > 0 && zipfDraw(x-1) <= k {
			x--
		}
		for zipfDraw(x) > k {
			x++
		}
		th[k] = x
	}
	return th
}

// zipfRank draws a Zipf(zipfS)-distributed rank in [0, querierRanks) from a hash:
// the smallest k whose threshold the draw reaches. Out-of-range draws
// re-hash (rejection), preserving the tail shape.
func (p *querierPool) zipfRank(h uint64) int {
	th := p.zipf
	for i := 0; i < 64; i++ {
		if x := h >> 11; x >= th[len(th)-1] {
			// th descends; binary search for the first entry <= x.
			lo, hi := 0, len(th)-1
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if th[mid] <= x {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			return lo
		}
		h = mix64(h, uint64(i)+1)
	}
	return querierRanks - 1
}

// nameOf resolves a querier address back to its reverse name. Unknown
// addresses (never materialized) report as having no name.
func (p *querierPool) nameOf(a ipaddr.Addr) (string, bool) {
	q := p.named[a]
	return q.name, q.unreach
}

// size returns how many queriers have been materialized.
func (p *querierPool) size() int { return p.n }

// collapse drops all but the name table and the count: the queriers with
// their resolvers, the shard caches, the Zipf table and the name interner.
// Only nameOf and size answer afterwards.
func (p *querierPool) collapse() { *p = querierPool{named: p.named, n: p.n} }
