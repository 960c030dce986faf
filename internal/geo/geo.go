// Package geo provides a deterministic IPv4 geolocation and AS registry.
//
// The paper derives dynamic features from MaxMind GeoLiteCity (country per
// querier IP) and whois (AS per querier IP). Those databases are
// proprietary, so the simulator substitutes a seeded synthetic registry
// with the same structure the features rely on:
//
//   - /8 blocks are assigned to countries geographically, so the Shannon
//     entropy of querier /8s measures global dispersion (§III-C "global
//     entropy"),
//   - contiguous runs of /16s within a /8 belong to one AS, so AS counts
//     measure organizational dispersion.
//
// The registry is immutable after construction and safe for concurrent use.
package geo

import (
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/rng"
)

// Country describes one simulated country.
type Country struct {
	Code   string // ISO-like two-letter code
	Region string // continent-scale region
	CCTLD  string // country-code TLD used by namegen, e.g. "jp"
	Weight int    // relative share of /8 allocations
}

// Countries is the fixed allocation table. Weights roughly follow real
// regional address-space concentration (North America and Asia hold most
// of IPv4).
var Countries = []Country{
	{"us", "north-america", "com", 50},
	{"ca", "north-america", "ca", 6},
	{"mx", "north-america", "mx", 2},
	{"br", "south-america", "br", 5},
	{"ar", "south-america", "ar", 2},
	{"cl", "south-america", "cl", 1},
	{"gb", "europe", "uk", 8},
	{"de", "europe", "de", 9},
	{"fr", "europe", "fr", 7},
	{"nl", "europe", "nl", 4},
	{"it", "europe", "it", 4},
	{"es", "europe", "es", 3},
	{"se", "europe", "se", 2},
	{"pl", "europe", "pl", 3},
	{"ru", "europe", "ru", 6},
	{"jp", "asia", "jp", 14},
	{"cn", "asia", "cn", 22},
	{"kr", "asia", "kr", 8},
	{"tw", "asia", "tw", 3},
	{"in", "asia", "in", 5},
	{"id", "asia", "id", 2},
	{"vn", "asia", "vn", 2},
	{"th", "asia", "th", 1},
	{"pk", "asia", "pk", 1},
	{"au", "oceania", "au", 4},
	{"nz", "oceania", "nz", 1},
	{"za", "africa", "za", 2},
	{"eg", "africa", "eg", 1},
	{"ng", "africa", "ng", 1},
	{"cr", "north-america", "cr", 1},
}

// Registry maps IPv4 addresses to countries and autonomous systems.
type Registry struct {
	countryOf [256]int16        // /8 -> index into Countries
	asOf      []int32           // /16 -> ASN
	byCountry map[string][]byte // country code -> /8 list
}

// NewRegistry builds the registry for a master seed. The same seed always
// yields the same allocation.
func NewRegistry(seed uint64) *Registry {
	st := rng.NewSource(seed).Stream("geo")
	r := &Registry{
		asOf:      make([]int32, 1<<16),
		byCountry: make(map[string][]byte),
	}

	// Weighted country choice per /8. Blocks are assigned in runs of 1-4
	// adjacent /8s to one country, mimicking the contiguous regional
	// allocations that make /8 entropy a geographic signal.
	total := 0
	for _, c := range Countries {
		total += c.Weight
	}
	block := 0
	for block < 256 {
		pick := st.Intn(total)
		ci := 0
		for i, c := range Countries {
			if pick < c.Weight {
				ci = i
				break
			}
			pick -= c.Weight
		}
		run := 1 + st.Intn(4)
		for j := 0; j < run && block < 256; j++ {
			r.countryOf[block] = int16(ci)
			code := Countries[ci].Code
			r.byCountry[code] = append(r.byCountry[code], byte(block))
			block++
		}
	}

	// ASes: contiguous runs of /16s within a /8, geometric run lengths.
	asn := int32(1000)
	for b8 := 0; b8 < 256; b8++ {
		s16 := 0
		for s16 < 256 {
			run := 1
			for run < 64 && st.Bool(0.7) {
				run++
			}
			for j := 0; j < run && s16 < 256; j++ {
				r.asOf[b8<<8|s16] = asn
				s16++
			}
			asn++
		}
	}
	return r
}

// Country returns the country code for a.
func (r *Registry) Country(a ipaddr.Addr) string {
	return Countries[r.countryOf[a.Slash8()]].Code
}

// CountryIndex returns a's country as an index into Countries — a compact
// key for hot-path maps.
func (r *Registry) CountryIndex(a ipaddr.Addr) int {
	return int(r.countryOf[a.Slash8()])
}

// CountryCode returns the code for a Countries index.
func CountryCode(i int) string { return Countries[i].Code }

// Region returns the continent-scale region for a.
func (r *Registry) Region(a ipaddr.Addr) string {
	return Countries[r.countryOf[a.Slash8()]].Region
}

// CCTLD returns the country-code TLD used for reverse names under a's
// country (e.g. "jp"); the US uses generic "com".
func (r *Registry) CCTLD(a ipaddr.Addr) string {
	return Countries[r.countryOf[a.Slash8()]].CCTLD
}

// ASN returns the autonomous system number owning a.
func (r *Registry) ASN(a ipaddr.Addr) int {
	return int(r.asOf[a.Slash16()])
}

// RandomAddrIn draws a uniform address inside the country's allocation
// using st. It returns false if the country holds no space.
func (r *Registry) RandomAddrIn(code string, st *rng.Stream) (ipaddr.Addr, bool) {
	blocks := r.byCountry[code]
	if len(blocks) == 0 {
		return 0, false
	}
	b8 := blocks[st.Intn(len(blocks))]
	return ipaddr.Addr(uint32(b8)<<24 | uint32(st.Uint64()&0xffffff)), true
}
