package backscatter

import (
	"dnsbackscatter/internal/dnsserver"
	"dnsbackscatter/internal/dnssim"
)

// Live deployment surface: run the paper's collection architecture over
// real UDP sockets — authoritative reverse-DNS servers at any level of the
// hierarchy, stub clients with retransmit behavior, and a caching
// recursive resolver. See cmd/bsserve and examples/livehierarchy.
type (
	// OriginatorProfile is the reverse-DNS posture of one originator:
	// PTR name and TTL, NXDomain, or an unreachable final authority.
	OriginatorProfile = dnssim.OriginatorProfile
	// AuthorityServer is a UDP authoritative server with a sensor sink.
	AuthorityServer = dnsserver.Server
	// AuthoritySink receives observed records in batches of at most 64,
	// all of them by the server's Flush or Close; it must not keep the slice.
	AuthoritySink = dnsserver.Sink
	// Recursor is a caching recursive resolver walking a live hierarchy.
	Recursor = dnsserver.Recursor
	// Delegation names the authoritative server for a child reverse zone.
	Delegation = dnsserver.Delegation
)

// ListenFinalAuthority starts a UDP final authority answering PTR queries
// from profile (nil = a deterministic synthetic zone). sink (nil = none)
// observes the backscatter of whatever activity drives lookups at it,
// from the first query on.
func ListenFinalAuthority(addr, sensorName string, profile func(Addr) OriginatorProfile, sink AuthoritySink) (*AuthorityServer, error) {
	return dnsserver.Listen(addr, dnsserver.Config{Authority: sensorName, Handler: dnsserver.FinalHandler(profile), Sink: sink})
}

// ListenReferralAuthority starts a UDP referral server (a root or national
// registry): pick returns the delegation covering each queried originator,
// or false for undelegated space (answered NXDomain). sink is as for
// ListenFinalAuthority.
func ListenReferralAuthority(addr, sensorName string, pick func(Addr) (Delegation, bool), sink AuthoritySink) (*AuthorityServer, error) {
	return dnsserver.Listen(addr, dnsserver.Config{Authority: sensorName, Handler: dnsserver.ReferralHandler(pick), Sink: sink})
}

// NewRecursor returns a caching recursive resolver rooted at the given
// server addresses.
func NewRecursor(roots ...string) *Recursor { return dnsserver.NewRecursor(nil, nil, roots...) }
