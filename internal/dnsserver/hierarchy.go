package dnsserver

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"dnsbackscatter/internal/cache"
	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/dnswire"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/trace"
)

// This file implements the delegation side of Figure 1 over real sockets:
// referral servers for the upper reverse tree (the root / in-addr.arpa
// apex and the /8 national registries) and a caching recursive resolver
// that walks them. Together with the final-authority handler they form a
// complete live reverse-DNS hierarchy whose sensors observe backscatter
// with exactly the cache attenuation the simulator models.
//
// Glue: real delegations carry A records and servers live on port 53; the
// test hierarchy binds ephemeral loopback ports, so each referral also
// carries an SRV record holding the delegated server's port.

// Delegation names the authoritative server for a child zone.
type Delegation struct {
	Zone string       // e.g. "1.in-addr.arpa" or "2.1.in-addr.arpa"
	NS   string       // nameserver hostname, e.g. "ns.registry-1.example"
	Addr *net.UDPAddr // where that server actually listens
	TTL  simtime.Duration
}

// PickFunc chooses the delegation covering an originator address, or
// reports that this server has none (lame delegation).
type PickFunc func(ipaddr.Addr) (Delegation, bool)

// ReferralHandler answers reverse queries with a referral toward the
// originator's zone, recording each query at the sensor — the behavior of
// the root and national authorities the paper instruments.
func ReferralHandler(pick PickFunc) Handler {
	return func(q *dnswire.Message, peer *net.UDPAddr) (*dnswire.Message, *dnslog.Record, bool) {
		orig, formErr := reverseOrig(q)
		if formErr != nil {
			return formErr, nil, true
		}
		rec := &dnslog.Record{Originator: orig}
		del, ok := pick(orig)
		if !ok {
			rec.RCode = dnswire.RCodeNXDomain
			resp := dnswire.NewResponse(q, dnswire.RCodeNXDomain)
			resp.Header.AA = true
			return resp, rec, true
		}
		resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
		resp.Authority = append(resp.Authority, dnswire.RR{
			Name:   del.Zone,
			Type:   dnswire.TypeNS,
			Class:  dnswire.ClassIN,
			TTL:    uint32(del.TTL),
			Target: del.NS,
		})
		ip4 := del.Addr.IP.To4()
		if ip4 == nil {
			ip4 = net.IPv4(127, 0, 0, 1).To4()
		}
		resp.Additional = append(resp.Additional,
			dnswire.RR{
				Name:  del.NS,
				Type:  dnswire.TypeA,
				Class: dnswire.ClassIN,
				TTL:   uint32(del.TTL),
				RData: []byte{ip4[0], ip4[1], ip4[2], ip4[3]},
			},
			dnswire.RR{
				Name:  del.NS,
				Type:  dnswire.TypeSRV,
				Class: dnswire.ClassIN,
				TTL:   uint32(del.TTL),
				// priority, weight, port — target carried by the A record.
				RData: []byte{0, 0, 0, 0, byte(del.Addr.Port >> 8), byte(del.Addr.Port)},
			},
		)
		return resp, rec, true
	}
}

// referralTarget extracts the delegated server address from a referral
// response's additional section.
func referralTarget(m *dnswire.Message) (zone string, addr *net.UDPAddr, ttl simtime.Duration, ok bool) {
	var ns string
	for _, rr := range m.Authority {
		if rr.Type == dnswire.TypeNS {
			zone, ns, ttl = rr.Name, rr.Target, simtime.Duration(rr.TTL)
			break
		}
	}
	if ns == "" {
		return "", nil, 0, false
	}
	var ip net.IP
	port := 53
	for _, rr := range m.Additional {
		if rr.Name != ns {
			continue
		}
		switch rr.Type {
		case dnswire.TypeA:
			if len(rr.RData) == 4 {
				ip = net.IPv4(rr.RData[0], rr.RData[1], rr.RData[2], rr.RData[3])
			}
		case dnswire.TypeSRV:
			if len(rr.RData) >= 6 {
				port = int(rr.RData[4])<<8 | int(rr.RData[5])
			}
		}
	}
	if ip == nil {
		return "", nil, 0, false
	}
	return zone, &net.UDPAddr{IP: ip, Port: port}, ttl, true
}

// Trace records which authorities one recursive resolution contacted.
type Trace struct {
	Root     bool
	National bool
	Final    bool
	Queries  int // datagrams sent, retransmits included
}

// Recursor is a caching recursive resolver walking the live hierarchy —
// the querier-side machinery whose caches attenuate what upper-level
// sensors see (§II, §IV-D). Where it starts and what it caches come from
// the simulated walk's decision table (dnssim.StartLevel and the rest).
type Recursor struct {
	// Roots are the root server addresses (host:port); a walk asks the
	// first.
	Roots []string
	// Client performs the individual queries.
	Client Client

	cache  *cache.Table[string] // owner 0 is this recursor
	m      dnssim.Metrics
	tracer *trace.Tracer
}

// servFailTTL is how long a give-up holds: the simulator's, so both walks
// rate-limit a failing name alike.
const servFailTTL = dnssim.ServFailTTL

// NewRecursor returns a recursor with a fresh cache, rooted at the given
// server addresses. reg, when non-nil, counts lookups, full-answer cache
// hits and upstream queries by level, retransmits included, under the
// simulated walk's names (dnssim_resolves_total, dnssim_cached_total,
// dnssim_queries_total{level=root|national|final}: the live view of
// §IV-D attenuation), plus per-tier cache traffic and the client's
// retransmits. tr, when non-nil, begins a trace for every ResolvePTR whose
// events are the hops of the live referral chain; the recursor itself is
// the querier, so the trace's querier address is zero.
func NewRecursor(reg *obs.Registry, tr *trace.Tracer, roots ...string) *Recursor {
	r := &Recursor{Roots: roots, cache: cache.NewTable[string](8192), m: dnssim.NewMetrics(reg), tracer: tr}
	r.Client.Obs = reg
	r.cache.SetMetrics(reg, "recursor")
	return r
}

// maxChase bounds referral chains against delegation loops.
const maxChase = 8

// ResolvePTR recursively resolves the reverse name of addr at the given
// simulated instant (the recursor's caches run on simtime so tests control
// expiry). It returns the PTR target ("" for NXDomain) and a trace of the
// authorities contacted. Every failure is a give-up, negative-cached like
// the simulated walk's.
func (r *Recursor) ResolvePTR(addr ipaddr.Addr, now simtime.Time) (string, Trace, error) {
	var tr Trace
	tc := r.tracer.Begin(0, addr, now)
	target, level, err := r.walk(addr, now, tc, &tr)
	if err != nil {
		r.store(dnssim.GiveUp(addr, servFailTTL, now), "")
		tc.GiveUp(dnssim.Levels[level], now)
	}
	tc.Finish(now, tr.Queries)
	return target, tr, err
}

// walk is ResolvePTR's resolution; it returns the level it ended at.
func (r *Recursor) walk(addr ipaddr.Addr, now simtime.Time, tc *trace.Ctx, tr *Trace) (string, int, error) {
	if target, _, ok := r.cache.Get(0, cache.PTRKey(addr), now); ok {
		r.m.Resolve(true, now)
		tc.CacheHit(now)
		return target, 0, nil
	}
	r.m.Resolve(false, now)
	z16, _, have16 := r.cache.Get(0, cache.Zone16Key(addr), now)
	z8, _, have8 := r.cache.Get(0, cache.Zone8Key(addr), now)
	level := dnssim.StartLevel(have8, have16)
	server := z16
	switch {
	case level == 1:
		server = z8
	case level == 0 && len(r.Roots) == 0:
		return "", level, errors.New("dnsserver: recursor has no roots")
	case level == 0:
		server = r.Roots[0]
	}

	for hop := 1; hop <= maxChase; hop++ {
		lv := dnssim.Levels[level]
		switch level {
		case 0:
			tr.Root = true
		case 1:
			tr.National = true
		default:
			tr.Final = true
		}
		tc.Query(lv, hop, now)
		msg, sent, err := r.Client.queryPTR(server, addr)
		tr.Queries += sent
		r.m.Queries(level, uint64(sent), false, now)
		if err != nil {
			tc.Fault(lv, hop, "unreachable", now)
			return "", level, err
		}
		tc.Answer(lv, msg.Header.RCode, 0, now)
		switch {
		case len(msg.Answers) > 0 && msg.Answers[0].Type == dnswire.TypePTR:
			a := msg.Answers[0]
			r.store(dnssim.Answer(addr, true, simtime.Duration(a.TTL), now), a.Target)
			return a.Target, level, nil
		case msg.Header.RCode == dnswire.RCodeNXDomain:
			r.store(dnssim.Answer(addr, false, negativeTTL(msg), now), "")
			return "", level, nil
		case msg.Header.RCode == dnswire.RCodeServFail:
			tc.Fault(lv, hop, "servfail", now)
			return "", level, fmt.Errorf("dnsserver: SERVFAIL from %s", server)
		}
		zone, next, ttl, ok := referralTarget(msg)
		if !ok {
			return "", level, fmt.Errorf("dnsserver: lame response from %s", server)
		}
		// Zone depth names the level referred to: "1.in-addr.arpa" (a /8
		// zone) has two dots, "2.1.in-addr.arpa" (a /16 zone) three.
		level = 1
		if strings.Count(zone, ".") >= 3 {
			level = 2
		}
		server = next.String()
		r.store(dnssim.Referral(addr, level, ttl, now), server)
	}
	return "", level, fmt.Errorf("dnsserver: referral chain exceeded %d hops", maxChase)
}

// store applies one of the walk's cache writes; value is what a positive
// entry answers with.
func (r *Recursor) store(w dnssim.Write, value string) {
	if w.Negative {
		r.cache.PutNegative(0, w.Key, w.TTL, w.At)
	} else {
		r.cache.Put(0, w.Key, value, w.TTL, w.At)
	}
}

// negativeTTL is how long an NXDOMAIN holds: the TTL of the SOA record it
// carries (RFC 2308 §5), or a give-up's when it carries none.
func negativeTTL(m *dnswire.Message) simtime.Duration {
	for _, rr := range m.Authority {
		if rr.Type == dnswire.TypeSOA {
			return simtime.Duration(rr.TTL)
		}
	}
	return servFailTTL
}

// queryPTR sends one PTR query and returns the parsed response message.
// Retries back off with a capped exponential per-attempt timeout
// (timeout, 2×, 4×, capped at 4×) — the policy lossy paths need so a
// burst of drops doesn't hammer the authority at a fixed cadence. A
// truncated (TC) answer is re-asked over TCP on the same server address;
// if the TCP leg fails, the truncated UDP header is still returned so
// callers can use the rcode.
func (c *Client) queryPTR(serverAddr string, addr ipaddr.Addr) (*dnswire.Message, int, error) {
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 500 * time.Millisecond
	}
	retries := c.Retries
	if retries < 0 {
		retries = 0
	}
	conn, err := net.Dial("udp", serverAddr)
	if err != nil {
		return nil, 0, err
	}
	defer conn.Close()

	id := nextQueryID(c)
	qm := dnswire.AcquireMessage()
	qm.SetPTRQuery(id, addr.ReverseName())
	query, err := qm.Encode(nil)
	dnswire.ReleaseMessage(qm)
	if err != nil {
		return nil, 0, err
	}
	buf := make([]byte, 4096)
	sent := 0
	var msg dnswire.Message
	attemptTimeout := timeout
	maxTimeout := 4 * timeout
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			attemptTimeout *= 2
			if attemptTimeout > maxTimeout {
				attemptTimeout = maxTimeout
			}
		}
		if _, err := conn.Write(query); err != nil {
			return nil, sent, err
		}
		sent++
		c.Obs.Counter("dnsclient_queries_total").Inc()
		if attempt > 0 {
			c.Obs.Counter("dnsclient_retransmits_total").Inc()
			c.Obs.Counter("resolver_retries_total").Inc()
		}
		deadline := simtime.WallDeadline(attemptTimeout)
		for {
			if err := conn.SetReadDeadline(deadline); err != nil {
				return nil, sent, err
			}
			n, err := conn.Read(buf)
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					break
				}
				return nil, sent, err
			}
			if err := dnswire.DecodeInto(buf[:n], &msg); err != nil {
				continue
			}
			if !msg.Header.QR || msg.Header.ID != id {
				continue
			}
			out := msg // copy header/slices for the caller
			if out.Header.TC {
				// Truncated answer: re-ask over TCP for the full
				// response (RFC 1035 §4.2.2).
				c.Obs.Counter("dnsclient_tcp_fallbacks_total").Inc()
				c.Obs.Counter("resolver_tcp_fallbacks_total").Inc()
				if full, terr := c.queryPTRTCP(serverAddr, query, id, timeout); terr == nil {
					sent++
					return full, sent, nil
				}
			}
			return &out, sent, nil
		}
	}
	c.Obs.Counter("resolver_gaveup_total").Inc()
	return nil, sent, ErrTimeout
}

// queryPTRTCP re-asks one already-encoded query over TCP with two-byte
// length framing and returns the parsed response.
func (c *Client) queryPTRTCP(serverAddr string, query []byte, id uint16, timeout time.Duration) (*dnswire.Message, error) {
	conn, err := net.DialTimeout("tcp", serverAddr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(simtime.WallDeadline(timeout)); err != nil {
		return nil, err
	}
	frame := make([]byte, 2, 2+len(query))
	frame[0], frame[1] = byte(len(query)>>8), byte(len(query))
	frame = append(frame, query...)
	if _, err := conn.Write(frame); err != nil {
		return nil, err
	}
	hdr := make([]byte, 2)
	if _, err := io.ReadFull(conn, hdr); err != nil {
		return nil, err
	}
	body := make([]byte, int(hdr[0])<<8|int(hdr[1]))
	if _, err := io.ReadFull(conn, body); err != nil {
		return nil, err
	}
	var msg dnswire.Message
	if err := dnswire.DecodeInto(body, &msg); err != nil {
		return nil, err
	}
	if !msg.Header.QR || msg.Header.ID != id {
		return nil, fmt.Errorf("dnsserver: TCP response ID mismatch")
	}
	return &msg, nil
}
