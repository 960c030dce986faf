package dnsserver

import (
	"fmt"
	"io"
	"net"
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
// sensors see (§II, §IV-D).
type Recursor struct {
	// Roots are the root server addresses (host:port), tried in order.
	Roots []string
	// Client performs the individual queries.
	Client Client
	// NegTTL caches NXDomain answers (default 5 minutes).
	NegTTL simtime.Duration

	cache  *cache.Cache
	m      recursorMetrics
	tracer *trace.Tracer
}

// recursorMetrics holds the recursor's pre-resolved counters: all nil, and
// so no-ops, on an uninstrumented recursor.
type recursorMetrics struct {
	hits     *obs.Counter
	misses   *obs.Counter
	upstream [3]*obs.Counter // by dnssim.Levels index
}

// NewRecursor returns a recursor with a fresh cache, rooted at the given
// server addresses. reg, when non-nil, counts full-answer cache hits and
// misses (recursor_cache_{hits,misses}_total), upstream queries by
// hierarchy level (recursor_upstream_queries_total{level=root|national|
// final}, retransmits included — the live view of §IV-D attenuation),
// per-tier cache traffic and the client's retransmits. tr, when non-nil,
// begins a trace for every ResolvePTR whose events are the hops of the
// live referral chain; the recursor itself is the querier, so the trace's
// querier address is zero.
func NewRecursor(reg *obs.Registry, tr *trace.Tracer, roots ...string) *Recursor {
	r := &Recursor{Roots: roots, NegTTL: 5 * simtime.Minute, cache: cache.New(8192), tracer: tr}
	r.Client.Obs = reg
	r.cache.SetMetrics(reg, "recursor")
	r.m.hits = reg.Counter("recursor_cache_hits_total")
	r.m.misses = reg.Counter("recursor_cache_misses_total")
	for i, level := range dnssim.Levels {
		r.m.upstream[i] = reg.Counter("recursor_upstream_queries_total", obs.L("level", level))
	}
	return r
}

// maxChase bounds referral chains against delegation loops.
const maxChase = 8

// ResolvePTR recursively resolves the reverse name of addr at the given
// simulated instant (the recursor's caches run on simtime so tests control
// expiry). It returns the PTR target ("" for NXDomain) and a trace of the
// authorities contacted.
func (r *Recursor) ResolvePTR(addr ipaddr.Addr, now simtime.Time) (string, Trace, error) {
	var tr Trace
	tc := r.tracer.Begin(0, addr, now)
	if e, ok := r.cache.Get(cache.PTRKey(addr), now); ok {
		r.m.hits.Inc()
		tc.CacheHit(now)
		tc.Finish(now, 0)
		if e.Negative {
			return "", tr, nil
		}
		return e.Value, tr, nil
	}
	r.m.misses.Inc()

	// Deepest cached delegation wins; otherwise start at a root.
	server := ""
	level := 0 // index into dnssim.Levels
	if e, ok := r.cache.Get(cache.Zone16Key(addr), now); ok {
		server, level = e.Value, 2
	} else if e, ok := r.cache.Get(cache.Zone8Key(addr), now); ok {
		server, level = e.Value, 1
	} else {
		if len(r.Roots) == 0 {
			return "", tr, fmt.Errorf("dnsserver: recursor has no roots")
		}
		server, level = r.Roots[0], 0
	}

	for hop := 0; hop < maxChase; hop++ {
		switch level {
		case 0:
			tr.Root = true
		case 1:
			tr.National = true
		default:
			tr.Final = true
		}
		tc.Query(dnssim.Levels[level], hop+1, now)
		msg, sent, err := r.Client.queryPTR(server, addr)
		tr.Queries += sent
		r.m.upstream[level].Add(uint64(sent))
		if err != nil {
			// Unreachable authority: remember briefly, as stubs do.
			r.cache.PutNegative(cache.PTRKey(addr), r.NegTTL, now)
			tc.Fault(dnssim.Levels[level], hop+1, "unreachable", now)
			tc.GiveUp(dnssim.Levels[level], now)
			tc.Finish(now, tr.Queries)
			return "", tr, err
		}
		tc.Answer(dnssim.Levels[level], msg.Header.RCode, 0, now)
		switch {
		case len(msg.Answers) > 0 && msg.Answers[0].Type == dnswire.TypePTR:
			ttl := simtime.Duration(msg.Answers[0].TTL)
			r.cache.Put(cache.PTRKey(addr), msg.Answers[0].Target, ttl, now)
			tc.Finish(now, tr.Queries)
			return msg.Answers[0].Target, tr, nil
		case msg.Header.RCode == dnswire.RCodeNXDomain:
			r.cache.PutNegative(cache.PTRKey(addr), r.NegTTL, now)
			tc.Finish(now, tr.Queries)
			return "", tr, nil
		case msg.Header.RCode == dnswire.RCodeServFail:
			// A storming authority: remember the failure briefly (the
			// live ServFailTTL analogue) instead of chasing referrals.
			r.cache.PutNegative(cache.PTRKey(addr), r.NegTTL, now)
			tc.Fault(dnssim.Levels[level], hop+1, "servfail", now)
			tc.Finish(now, tr.Queries)
			return "", tr, fmt.Errorf("dnsserver: SERVFAIL from %s", server)
		default:
			zone, next, ttl, ok := referralTarget(msg)
			if !ok {
				return "", tr, fmt.Errorf("dnsserver: lame response from %s", server)
			}
			// Zone depth tells the cache tier: "1.in-addr.arpa" has 3
			// labels (a /8 zone), "2.1.in-addr.arpa" has 4 (a /16 zone).
			if labelCount(zone) >= 4 {
				r.cache.Put(cache.Zone16Key(addr), next.String(), ttl, now)
				level = 2
			} else {
				r.cache.Put(cache.Zone8Key(addr), next.String(), ttl, now)
				level = 1
			}
			server = next.String()
		}
	}
	tc.GiveUp(dnssim.Levels[level], now)
	tc.Finish(now, tr.Queries)
	return "", tr, fmt.Errorf("dnsserver: referral chain exceeded %d hops", maxChase)
}

func labelCount(name string) int {
	if name == "" {
		return 0
	}
	n := 1
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			n++
		}
	}
	return n
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
