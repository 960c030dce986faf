// Package dnsserver implements the operational end of backscatter
// collection: an authoritative UDP DNS server for reverse (in-addr.arpa)
// zones whose query stream is the sensor input (§III-A — "queries may be
// obtained through packet capture on the network or through logging in the
// DNS server itself"), plus the PTR lookup client queriers use.
//
// The server answers from an OriginatorProfile source — the same interface
// the simulator uses — so a synthetic world can be served over real
// sockets and collected exactly as a production deployment would be.
package dnsserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/dnswire"
	"dnsbackscatter/internal/faults"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/trace"
)

// Sink receives observed reverse queries' records in batches: at most
// maxBatch of one serve loop, in its arrival order, at most batchWait
// after the batch's first record, all of them by Flush or Close (a TCP
// query is a batch of one). Calls never overlap. The sink must not
// retain the slice.
type Sink func([]dnslog.Record)

// A loop stops serving while its sink runs, so a batch's sink cost is a
// stall every query queued behind it waits out: 256 records (≈ 300 µs in
// bsserve) raised live-serve's p99 by 15 %, 64 keep it at the parent's.
const (
	maxBatch  = 64                    // records a serve loop hands the sink at once
	batchWait = 10 * time.Millisecond // longest a record waits in a loop's batch
)

// Handler answers one parsed query from peer by filling resp, the calling
// loop's response message; answer == false means stay silent (an
// unreachable authority). rec, when logged, is the sensor observation: the
// handler sets its Originator and RCode, the server stamps Time, Querier
// and Authority and delivers it to the sink. Every serve loop calls the
// handler, concurrently, each with its own resp.
type Handler func(q *dnswire.Message, peer netip.AddrPort, resp *dnswire.Message) (rec dnslog.Record, logged, answer bool)

// Config is everything a Server is wired to. It is fixed before the serve
// goroutines start, so the first datagram already sees all of it.
type Config struct {
	// Authority names the sensor in emitted records and metric labels.
	Authority string
	// Handler answers queries: FinalHandler for a zone's own authority,
	// ReferralHandler for the root and national registries. Nil is
	// FinalHandler(nil), the default synthetic zone.
	Handler Handler
	// Sink, when non-nil, is the observation tap.
	Sink Sink
	// Clock is the record-timestamp source. Nil is simtime.Wall, what live
	// deployments want; simulations inject their explicit clock so served
	// traffic is timestamped in simulated seconds and replays are
	// deterministic.
	Clock func() simtime.Time
	// Obs, when non-nil, counts well-formed queries, dropped datagrams,
	// silent (unreachable-authority) handlings, TCP queries and responses
	// by rcode, all labeled with Authority, plus the fault plan's
	// injections.
	Obs *obs.Registry
	// Tracer, when non-nil, begins a trace for every well-formed query
	// (subject to its head sampling) carrying the peer querier, the
	// queried originator, any server-side injected faults, the sensor
	// record, and the serve outcome. Timestamps come from Clock.
	Tracer *trace.Tracer
	// Faults, when non-nil, is a deterministic fault plan on the UDP
	// serving path: dead epochs and dropped datagrams answer with silence,
	// SERVFAIL faults replace the response, truncation faults set TC and
	// strip the record sections so clients must re-ask over TCP. The TCP
	// path is never faulted — it is the recovery transport.
	Faults *faults.Plan
}

// Server is an authoritative reverse-DNS server over UDP, with a TCP
// listener on the same port for truncation fallback (RFC 1035 §4.2.2
// two-byte length framing), and a UDP serve group (see bind).
type Server struct {
	loops []*loop          // the serve group
	tcp   net.Listener     // nil when the TCP port was unavailable
	cfg   Config           // read-only once Listen returns
	auth  dnslog.Authority // cfg.Authority, as records carry it
	m     serverMetrics

	mu       sync.Mutex            // serializes cfg.Sink calls; guards tcpConns
	tcpConns map[net.Conn]struct{} // guarded by mu
	flushMu  sync.Mutex            // one Flush at a time

	queries uint64 // atomic
	dropped uint64 // atomic: unparseable or non-DNS datagrams

	closed chan struct{}
	done   sync.WaitGroup
}

// loop is one socket of the serve group; only its goroutine touches
// batch and reads.
type loop struct {
	conn     *net.UDPConn
	batch    []dnslog.Record // answered, not yet handed to the sink
	reads    int             // datagrams read; tests look after Close
	flushReq atomic.Bool     // a Flush is waiting on this loop
	flushed  chan struct{}   // answers flushReq; closed after the final flush
}

// Listen binds a server to addr (e.g. "127.0.0.1:0"), wires it to cfg, and
// only then starts serving: no query is answered by a half-configured
// server.
func Listen(addr string, cfg Config) (*Server, error) {
	auth, err := dnslog.AuthorityOf(cfg.Authority)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: %w", err)
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: %w", err)
	}
	conns, err := bind(ua, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, fmt.Errorf("dnsserver: %w", err)
	}
	if cfg.Handler == nil {
		cfg.Handler = FinalHandler(nil)
	}
	if cfg.Clock == nil {
		cfg.Clock = simtime.Wall
	}
	if cfg.Obs != nil {
		cfg.Faults.SetMetrics(cfg.Obs) // guarded: servers may share one plan
	}
	s := &Server{
		cfg:      cfg,
		auth:     auth,
		m:        newServerMetrics(cfg.Obs, cfg.Authority),
		tcpConns: make(map[net.Conn]struct{}),
		closed:   make(chan struct{}),
	}
	// TCP rides the same port for TC fallback. Best effort: a server
	// whose TCP port is taken still works for every untruncated answer.
	if ln, lerr := net.Listen("tcp", conns[0].LocalAddr().String()); lerr == nil {
		s.tcp = ln
		s.done.Add(1)
		go s.serveTCP()
	}
	for _, c := range conns {
		l := &loop{conn: c, batch: make([]dnslog.Record, 0, maxBatch), flushed: make(chan struct{}, 1)}
		s.loops = append(s.loops, l)
		s.done.Add(1)
		go s.serve(l) //nolint:concurrency — one loop per socket of the serve group, GOMAXPROCS of them, reaped on Close
	}
	return s, nil
}

// bind opens the serve group on ua: n UDP sockets on one port with
// SO_REUSEPORT, or one where the option is unavailable. The first binds
// without it, so it fails on a port anything holds (instead of joining a
// same-UID group there) and, for port 0, picks a port no such group holds;
// the kernel lets the others join it once it has the option.
func bind(ua *net.UDPAddr, n int) ([]*net.UDPConn, error) {
	first, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	conns := []*net.UDPConn{first}
	if raw, err := first.SyscallConn(); n == 1 || err != nil || reusePort("", "", raw) != nil {
		return conns, nil
	}
	lc := net.ListenConfig{Control: reusePort}
	for len(conns) < n {
		pc, err := lc.ListenPacket(context.Background(), "udp", first.LocalAddr().String())
		if err != nil {
			for _, c := range conns {
				_ = c.Close()
			}
			return nil, err
		}
		conns = append(conns, pc.(*net.UDPConn))
	}
	return conns, nil
}

// reusePort sets SO_REUSEPORT, 0xf on Linux, which package
// syscall does not name. Elsewhere it fails, and the group is one socket.
func reusePort(_, _ string, c syscall.RawConn) (err error) {
	if runtime.GOOS != "linux" {
		return errors.ErrUnsupported
	}
	if cerr := c.Control(func(fd uintptr) { err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, 0xf, 1) }); cerr != nil {
		return cerr
	}
	return err
}

// Addr returns the bound address.
func (s *Server) Addr() *net.UDPAddr { return s.loops[0].conn.LocalAddr().(*net.UDPAddr) }

// serverMetrics holds the server's pre-resolved counters: all nil, and so
// no-ops, on an uninstrumented server. The rcode family is filled on first
// use (the UDP and TCP serving goroutines both respond), so only response
// codes actually sent appear in snapshots.
type serverMetrics struct {
	reg       *obs.Registry
	authority string
	queries   *obs.Counter
	dropped   *obs.Counter
	silent    *obs.Counter
	tcp       *obs.Counter
	responses [16]atomic.Pointer[obs.Counter] // indexed by rcode
}

func newServerMetrics(reg *obs.Registry, authority string) serverMetrics {
	la := obs.L("authority", authority)
	return serverMetrics{
		reg:       reg,
		authority: authority,
		queries:   reg.Counter("dnsserver_queries_total", la),
		dropped:   reg.Counter("dnsserver_dropped_total", la),
		silent:    reg.Counter("dnsserver_silent_total", la),
		tcp:       reg.Counter("dnsserver_tcp_queries_total", la),
	}
}

// rcode returns the response counter for one 4-bit rcode.
func (m *serverMetrics) rcode(rc uint8) *obs.Counter {
	if m.reg == nil {
		return nil
	}
	p := &m.responses[rc&0xf]
	c := p.Load()
	if c == nil {
		// The registry hands every caller the same counter for one name
		// and label set, so a racing first use stores the same pointer.
		c = m.reg.Counter("dnsserver_responses_total",
			obs.L("authority", m.authority), obs.L("rcode", strconv.Itoa(int(rc&0xf))))
		p.Store(c)
	}
	return c
}

// Queries returns how many well-formed DNS queries arrived.
func (s *Server) Queries() uint64 { return atomic.LoadUint64(&s.queries) }

// Dropped returns how many datagrams failed to parse.
func (s *Server) Dropped() uint64 { return atomic.LoadUint64(&s.dropped) }

// Close stops the server and waits for every serve loop's final flush.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	var err error
	for _, l := range s.loops {
		err = errors.Join(err, l.conn.Close())
	}
	if s.tcp != nil {
		if terr := s.tcp.Close(); err == nil {
			err = terr
		}
	}
	s.mu.Lock()
	for c := range s.tcpConns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.done.Wait()
	return err
}

// Flush returns once every record answered so far has reached the sink
// (call it from anywhere but the sink): it moves each loop's read
// deadline to now and waits for that loop to hand over its batch.
func (s *Server) Flush() {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	for _, l := range s.loops {
		l.flushReq.Store(true)
		_ = l.conn.SetReadDeadline(simtime.WallDeadline(0))
		<-l.flushed
	}
}

// scratch is what one serve loop or TCP connection reuses from query to
// query: the decoded query, the handler's response and the encoder.
type scratch struct {
	msg, resp dnswire.Message
	enc       dnswire.Encoder
}

// serve is one loop of the serve group, handling inline. A record joins
// the batch before its reply is written; the batch goes to the sink at
// maxBatch records, at the read deadline batchWait after its first
// record, on Flush (which moves that deadline to now) and on Close.
func (s *Server) serve(l *loop) {
	defer s.done.Done()
	defer close(l.flushed)
	defer s.flush(l)
	buf := make([]byte, 4096)
	out := make([]byte, 0, 512)
	sc := new(scratch)
	for {
		n, peer, err := l.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				s.flush(l)
				continue
			}
			return // closed, or a socket error (ROADMAP: "A live sensor that classifies, fails loud and resumes")
		}
		l.reads++
		rec, logged, reply := s.exchange(buf[:n], peer, false, sc, out[:0])
		if logged && s.cfg.Sink != nil {
			if l.batch = append(l.batch, rec); len(l.batch) == 1 {
				_ = l.conn.SetReadDeadline(simtime.WallDeadline(batchWait))
			}
		}
		if reply != nil {
			out = reply // keep the grown buffer
			_, _ = l.conn.WriteToUDPAddrPort(out, peer)
		}
		if len(l.batch) == maxBatch {
			s.flush(l)
		}
	}
}

// flush hands l's batch to the sink, clears the batch deadline, and then
// answers a waiting Flush: one that asks after this check moves the
// deadline itself, after the clear. Only l's goroutine calls it.
func (s *Server) flush(l *loop) {
	if len(l.batch) > 0 {
		s.deliver(l.batch)
		l.batch = l.batch[:0]
	}
	_ = l.conn.SetReadDeadline(time.Time{})
	if l.flushReq.Swap(false) {
		l.flushed <- struct{}{}
	}
}

// deliver hands one batch to the sink under the server mutex.
func (s *Server) deliver(recs []dnslog.Record) {
	s.mu.Lock()
	s.cfg.Sink(recs)
	s.mu.Unlock()
}

// exchange takes one received message through the server — tally, fault
// plan, handler, sensor record, trace — and returns the sensor record
// (logged false when the query leaves none) and the response appended to
// out, or nil when nothing is to be sent: a malformed message, an
// unreachable authority, a query the plan made vanish. It reads the
// server's wiring without a lock; sc is the calling loop's.
func (s *Server) exchange(wire []byte, peer netip.AddrPort, tcp bool, sc *scratch, out []byte) (rec dnslog.Record, logged bool, reply []byte) {
	m, tr, fp, msg, resp := &s.m, s.cfg.Tracer, s.cfg.Faults, &sc.msg, &sc.resp
	if err := dnswire.DecodeInto(wire, msg); err != nil || msg.Header.QR || len(msg.Questions) != 1 {
		atomic.AddUint64(&s.dropped, 1)
		m.dropped.Inc()
		return rec, false, nil
	}
	atomic.AddUint64(&s.queries, 1)
	m.queries.Inc()
	if tcp {
		m.tcp.Inc()
		fp = nil // TCP is the recovery transport: never faulted
	}

	// One clock read covers faults and tracing for this query (the
	// sensor record keeps its own read).
	var qnow simtime.Time
	if fp != nil || tr != nil {
		qnow = s.cfg.Clock()
	}
	var tc *trace.Ctx
	if tr != nil {
		orig, _ := ipaddr.FromReverseName(msg.Questions[0].Name) // 0 off in-addr.arpa
		tc = tr.Begin(peerQuerier(peer), orig, qnow)
		if tcp {
			tc.TCP("server", 1, qnow)
		}
	}
	// Fault pre-checks: a dead epoch or lost datagram means this
	// query effectively never arrived — no record, no answer.
	var fsub, fpeer uint64
	if fp != nil {
		// The peer's key hashes its ip:port text, IPv4 in dotted quads.
		var text [64]byte
		fsub = faults.KeyString(msg.Questions[0].Name)
		fpeer = faults.KeyString(netip.AddrPortFrom(peer.Addr().Unmap(), peer.Port()).AppendTo(text[:0]))
		lost := ""
		if fp.IsDead(0, fsub, qnow) {
			lost = "dead"
		} else if fp.Drop(0, fpeer, fsub, qnow, 0) {
			lost = "loss"
		}
		if lost != "" {
			m.silent.Inc()
			tc.Fault("server", 1, lost, qnow)
			tc.Finish(qnow, 1)
			return rec, false, nil
		}
	}
	rec, logged, answer := s.cfg.Handler(msg, peer, resp)
	if fp != nil && answer {
		if fp.ServFails(0, fsub, qnow, 0) {
			tc.Fault("server", 1, "servfail", qnow)
			resp.SetResponse(msg, dnswire.RCodeServFail)
			rec.RCode = dnswire.RCodeServFail
		} else if fp.TruncateAnswer(0, fpeer, fsub, qnow) {
			// TC over UDP: keep the header and question, drop the
			// records, and let the client re-ask over TCP.
			tc.Fault("server", 1, "truncate", qnow)
			resp.Header.TC = true
			resp.Answers, resp.Authority, resp.Additional = resp.Answers[:0], resp.Authority[:0], resp.Additional[:0]
		}
	}
	if logged {
		rec.Time, rec.Querier, rec.Authority = s.cfg.Clock(), peerQuerier(peer), s.auth
		tc.Sensor(s.cfg.Authority, rec.Originator, rec.Querier, rec.RCode, rec.Time)
	}
	if !answer {
		m.silent.Inc()
		tc.Serve(s.cfg.Authority, "silent", qnow)
		tc.Finish(qnow, 1)
		return rec, logged, nil // unreachable-authority simulation: stay silent
	}
	out, err := sc.enc.Encode(resp, out)
	if err != nil {
		return rec, logged, nil
	}
	m.rcode(resp.Header.RCode).Inc()
	tc.Serve(s.cfg.Authority, trace.RCodeName(resp.Header.RCode), qnow)
	tc.Finish(qnow, 1)
	return rec, logged, out
}

// peerQuerier extracts the querier's IPv4 address from a peer, IPv4 or
// IPv4-mapped IPv6 (0 for other IPv6 peers).
func peerQuerier(peer netip.AddrPort) ipaddr.Addr {
	if a := peer.Addr().Unmap(); a.Is4() {
		o := a.As4()
		return ipaddr.FromOctets(o[0], o[1], o[2], o[3])
	}
	return 0
}

// serveTCP accepts truncation-fallback connections. Each connection gets
// its own goroutine; the handler path is shared with UDP but never
// faulted — TCP is the recovery transport.
func (s *Server) serveTCP() {
	defer s.done.Done()
	for {
		conn, err := s.tcp.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
		s.mu.Lock()
		s.tcpConns[conn] = struct{}{}
		s.mu.Unlock()
		s.done.Add(1)
		go s.serveTCPConn(conn) //nolint:concurrency — goroutine per accepted connection, tracked in done/tcpConns and reaped on Close
	}
}

// serveTCPConn handles one framed-query stream until EOF or error.
func (s *Server) serveTCPConn(conn net.Conn) {
	defer s.done.Done()
	defer func() {
		s.mu.Lock()
		delete(s.tcpConns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	peer := netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), 0)
	if ta, ok := conn.RemoteAddr().(*net.TCPAddr); ok {
		peer = ta.AddrPort()
	}
	hdr := make([]byte, 2)
	buf := make([]byte, 0, 512)
	out := make([]byte, 0, 512)
	body := make([]byte, 0, 512)
	one := make([]dnslog.Record, 1) // a TCP query's batch
	sc := new(scratch)
	for {
		if err := conn.SetReadDeadline(simtime.WallDeadline(5 * time.Second)); err != nil {
			return
		}
		if _, err := io.ReadFull(conn, hdr); err != nil {
			return
		}
		n := int(hdr[0])<<8 | int(hdr[1])
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(conn, buf); err != nil {
			return
		}
		// Encode standalone, then frame: name-compression offsets are
		// absolute buffer positions, so the body must start at offset 0.
		rec, logged, reply := s.exchange(buf, peer, true, sc, body[:0])
		if logged && s.cfg.Sink != nil {
			one[0] = rec
			s.deliver(one)
		}
		if body = reply; body == nil {
			return
		}
		out = append(out[:0], byte(len(body)>>8), byte(len(body)))
		out = append(out, body...)
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// reverseOrig parses the originator out of a reverse PTR query; when q is
// anything else it sets resp to the FORMERR response to send instead.
func reverseOrig(q, resp *dnswire.Message) (ipaddr.Addr, bool) {
	if dnswire.IsReversePTRQuery(q) {
		if orig, err := ipaddr.FromReverseName(q.Questions[0].Name); err == nil {
			return orig, true
		}
	}
	resp.SetResponse(q, dnswire.RCodeFormErr)
	return 0, false
}

// FinalHandler answers PTR queries authoritatively from profile (nil uses
// dnssim.DefaultProfile) and records every reverse query.
func FinalHandler(profile dnssim.ProfileFunc) Handler {
	if profile == nil {
		profile = dnssim.DefaultProfile
	}
	return func(q *dnswire.Message, _ netip.AddrPort, resp *dnswire.Message) (dnslog.Record, bool, bool) {
		orig, ok := reverseOrig(q, resp)
		if !ok {
			return dnslog.Record{}, false, true
		}
		p := profile(orig)
		rec := dnslog.Record{Originator: orig}
		switch {
		case p.FinalUnreachable:
			return rec, true, false
		case p.HasName:
			resp.SetResponse(q, dnswire.RCodeNoError)
			resp.Header.AA = true
			resp.AddAnswer(dnswire.RR{
				Name:   q.Questions[0].Name,
				Type:   dnswire.TypePTR,
				Class:  dnswire.ClassIN,
				TTL:    uint32(p.TTL),
				Target: p.Name,
			})
		default:
			rec.RCode = dnswire.RCodeNXDomain
			resp.SetResponse(q, dnswire.RCodeNXDomain)
			resp.Header.AA = true
			addSOA(resp, q.Questions[0].Name, p.NegTTL)
		}
		return rec, true, true
	}
}

// addSOA appends the SOA record an NXDOMAIN carries (RFC 2308 §3): owned
// by the /16 zone (qname less two labels), naming the root as server and
// mailbox, with negTTL as both TTL and MINIMUM. Its rdata reuses the
// buffer the loop's previous SOA left in resp's first authority slot.
func addSOA(resp *dnswire.Message, qname string, negTTL simtime.Duration) {
	var rdata []byte
	if cap(resp.Authority) > 0 {
		rdata = resp.Authority[:1][0].RData[:0]
	}
	// MNAME, RNAME, SERIAL, REFRESH, RETRY, EXPIRE, then MINIMUM.
	rdata = binary.BigEndian.AppendUint32(append(rdata, make([]byte, 18)...), uint32(negTTL))
	zone := qname[strings.IndexByte(qname, '.')+1:]
	resp.Authority = append(resp.Authority, dnswire.RR{Name: zone[strings.IndexByte(zone, '.')+1:], Type: dnswire.TypeSOA,
		Class: dnswire.ClassIN, TTL: uint32(negTTL), RData: rdata})
}

// Client performs PTR lookups against a server, with the retransmit
// behavior real stub resolvers have.
type Client struct {
	// Timeout per attempt (default 500 ms).
	Timeout time.Duration
	// Retries beyond the first attempt (default 2).
	Retries int
	// Obs, when non-nil, counts the datagrams this client sends and its
	// timeout retransmits (dnsclient_queries_total,
	// dnsclient_retransmits_total) — the stub-resolver duplicates the
	// paper's 30 s dedup window absorbs.
	Obs *obs.Registry

	nextID uint32 // atomic
}

// ErrTimeout reports that every attempt went unanswered — how an
// unreachable final authority manifests to a querier.
var ErrTimeout = errors.New("dnsserver: query timed out")

func nextQueryID(c *Client) uint16 {
	return uint16(atomic.AddUint32(&c.nextID, 1))
}

// LookupPTR resolves the reverse name of addr via the server at
// serverAddr. It returns the PTR target, the response code, and the number
// of datagrams actually sent (retransmits included; the duplicates the
// paper's 30 s dedup window absorbs).
func (c *Client) LookupPTR(serverAddr string, addr ipaddr.Addr) (target string, rcode uint8, sent int, err error) {
	msg, sent, err := c.queryPTR(serverAddr, addr)
	if err != nil {
		return "", 0, sent, err
	}
	if len(msg.Answers) > 0 {
		return msg.Answers[0].Target, msg.Header.RCode, sent, nil
	}
	return "", msg.Header.RCode, sent, nil
}
