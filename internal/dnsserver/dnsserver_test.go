package dnsserver

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/dnswire"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/simtime"
)

// testProfile: .1 has a name, .2 is nxdomain, .3 is unreachable.
func testProfile(a ipaddr.Addr) dnssim.OriginatorProfile {
	switch byte(a) {
	case 1:
		return dnssim.OriginatorProfile{HasName: true, Name: "host1.example.jp", TTL: simtime.Hour}
	case 3:
		return dnssim.OriginatorProfile{FinalUnreachable: true}
	default:
		return dnssim.OriginatorProfile{NegTTL: simtime.Hour}
	}
}

// startServer starts a final authority for testProfile; logged flushes it
// and returns what its sink has seen.
func startServer(t *testing.T) (s *Server, addr string, logged func() []dnslog.Record) {
	t.Helper()
	var mu sync.Mutex
	var recs []dnslog.Record
	s, err := Listen("127.0.0.1:0", Config{
		Authority: "final-test",
		Handler:   FinalHandler(testProfile),
		Sink: func(rs []dnslog.Record) {
			mu.Lock()
			recs = append(recs, rs...)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, s.Addr().String(), func() []dnslog.Record {
		s.Flush()
		mu.Lock()
		defer mu.Unlock()
		return append([]dnslog.Record(nil), recs...)
	}
}

func TestLookupPositive(t *testing.T) {
	_, addr, logged := startServer(t)
	c := &Client{Timeout: 300 * time.Millisecond}
	target, rcode, sent, err := c.LookupPTR(addr, ipaddr.MustParse("192.0.2.1"))
	if err != nil {
		t.Fatal(err)
	}
	if target != "host1.example.jp" || rcode != dnswire.RCodeNoError || sent != 1 {
		t.Errorf("got %q rcode=%d sent=%d", target, rcode, sent)
	}
	recs := logged()
	if len(recs) != 1 {
		t.Fatalf("sink saw %d records", len(recs))
	}
	r := recs[0]
	if r.Originator != ipaddr.MustParse("192.0.2.1") || r.Authority.String() != "final-test" {
		t.Errorf("record = %+v", r)
	}
	if r.Querier.Slash8() != 127 {
		t.Errorf("querier = %v, want loopback", r.Querier)
	}
}

func TestLookupNXDomain(t *testing.T) {
	_, addr, logged := startServer(t)
	c := &Client{Timeout: 300 * time.Millisecond}
	target, rcode, _, err := c.LookupPTR(addr, ipaddr.MustParse("192.0.2.2"))
	if err != nil {
		t.Fatal(err)
	}
	if target != "" || rcode != dnswire.RCodeNXDomain {
		t.Errorf("got %q rcode=%d", target, rcode)
	}
	if recs := logged(); len(recs) != 1 || recs[0].RCode != dnswire.RCodeNXDomain {
		t.Errorf("sink records: %+v", recs)
	}
}

func TestLookupUnreachableTimesOutWithRetransmits(t *testing.T) {
	_, addr, logged := startServer(t)
	c := &Client{Timeout: 80 * time.Millisecond, Retries: 2}
	_, _, sent, err := c.LookupPTR(addr, ipaddr.MustParse("192.0.2.3"))
	if err != ErrTimeout {
		t.Fatalf("err = %v, want timeout", err)
	}
	if sent != 3 {
		t.Errorf("sent %d datagrams, want 3 (1 + 2 retransmits)", sent)
	}
	// The sensor still observed every retransmitted query — exactly the
	// duplicate pattern the 30 s dedup window handles.
	if n := len(logged()); n != 3 {
		t.Errorf("sink saw %d records, want 3", n)
	}
}

func TestForwardQueryRefused(t *testing.T) {
	s, addr, logged := startServer(t)
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := &dnswire.Message{Header: dnswire.Header{ID: 7}}
	q.Questions = []dnswire.Question{{Name: "www.example.jp", Type: dnswire.TypeA, Class: dnswire.ClassIN}}
	wire, _ := q.Encode(nil)
	conn.Write(wire)
	buf := make([]byte, 512)
	conn.SetReadDeadline(time.Now().Add(time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	var resp dnswire.Message
	if err := dnswire.DecodeInto(buf[:n], &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeFormErr {
		t.Errorf("rcode = %d, want FormErr", resp.Header.RCode)
	}
	if len(logged()) != 0 {
		t.Error("forward query reached the sink")
	}
	if s.Queries() != 1 {
		t.Errorf("Queries = %d", s.Queries())
	}
}

func TestGarbageDatagramsCounted(t *testing.T) {
	s, addr, _ := startServer(t)
	conn, _ := net.Dial("udp", addr)
	defer conn.Close()
	conn.Write([]byte{1, 2, 3})
	conn.Write([]byte{})
	// Give the loop a moment.
	deadline := time.Now().Add(time.Second)
	for s.Dropped() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.Dropped() < 1 {
		t.Error("garbage datagram not counted as dropped")
	}
}

func TestConcurrentLookups(t *testing.T) {
	_, addr, logged := startServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &Client{Timeout: time.Second}
			target, _, _, err := c.LookupPTR(addr, ipaddr.FromOctets(192, 0, byte(i), 1))
			if err != nil {
				errs <- err
				return
			}
			if target != "host1.example.jp" {
				errs <- ErrTimeout
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := len(logged()); n != 32 {
		t.Errorf("sink saw %d records, want 32", n)
	}
}

func TestCloseIdempotent(t *testing.T) {
	s, _, _ := startServer(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServedWorldEndToEnd serves DefaultProfile and runs the feature
// pipeline over the captured records — the full operational path: UDP
// queries → sensor sink → dnslog records.
func TestServedWorldEndToEnd(t *testing.T) {
	var mu sync.Mutex
	var recs []dnslog.Record
	s, err := Listen("127.0.0.1:0", Config{Authority: "final-e2e", Sink: func(rs []dnslog.Record) {
		mu.Lock()
		recs = append(recs, rs...)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := &Client{Timeout: time.Second, Retries: 0}
	answered := 0
	for i := 0; i < 40; i++ {
		a := ipaddr.FromOctets(198, 51, 100, byte(i))
		if _, _, _, err := c.LookupPTR(s.Addr().String(), a); err == nil {
			answered++
		}
	}
	if answered < 20 {
		t.Fatalf("only %d of 40 lookups answered", answered)
	}
	s.Flush()
	mu.Lock()
	n := len(recs)
	mu.Unlock()
	if n < answered {
		t.Errorf("sink saw %d records for %d answers", n, answered)
	}
}

// TestFirstQueryAfterListenIsLogged pins the wiring order: sink and clock
// are part of the server before its serve loops start, so the very first
// query after Listen returns is recorded, stamped by the configured clock.
// (With sink and clock installed by setters after Listen, a query arriving
// in between was answered and counted but never logged.)
func TestFirstQueryAfterListenIsLogged(t *testing.T) {
	const at = simtime.Time(1_400_000_000)
	logged := make(chan dnslog.Record, 1) // one query, one record
	s, err := Listen("127.0.0.1:0", Config{
		Authority: "first",
		Handler:   FinalHandler(testProfile),
		Sink: func(rs []dnslog.Record) {
			for _, r := range rs {
				logged <- r
			}
		},
		Clock: func() simtime.Time { return at },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := &Client{Timeout: time.Second}
	if _, _, _, err := c.LookupPTR(s.Addr().String(), ipaddr.MustParse("192.0.2.1")); err != nil {
		t.Fatal(err)
	}
	// The record joined its loop's batch before the answer was written,
	// so Flush hands it over.
	s.Flush()
	select {
	case r := <-logged:
		if r.Time != at || r.Authority.String() != "first" || r.Originator != ipaddr.MustParse("192.0.2.1") {
			t.Errorf("first record = %+v, want time %d from authority first", r, at)
		}
	default:
		t.Fatal("the first query was answered but not logged")
	}
	if got := s.Queries(); got != 1 {
		t.Errorf("served %d queries, want 1", got)
	}
}

// listenGroup starts a server whose every originator has a PTR with at
// least two serve loops, whatever GOMAXPROCS the test runs under.
func listenGroup(t *testing.T, sink Sink) *Server {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	s, err := Listen("127.0.0.1:0", Config{
		Authority: "group",
		Handler: FinalHandler(func(ipaddr.Addr) dnssim.OriginatorProfile {
			return dnssim.OriginatorProfile{HasName: true, Name: "host.example.net", TTL: simtime.Hour}
		}),
		Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// askFrom sends perSock queries, one at a time, from each of socks client
// sockets at once, each for its own originator, and returns the
// originators that were answered.
func askFrom(t *testing.T, addr string, socks, perSock int) []ipaddr.Addr {
	t.Helper()
	var (
		mu       sync.Mutex
		answered []ipaddr.Addr
		wg       sync.WaitGroup
	)
	for k := 0; k < socks; k++ {
		conn, err := net.Dial("udp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 512)
			for j := 0; j < perSock; j++ {
				orig := ipaddr.FromOctets(10, byte(k), byte(j>>8), byte(j))
				wire, _ := dnswire.NewPTRQuery(uint16(j), orig.ReverseName()).Encode(nil)
				_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
				if _, err := conn.Write(wire); err != nil {
					continue
				}
				if _, err := conn.Read(buf); err == nil {
					mu.Lock()
					answered = append(answered, orig)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return answered
}

// TestSinkContractAcrossLoops pins the batch contract under load from
// many sockets: every answered query reaches the sink exactly once by
// Close, nothing else does, and no batch is longer than maxBatch. The
// sink takes no lock of its own, so under -race (make race) it also pins
// that the server never lets two sink calls overlap.
func TestSinkContractAcrossLoops(t *testing.T) {
	var (
		seen                    = map[ipaddr.Addr]int{}
		total, batches, longest int
	)
	s := listenGroup(t, func(rs []dnslog.Record) {
		batches++
		total += len(rs)
		longest = max(longest, len(rs))
		for _, r := range rs {
			seen[r.Originator]++
		}
	})
	answered := askFrom(t, s.Addr().String(), 64, 10_000/64+1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(answered) < 10_000 {
		t.Fatalf("only %d queries answered", len(answered))
	}
	for _, a := range answered {
		if seen[a] != 1 {
			t.Fatalf("answered query for %v reached the sink %d times", a, seen[a])
		}
	}
	if uint64(total) != s.Queries() || longest > maxBatch {
		t.Errorf("sink took %d records in %d batches (longest %d) for %d queries",
			total, batches, longest, s.Queries())
	}
}

// TestLoneQueryReachesSink pins the batch timer: a record nobody flushes
// reaches the sink batchWait after it was answered, not at the next
// maxBatch-th query.
func TestLoneQueryReachesSink(t *testing.T) {
	got := make(chan int, 1)
	s := listenGroup(t, func(rs []dnslog.Record) { got <- len(rs) })
	if n := len(askFrom(t, s.Addr().String(), 1, 1)); n != 1 {
		t.Fatalf("%d of 1 queries answered", n)
	}
	select {
	case n := <-got:
		if n != 1 {
			t.Errorf("sink took a batch of %d for one query", n)
		}
	case <-time.After(time.Second):
		t.Fatal("a lone query did not reach the sink within 1 s")
	}
}

// TestListenOnHeldPortFails pins that a serve group never joins another
// server's port, as a SO_REUSEPORT bind of the same user would.
func TestListenOnHeldPortFails(t *testing.T) {
	s := listenGroup(t, nil)
	if s2, err := Listen(s.Addr().String(), Config{Authority: "second"}); err == nil {
		s2.Close()
		t.Fatal("a second server bound the port the first one serves")
	}
}

// TestServeGroupSpreads pins the serve group: with two or more loops
// bound to one port, queries from many sockets land on more than one.
func TestServeGroupSpreads(t *testing.T) {
	s := listenGroup(t, nil)
	askFrom(t, s.Addr().String(), 64, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	busy := 0
	for _, l := range s.loops {
		if l.reads > 0 {
			busy++
		}
	}
	if len(s.loops) < 2 || busy < 2 {
		t.Errorf("%d of %d loops served", busy, len(s.loops))
	}
}
