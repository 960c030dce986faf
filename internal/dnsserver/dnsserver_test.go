package dnsserver

import (
	"net"
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

func startServer(t *testing.T) (*Server, string, *[]dnslog.Record, *sync.Mutex) {
	t.Helper()
	var mu sync.Mutex
	var recs []dnslog.Record
	s, err := Listen("127.0.0.1:0", Config{
		Authority: "final-test",
		Handler:   FinalHandler(testProfile),
		Sink: func(r dnslog.Record) {
			mu.Lock()
			recs = append(recs, r)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, s.Addr().String(), &recs, &mu
}

func TestLookupPositive(t *testing.T) {
	_, addr, recs, mu := startServer(t)
	c := &Client{Timeout: 300 * time.Millisecond}
	target, rcode, sent, err := c.LookupPTR(addr, ipaddr.MustParse("192.0.2.1"))
	if err != nil {
		t.Fatal(err)
	}
	if target != "host1.example.jp" || rcode != dnswire.RCodeNoError || sent != 1 {
		t.Errorf("got %q rcode=%d sent=%d", target, rcode, sent)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(*recs) != 1 {
		t.Fatalf("sink saw %d records", len(*recs))
	}
	r := (*recs)[0]
	if r.Originator != ipaddr.MustParse("192.0.2.1") || r.Authority.String() != "final-test" {
		t.Errorf("record = %+v", r)
	}
	if r.Querier.Slash8() != 127 {
		t.Errorf("querier = %v, want loopback", r.Querier)
	}
}

func TestLookupNXDomain(t *testing.T) {
	_, addr, recs, mu := startServer(t)
	c := &Client{Timeout: 300 * time.Millisecond}
	target, rcode, _, err := c.LookupPTR(addr, ipaddr.MustParse("192.0.2.2"))
	if err != nil {
		t.Fatal(err)
	}
	if target != "" || rcode != dnswire.RCodeNXDomain {
		t.Errorf("got %q rcode=%d", target, rcode)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(*recs) != 1 || (*recs)[0].RCode != dnswire.RCodeNXDomain {
		t.Errorf("sink records: %+v", *recs)
	}
}

func TestLookupUnreachableTimesOutWithRetransmits(t *testing.T) {
	_, addr, recs, mu := startServer(t)
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
	mu.Lock()
	defer mu.Unlock()
	if len(*recs) != 3 {
		t.Errorf("sink saw %d records, want 3", len(*recs))
	}
}

func TestForwardQueryRefused(t *testing.T) {
	s, addr, recs, mu := startServer(t)
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
	resp, err := dnswire.Decode(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeFormErr {
		t.Errorf("rcode = %d, want FormErr", resp.Header.RCode)
	}
	mu.Lock()
	if len(*recs) != 0 {
		t.Error("forward query reached the sink")
	}
	mu.Unlock()
	if s.Queries() != 1 {
		t.Errorf("Queries = %d", s.Queries())
	}
}

func TestGarbageDatagramsCounted(t *testing.T) {
	s, addr, _, _ := startServer(t)
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
	_, addr, recs, mu := startServer(t)
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
	mu.Lock()
	defer mu.Unlock()
	if len(*recs) != 32 {
		t.Errorf("sink saw %d records, want 32", len(*recs))
	}
}

func TestCloseIdempotent(t *testing.T) {
	s, _, _, _ := startServer(t)
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
	s, err := Listen("127.0.0.1:0", Config{Authority: "final-e2e", Sink: func(r dnslog.Record) {
		mu.Lock()
		recs = append(recs, r)
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
	mu.Lock()
	n := len(recs)
	mu.Unlock()
	if n < answered {
		t.Errorf("sink saw %d records for %d answers", n, answered)
	}
}

// TestFirstQueryAfterListenIsLogged pins the wiring order: sink and clock
// are part of the server before its serve loop starts, so the very first
// query after Listen returns is recorded, stamped by the configured clock.
// (With sink and clock installed by setters after Listen, a query arriving
// in between was answered and counted but never logged.)
func TestFirstQueryAfterListenIsLogged(t *testing.T) {
	const at = simtime.Time(1_400_000_000)
	logged := make(chan dnslog.Record, 1) // one query, one record
	s, err := Listen("127.0.0.1:0", Config{
		Authority: "first",
		Handler:   FinalHandler(testProfile),
		Sink:      func(r dnslog.Record) { logged <- r },
		Clock:     func() simtime.Time { return at },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := &Client{Timeout: time.Second}
	if _, _, _, err := c.LookupPTR(s.Addr().String(), ipaddr.MustParse("192.0.2.1")); err != nil {
		t.Fatal(err)
	}
	// The sink runs before the answer is written, so the record is there.
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
