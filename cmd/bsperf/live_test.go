package main

import (
	"context"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"dnsbackscatter/internal/dnswire"
	"dnsbackscatter/internal/ipaddr"
)

// fakeAuthority answers every query with NXDOMAIN after the delay its
// name is given; a negative delay means never. It records the peers it
// heard from.
type fakeAuthority struct {
	conn  *net.UDPConn
	delay func(name string) time.Duration

	mu    sync.Mutex
	peers map[string]int
}

func startFakeAuthority(t *testing.T, delay func(name string) time.Duration) *fakeAuthority {
	t.Helper()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeAuthority{conn: conn, delay: delay, peers: make(map[string]int)}
	t.Cleanup(func() { conn.Close() })
	go f.serve()
	return f
}

func (f *fakeAuthority) serve() {
	buf := make([]byte, 512)
	var msg dnswire.Message
	for {
		n, peer, err := f.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed by the test's cleanup
		}
		f.mu.Lock()
		f.peers[peer.IP.String()]++
		f.mu.Unlock()
		if dnswire.DecodeInto(buf[:n], &msg) != nil {
			continue
		}
		d := f.delay(msg.Questions[0].Name)
		if d < 0 {
			continue
		}
		resp := append([]byte(nil), buf[:n]...)
		resp[2] |= 0x80
		resp[3] = resp[3]&0xf0 | dnswire.RCodeNXDomain
		if d == 0 {
			_, _ = f.conn.WriteToUDP(resp, peer) // at once, so replies keep the queries' order
			continue
		}
		time.AfterFunc(d, func() { _, _ = f.conn.WriteToUDP(resp, peer) })
	}
}

func (f *fakeAuthority) heardFrom(ip string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.peers[ip]
}

// testNames encodes one query per originator, all expecting NXDOMAIN.
func testNames(t *testing.T, silent map[int]bool, origs ...string) []liveName {
	t.Helper()
	enc := dnswire.NewEncoder()
	msg := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(msg)
	var names []liveName
	for i, o := range origs {
		msg.SetPTRQuery(0, ipaddr.MustParse(o).ReverseName())
		wire, err := enc.Encode(msg, nil)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, liveName{wire: wire, rcode: dnswire.RCodeNXDomain, silent: silent[i]})
	}
	return names
}

// TestDriveRetransmitsOnSchedule pins the reply timeout: a query whose
// reply comes after replyTimeout is sent again at its own deadline,
// while the lane's other queries keep flowing, and the late reply to
// the first transmission is ignored; a query that is never answered is
// lost after attempts transmissions and its slot is used again.
func TestDriveRetransmitsOnSchedule(t *testing.T) {
	late, mute := ipaddr.MustParse("10.0.0.1").ReverseName(), ipaddr.MustParse("10.0.0.3").ReverseName()
	var mu sync.Mutex
	asked := 0
	f := startFakeAuthority(t, func(name string) time.Duration {
		switch name {
		case mute:
			return -1
		case late:
			mu.Lock()
			defer mu.Unlock()
			if asked++; asked == 1 {
				return replyTimeout + replyTimeout/2
			}
		}
		return 4 * time.Millisecond
	})
	names := testNames(t, nil, "10.0.0.1", "10.0.0.2", "10.0.0.3")
	q := ipaddr.MustParse("192.0.2.7")
	// The late name first, then enough prompt ones that replies are still
	// arriving when the late reply does, then the mute one.
	sends := []liveSend{{name: 0, querier: q}}
	for i := 0; i < 200; i++ {
		sends = append(sends, liveSend{name: 1, querier: q})
	}
	sends = append(sends, liveSend{name: 2, querier: q})
	start := time.Now()
	st, err := load(context.Background(), f.conn.LocalAddr().(*net.UDPAddr), names, sends, 1, pass{win: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.queries != 202 || st.sent != 202+1+attempts-1 || st.timeouts != 1+attempts || st.lost != 1 || st.correct != 201 || st.wrong != 0 {
		t.Errorf("queries %d, sent %d, timeouts %d, lost %d, correct %d, wrong %d; want 202, %d, %d, 1, 201, 0",
			st.queries, st.sent, st.timeouts, st.lost, st.correct, st.wrong, 202+attempts, 1+attempts)
	}
	if took := time.Since(start); took < attempts*replyTimeout || took > 2*attempts*replyTimeout {
		t.Errorf("the pass took %v; the mute name alone should take %v, on schedule", took, attempts*replyTimeout)
	}
	if top := slices.Max(st.lat); top < float64(replyTimeout/time.Microsecond) {
		t.Errorf("the highest latency is %v us: the retransmitted query's should count from its first transmission", top)
	}
}

// TestDriveSilentNamesAndSources checks that queries to silent names are
// sent and not waited for, that an answer to one counts as wrong, and
// that each query leaves from its querier's loopback source.
func TestDriveSilentNamesAndSources(t *testing.T) {
	mute := ipaddr.MustParse("10.0.0.1").ReverseName()
	f := startFakeAuthority(t, func(name string) time.Duration {
		if name == mute {
			return -1
		}
		return 0
	})
	// Name 0 is silent and stays so; name 1 is declared silent and answers.
	names := testNames(t, map[int]bool{0: true, 1: true}, "10.0.0.1", "10.0.0.3", "10.0.0.2")
	q1, q2 := ipaddr.MustParse("192.0.2.7"), ipaddr.MustParse("198.51.100.9")
	sends := []liveSend{{0, q1}, {2, q1}, {0, q2}, {1, q2}, {2, q2}, {2, q1}}
	start := time.Now()
	st, err := load(context.Background(), f.conn.LocalAddr().(*net.UDPAddr), names, sends, 1, pass{win: 2})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) >= replyTimeout {
		t.Errorf("the pass took %v: it waited for a silent name", time.Since(start))
	}
	if st.sent != 6 || st.silent != 3 || st.correct != 3 || st.lost != 0 || st.wrong != 1 {
		t.Errorf("sent %d, silent %d, correct %d, lost %d, wrong %d; want 6, 3, 3, 0 and the one answered silent name",
			st.sent, st.silent, st.correct, st.lost, st.wrong)
	}
	if a, b := f.heardFrom("127.0.2.7"), f.heardFrom("127.51.100.9"); a != 3 || b != 3 {
		t.Errorf("heard %d queries from 127.0.2.7 and %d from 127.51.100.9, want 3 and 3 (peers %v)", a, b, f.peers)
	}
}

// TestLoadMarksOnce checks that the pass's mark fires once, on one lane,
// when that lane has sent the marked number of queries.
func TestLoadMarksOnce(t *testing.T) {
	f := startFakeAuthority(t, func(string) time.Duration { return 0 })
	names := testNames(t, nil, "10.0.0.2")
	sends := make([]liveSend, 40)
	for i := range sends {
		sends[i].querier = ipaddr.MustParse("192.0.2.7")
	}
	var marks []int
	st, err := load(context.Background(), f.conn.LocalAddr().(*net.UDPAddr), names, sends, 2,
		pass{win: 2, mark: 10, onMark: func() { marks = append(marks, f.heardFrom("127.0.2.7")) }})
	if err != nil {
		t.Fatal(err)
	}
	// The marking lane has sent nine queries and is about to send its tenth.
	if st.correct != 40 || len(marks) != 1 || marks[0] < 8 || marks[0] > 9+20 {
		t.Errorf("%d correct, marks %v; want 40 and one mark with the lane's ninth query on its way", st.correct, marks)
	}
}

func TestSourceFoldsIntoLoopback(t *testing.T) {
	for _, c := range []struct {
		q    string
		lap  int
		want [4]byte
	}{
		{"192.0.2.7", 0, [4]byte{127, 0, 2, 7}},
		{"192.0.2.7", 3, [4]byte{127, 3, 2, 7}},
		{"10.0.0.0", 0, [4]byte{127, 0, 0, 1}},
		{"10.255.255.255", 0, [4]byte{127, 255, 255, 254}},
		{"10.254.255.255", 1, [4]byte{127, 255, 255, 254}},
	} {
		if got := source(ipaddr.MustParse(c.q), c.lap); got != c.want {
			t.Errorf("source(%s, lap %d) = %v, want %v", c.q, c.lap, got, c.want)
		}
	}
}
