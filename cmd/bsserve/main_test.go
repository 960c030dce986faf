package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	backscatter "dnsbackscatter"

	"dnsbackscatter/internal/alert"
	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/dnsserver"
	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/dnswire"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/golden"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/qname"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/stream"
	"dnsbackscatter/internal/trace"
)

// get issues one in-process request against the mux.
func get(t *testing.T, mux *http.ServeMux, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// TestHealthz pins liveness: 200 as soon as the mux serves, regardless
// of readiness.
func TestHealthz(t *testing.T) {
	var ready atomic.Bool
	mux := newMux(nil, nil, nil, nil, nil, &ready)
	if code, body := get(t, mux, "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
}

// TestReadyzFlips pins the readiness contract: 503 while loading, 200
// once the serving state is up, 503 again for a nil flag (a mux wired
// without one never reports ready).
func TestReadyzFlips(t *testing.T) {
	var ready atomic.Bool
	mux := newMux(nil, nil, nil, nil, nil, &ready)
	if code, body := get(t, mux, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "loading") {
		t.Fatalf("before flip: /readyz = %d %q", code, body)
	}
	ready.Store(true)
	if code, body := get(t, mux, "/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("after flip: /readyz = %d %q", code, body)
	}
	nilMux := newMux(nil, nil, nil, nil, nil, nil)
	if code, _ := get(t, nilMux, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("nil flag: /readyz = %d, want 503", code)
	}
}

// TestMetricsAndTimeseries pins the registry and window routes in both
// text and JSON renderings.
func TestMetricsAndTimeseries(t *testing.T) {
	reg := obs.NewRegistry()
	win := obs.NewWindow(simtime.Duration(60))
	reg.SetWindow(win)
	reg.Counter("served_records_total").IncAt(simtime.Time(5))
	mux := newMux(reg, win, nil, nil, nil, nil)

	if code, body := get(t, mux, "/metrics"); code != http.StatusOK || !strings.Contains(body, "served_records_total") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, body := get(t, mux, "/metrics.json"); code != http.StatusOK || !strings.Contains(body, "{") {
		t.Fatalf("/metrics.json = %d %q", code, body)
	}
	if code, body := get(t, mux, "/metrics?format=json"); code != http.StatusOK || !strings.Contains(body, "{") {
		t.Fatalf("/metrics?format=json = %d %q", code, body)
	}
	if code, _ := get(t, mux, "/timeseries"); code != http.StatusOK {
		t.Fatalf("/timeseries = %d", code)
	}
	if code, body := get(t, mux, "/timeseries?format=json"); code != http.StatusOK || !strings.Contains(body, "{") {
		t.Fatalf("/timeseries?format=json = %d %q", code, body)
	}
}

// TestTracesRoute pins the tracer route, including the bad-parameter
// rejections.
func TestTracesRoute(t *testing.T) {
	tr := trace.New(1, 1)
	mux := newMux(nil, nil, tr, nil, nil, nil)
	if code, body := get(t, mux, "/traces"); code != http.StatusOK || !strings.Contains(body, "traces held") {
		t.Fatalf("/traces = %d %q", code, body)
	}
	if code, _ := get(t, mux, "/traces?format=json"); code != http.StatusOK {
		t.Fatalf("/traces?format=json = %d", code)
	}
	if code, _ := get(t, mux, "/traces?mindur=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad mindur = %d, want 400", code)
	}
	if code, _ := get(t, mux, "/traces?limit=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad limit = %d, want 400", code)
	}
}

// TestStreamRoute pins the streaming-engine mount: the canonical text
// snapshot, the JSON status, and the 404 when -stream is off.
func TestStreamRoute(t *testing.T) {
	eng := stream.New(stream.Config{
		Geo:        geo.NewRegistry(1),
		CategoryOf: func(ipaddr.Addr) qname.Category { return qname.Home },
		Epoch:      simtime.Hour,
		Seed:       1,
	})
	st := rng.New(3)
	recs := make([]dnslog.Record, 0, 64)
	for i := 0; i < 64; i++ {
		recs = append(recs, dnslog.Record{
			Time:       simtime.Time(i * 10),
			Originator: ipaddr.MustParse("10.0.0.1"),
			Querier:    ipaddr.Addr(st.Uint64()),
		})
	}
	eng.Ingest(recs)
	eng.Tick(simtime.Time(simtime.Hour))
	mux := newMux(nil, nil, nil, eng, nil, nil)

	if code, body := get(t, mux, "/stream"); code != http.StatusOK || !strings.Contains(body, "originators") {
		t.Fatalf("/stream = %d %q", code, body)
	}
	if code, body := get(t, mux, "/stream?format=json"); code != http.StatusOK || !strings.Contains(body, "\"tracked\"") {
		t.Fatalf("/stream?format=json = %d %q", code, body)
	}
	bare := newMux(nil, nil, nil, nil, nil, nil)
	if code, _ := get(t, bare, "/stream"); code != http.StatusNotFound {
		t.Fatalf("/stream without engine = %d, want 404", code)
	}
}

// TestProfilesUnmounted pins that /profiles, the route of a profile
// ring bsserve no longer keeps, 404s: profiles come from /debug/pprof/.
func TestProfilesUnmounted(t *testing.T) {
	mux := newMux(nil, nil, nil, nil, nil, nil)
	if code, _ := get(t, mux, "/profiles"); code != http.StatusNotFound {
		t.Fatalf("/profiles = %d, want 404", code)
	}
}

// getFull issues one in-process request and also returns the response
// Content-Type.
func getFull(t *testing.T, mux *http.ServeMux, path string) (int, string, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String(), rec.Header().Get("Content-Type")
}

// TestIndexPage pins the / directory: it lists exactly the mounted
// routes and 404s every unclaimed path instead of answering 200.
func TestIndexPage(t *testing.T) {
	reg := obs.NewRegistry()
	win := obs.NewWindow(simtime.Duration(60))
	reg.SetWindow(win)
	mux := newMux(reg, win, nil, nil, nil, nil)

	code, body, ct := getFull(t, mux, "/")
	if code != http.StatusOK || ct != "text/plain; charset=utf-8" {
		t.Fatalf("/ = %d %q", code, ct)
	}
	for _, want := range []string{"/healthz", "/readyz", "/metrics", "/metrics.json", "/timeseries", "/debug/"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %s:\n%s", want, body)
		}
	}
	for _, absent := range []string{"/traces", "/stream", "/alerts", "/profiles"} {
		if strings.Contains(body, absent) {
			t.Errorf("index lists unmounted %s:\n%s", absent, body)
		}
	}
	if code, _, _ := getFull(t, mux, "/no-such-page"); code != http.StatusNotFound {
		t.Fatalf("unknown path = %d, want 404", code)
	}
}

// TestMetricsContentTypes pins the /metrics and /metrics.json contract:
// text route serves sorted text (JSON only on ?format=json), the .json
// route serves the JSON document unconditionally.
func TestMetricsContentTypes(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("served_records_total").Inc()
	mux := newMux(reg, nil, nil, nil, nil, nil)

	code, body, ct := getFull(t, mux, "/metrics")
	if code != http.StatusOK || ct != "text/plain; charset=utf-8" {
		t.Fatalf("/metrics = %d %q", code, ct)
	}
	if !strings.HasPrefix(body, "served_records_total") {
		t.Fatalf("/metrics body = %q, want sorted text", body)
	}

	for _, path := range []string{"/metrics.json", "/metrics.json?format=text", "/metrics?format=json"} {
		code, body, ct := getFull(t, mux, path)
		if code != http.StatusOK || ct != "application/json" {
			t.Fatalf("%s = %d %q", path, code, ct)
		}
		if !strings.HasPrefix(body, "{") || !strings.Contains(body, `"served_records_total"`) {
			t.Fatalf("%s body = %q, want the JSON document", path, body)
		}
	}
	if _, text, _ := getFull(t, mux, "/metrics"); text == "" {
		t.Fatal("text render empty")
	}
}

// TestAlertsRoute pins the /alerts mount: dashboard text, JSON status,
// state/severity filters, and the 404 when -alerts is off.
func TestAlertsRoute(t *testing.T) {
	rules, err := alert.Parse("alert hot\n  expr window(m_total)\n  op >=\n  threshold 5\n  severity high\n")
	if err != nil {
		t.Fatal(err)
	}
	al := alert.New(rules)
	al.Eval(alert.Data{Series: obs.Timeseries{Width: 60, Series: []obs.Series{
		{Metric: "m_total", Points: []obs.Point{{T: 0, V: 9}}},
	}}})
	mux := newMux(nil, nil, nil, nil, al, nil)

	code, body, ct := getFull(t, mux, "/alerts")
	if code != http.StatusOK || ct != "text/plain; charset=utf-8" || !strings.Contains(body, "hot") {
		t.Fatalf("/alerts = %d %q %q", code, ct, body)
	}
	code, body, ct = getFull(t, mux, "/alerts?format=json")
	if code != http.StatusOK || ct != "application/json" || !strings.Contains(body, `"firing"`) {
		t.Fatalf("/alerts?format=json = %d %q %q", code, ct, body)
	}
	if _, body, _ := getFull(t, mux, "/alerts?state=pending"); strings.Contains(body, "state=firing") {
		t.Fatalf("state filter leaked firing rule:\n%s", body)
	}
	if _, body, _ := getFull(t, mux, "/alerts?severity=low&format=json"); strings.Contains(body, `"hot"`) {
		t.Fatalf("severity filter leaked high rule:\n%s", body)
	}
	bare := newMux(nil, nil, nil, nil, nil, nil)
	if code, _, _ := getFull(t, bare, "/alerts"); code != http.StatusNotFound {
		t.Fatalf("/alerts without engine = %d, want 404", code)
	}
}

// TestTallyMatchesLogFromFirstDatagram pins what the shutdown tally
// promises: the server is bound with its sink already in place, so the
// queries it counts and the records it logs agree from the first datagram
// (with the sink installed after the bind, as it once was, a fixed-port
// restart under load served queries it never logged).
func TestTallyMatchesLogFromFirstDatagram(t *testing.T) {
	var log bytes.Buffer
	lw := dnslog.NewWriter(&log)
	reg := obs.NewRegistry()
	s, err := dnsserver.Listen("127.0.0.1:0", dnsserver.Config{
		Authority: "final",
		Handler: dnsserver.FinalHandler(func(a ipaddr.Addr) dnssim.OriginatorProfile {
			return dnssim.OriginatorProfile{HasName: true, Name: "host.example.net"}
		}),
		Sink: sensorSink(reg, nil, lw),
		Obs:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &dnsserver.Client{Timeout: time.Second}
	const n = 25
	for i := 0; i < n; i++ {
		if _, _, _, err := c.LookupPTR(s.Addr().String(), ipaddr.FromOctets(198, 51, 100, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	logged := uint64(bytes.Count(log.Bytes(), []byte("\n")))
	if s.Queries() != n || logged != s.Queries() {
		t.Errorf("served %d queries, logged %d records, sent %d", s.Queries(), logged, n)
	}
	if got := reg.Counter("served_records_total").Value(); got != logged {
		t.Errorf("served_records_total = %d, log has %d", got, logged)
	}
}

// failingFile fails every write, or only its Close.
type failingFile struct{ writeErr, closeErr error }

func (f failingFile) Write(p []byte) (int, error) {
	if f.writeErr != nil {
		return 0, f.writeErr
	}
	return len(p), nil
}

func (f failingFile) Close() error { return f.closeErr }

// TestCloseLogReportsErrors pins the exit path: a log whose buffered
// records never reach the file, or whose file fails to close, returns the
// error main exits non-zero on.
func TestCloseLogReportsErrors(t *testing.T) {
	diskFull, closeFailed := errors.New("no space left on device"), errors.New("close failed")
	for _, tc := range []struct {
		name string
		file failingFile
		want error
	}{
		{"flush", failingFile{writeErr: diskFull}, diskFull},
		{"close", failingFile{closeErr: closeFailed}, closeFailed},
		{"both", failingFile{writeErr: diskFull, closeErr: closeFailed}, diskFull},
	} {
		lw := dnslog.NewWriter(tc.file)
		if err := lw.Write(dnslog.Record{Time: 1, Originator: 2, Querier: 3}); err != nil {
			t.Fatalf("%s: buffered write failed early: %v", tc.name, err)
		}
		if err := closeLog(lw, tc.file); !errors.Is(err, tc.want) {
			t.Errorf("%s: closeLog = %v, want %v", tc.name, err, tc.want)
		}
	}
	if err := closeLog(nil, nil); err != nil {
		t.Errorf("no log: closeLog = %v", err)
	}
}

// pinPort is the fixed source port of TestServePinned's client: the fault
// plan keys its loss draws by the peer's ip:port text, so the test needs
// this port free on 127.0.0.1. Another run of the test holding it (two
// test binaries of this package at once) is waited out for a few seconds.
const pinPort = 47353

// TestServePinned pins what bsserve's serve path emits for a fixed
// datagram sequence, wired as main wires it on a clock that ticks one
// second a read: the log bytes, the stream snapshot, the trace JSONL of a
// 512-trace ring and the replies, with no faults and under lossy@7. The
// sequence asks named, nameless and unreachable originators three times
// each (the later rounds repeat pairs) among FORMERR questions and
// datagrams the server drops. One client socket reaches one serve loop,
// so the loop sees the datagrams in the order they were sent.
func TestServePinned(t *testing.T) {
	const seed = 1404
	zone := seededZone(seed)
	var named, nameless, dead []ipaddr.Addr
	for i := 0; len(named) < 6 || len(nameless) < 4 || len(dead) < 2; i++ {
		a := ipaddr.FromOctets(198, 51, byte(i>>8), byte(i))
		switch p := zone(a); {
		case p.FinalUnreachable:
			dead = append(dead, a)
		case p.HasName:
			named = append(named, a)
		default:
			nameless = append(nameless, a)
		}
	}
	named, nameless, dead = named[:6], nameless[:4], dead[:2]
	wire := func(m *dnswire.Message) []byte {
		b, err := m.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var seq [][]byte
	for round := 0; round < 3; round++ {
		for i, a := range append(append(append([]ipaddr.Addr{}, named...), nameless...), dead...) {
			seq = append(seq, wire(dnswire.NewPTRQuery(uint16(len(seq)), a.ReverseName())))
			if i == 3 {
				seq = append(seq, wire(dnswire.NewPTRQuery(uint16(len(seq)), "www.example.com")))
			}
		}
		aq := dnswire.NewPTRQuery(uint16(len(seq)), named[round].ReverseName())
		aq.Questions[0].Type = dnswire.TypeA
		resp := dnswire.NewResponse(dnswire.NewPTRQuery(7, named[0].ReverseName()), 0)
		seq = append(seq, wire(aq), []byte{0, 1, 2}, wire(resp))
	}

	for _, spec := range []string{"", "lossy@7"} {
		name := "plain"
		if spec != "" {
			name = spec
		}
		t.Run(name, func(t *testing.T) {
			plan, err := backscatter.ParseFaults(spec)
			if err != nil {
				t.Fatal(err)
			}
			var tick atomic.Int64
			reg := obs.NewRegistry()
			tr := trace.New(seed, 1)
			tr.SetMax(512)
			eng := newEngine(seed, time.Hour, 1<<16, reg)
			var log bytes.Buffer
			lw := dnslog.NewWriter(&log)
			s, err := dnsserver.Listen("127.0.0.1:0", dnsserver.Config{
				Authority: "final",
				Handler:   dnsserver.FinalHandler(zone),
				Sink:      sensorSink(reg, eng, lw),
				Clock:     func() simtime.Time { return simtime.Time(1_400_000_000 + tick.Add(1)) },
				Obs:       reg,
				Tracer:    tr,
				Faults:    plan,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: pinPort})
			for try := 0; err != nil && try < 50; try++ {
				time.Sleep(100 * time.Millisecond)
				c, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: pinPort})
			}
			if err != nil {
				t.Fatalf("client port %d must be free on 127.0.0.1 (the lossy@7 digests key on it): %v", pinPort, err)
			}
			defer c.Close()
			for _, d := range seq {
				if _, err := c.WriteToUDP(d, s.Addr()); err != nil {
					t.Fatal(err)
				}
			}
			for deadline := time.Now().Add(10 * time.Second); s.Queries()+s.Dropped() < uint64(len(seq)); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("server read %d of %d datagrams", s.Queries()+s.Dropped(), len(seq))
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := lw.Flush(); err != nil {
				t.Fatal(err)
			}
			var replies []byte
			buf := make([]byte, 512)
			for {
				_ = c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
				n, err := c.Read(buf)
				if err != nil {
					break
				}
				replies = append(replies, buf[:n]...)
			}
			for _, out := range []struct {
				key  string
				data []byte
			}{
				{"log", log.Bytes()},
				{"snapshot", eng.Snapshot()},
				{"traces", tr.JSONL()},
				{"replies", replies},
			} {
				h := fnv.New64a()
				h.Write(out.data)
				golden.Digest(t, "bsserve/"+name+"/"+out.key, fmt.Sprintf("%#x", h.Sum64()))
			}
		})
	}
}

// TestCategoryOfMatchesNames holds the stream engine's querier categories
// to what the classifier makes of the names the seeded zone serves.
func TestCategoryOfMatchesNames(t *testing.T) {
	for _, seed := range []uint64{1404, 7} {
		cat := categoryOf(seed)
		for i := 0; i < 10000; i++ {
			a := ipaddr.Addr(uint32(i) * 2654435761)
			p := dnssim.SeededProfile(a, seed)
			if got, want := cat(a), qname.ClassifyQuerier(p.Name, p.FinalUnreachable); got != want {
				t.Fatalf("seed %d: categoryOf(%v) = %v, want %v", seed, a, got, want)
			}
		}
	}
}
