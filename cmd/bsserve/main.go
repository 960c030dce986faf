// Command bsserve runs an authoritative reverse-DNS server over UDP,
// answering PTR queries from a seeded synthetic world's originator
// profiles and logging the resulting backscatter — a live, networked
// version of the paper's final-authority sensor (§III-A).
//
// Usage:
//
//	bsserve -addr 127.0.0.1:5353 -seed 1404 -log backscatter.tsv
//
// then point bsdig (or dig -x) at it.
//
// With -http, bsserve also serves its live metrics, traces, windowed
// time series, and health endpoints:
//
//	bsserve -addr 127.0.0.1:5353 -http 127.0.0.1:8080
//	curl http://127.0.0.1:8080/                      # endpoint directory
//	curl http://127.0.0.1:8080/metrics               # sorted text
//	curl http://127.0.0.1:8080/metrics?format=json   # same, as JSON
//	curl http://127.0.0.1:8080/metrics.json          # always JSON
//	curl http://127.0.0.1:8080/traces                # recent span trees
//	curl 'http://127.0.0.1:8080/traces?rcode=nxdomain&format=json'
//	curl http://127.0.0.1:8080/timeseries            # bucketed sparklines
//	curl http://127.0.0.1:8080/healthz               # liveness: 200 once serving HTTP
//	curl http://127.0.0.1:8080/readyz                # readiness: 503 until serving state loaded
//	curl http://127.0.0.1:8080/debug/vars            # expvar
//
// /traces filters on originator=, querier=, rcode=, mindur= (seconds),
// and limit=. Tracing keeps the most recent -trace-keep traces in a ring.
// net/http/pprof profiling endpoints hang off /debug/pprof/: read them
// with `go tool pprof http://HOST/debug/pprof/profile?seconds=30` or
// `.../debug/pprof/heap`, and -diff_base for growth between snapshots.
//
// With -stream, every observed record also feeds a bounded-memory
// streaming engine (sliding dedup sized by the pairs it holds, 16 MiB at
// most; per-originator sketches; hierarchical heavy hitters) that
// re-scores at -stream-epoch boundaries of record time:
//
//	bsserve -addr 127.0.0.1:5353 -http 127.0.0.1:8080 -stream
//	curl http://127.0.0.1:8080/stream                # canonical snapshot
//	curl http://127.0.0.1:8080/stream?format=json    # status document
//
// With -alerts (a rule file, or "default" for the built-in rules),
// bsserve re-evaluates the rules against the live window every
// -alert-every and serves the state machine:
//
//	bsserve -addr 127.0.0.1:5353 -http 127.0.0.1:8080 -alerts default
//	curl http://127.0.0.1:8080/alerts                # dashboard + transition tail
//	curl 'http://127.0.0.1:8080/alerts?state=firing&format=json'
package main

import (
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	backscatter "dnsbackscatter"

	"dnsbackscatter/internal/alert"
	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/dnsserver"
	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/dnswire"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/qname"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/stream"
	"dnsbackscatter/internal/trace"
)

// serveDoc answers with the text document by default and the JSON one
// with ?format=json.
func serveDoc(text, doc func(*http.Request) []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(doc(r))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write(text(r))
	}
}

// serveStream exposes the streaming engine on /stream: the canonical
// text snapshot (verdicts, sketch summaries, heavy hitters) by default,
// the status document with ?format=json.
func serveStream(e *stream.Engine) http.HandlerFunc {
	return serveDoc(func(*http.Request) []byte { return e.Snapshot() },
		func(*http.Request) []byte { return e.StatusJSON() })
}

// serveTraces exposes the tracer's ring on /traces: span trees by
// default, JSON with ?format=json, filtered by originator=, querier=,
// rcode=, mindur= (seconds), and limit= query parameters.
func serveTraces(tr *trace.Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		f := trace.Filter{
			Originator: q.Get("originator"),
			Querier:    q.Get("querier"),
			RCode:      q.Get("rcode"),
			Limit:      50,
		}
		if v := q.Get("mindur"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				http.Error(w, "bad mindur: "+err.Error(), http.StatusBadRequest)
				return
			}
			f.MinDur = simtime.Duration(n)
		}
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				http.Error(w, "bad limit: "+err.Error(), http.StatusBadRequest)
				return
			}
			f.Limit = n
		}
		ts := tr.Traces(f)
		if q.Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(ts)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%d traces held (%d evicted), showing %d\n\n", tr.Len(), tr.Dropped(), len(ts))
		for _, t := range ts {
			fmt.Fprintln(w, trace.RenderTree(t))
		}
	}
}

// serveTimeseries exposes the window's buckets on /timeseries: sorted
// text plus sparklines by default, the JSON document with ?format=json.
func serveTimeseries(win *obs.Window) http.HandlerFunc {
	return serveDoc(func(*http.Request) []byte { return append(append(win.Snapshot(), '\n'), win.Sparklines()...) },
		func(*http.Request) []byte { return win.SnapshotJSON() })
}

// serveMetricsText exposes the registry snapshot on /metrics: sorted
// text by default, JSON with ?format=json.
func serveMetricsText(reg *obs.Registry) http.HandlerFunc {
	return serveDoc(func(*http.Request) []byte { return reg.Snapshot() },
		func(*http.Request) []byte { return reg.SnapshotJSON() })
}

// serveMetricsJSON exposes the registry snapshot on /metrics.json:
// always the JSON document, whatever the query string says.
func serveMetricsJSON(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(reg.SnapshotJSON())
	}
}

// serveAlerts exposes the alert engine on /alerts: the text dashboard
// (summary, per-rule sparklines, transition tail) by default, the status
// document with ?format=json, both narrowed by state= and severity=.
func serveAlerts(al *alert.Engine) http.HandlerFunc {
	filter := func(r *http.Request) alert.Filter {
		return alert.Filter{State: r.URL.Query().Get("state"), Severity: r.URL.Query().Get("severity")}
	}
	return serveDoc(func(r *http.Request) []byte { return al.RenderText(filter(r)) },
		func(r *http.Request) []byte { return al.StatusJSON(filter(r)) })
}

// serveIndex answers / with a plain-text directory of the routes this
// process actually registered, and 404s every other unclaimed path (the
// "/" mux pattern would otherwise swallow typos with a 200).
func serveIndex(routes [][2]string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "bsserve endpoints:")
		for _, rt := range routes {
			fmt.Fprintf(w, "  %-18s %s\n", rt[0], rt[1])
		}
	}
}

// newMux assembles bsserve's HTTP surface. Nil components simply leave
// their routes unregistered, so tests can wire exactly the handlers
// under test. The ready flag backs /readyz: 503 until the operational
// state (zone, faults, sink, tracer) is loaded, 200 after — the split
// load balancers expect between "process is up" and "safe to route
// to". /debug/ (pprof, expvar) delegates to the default mux, where
// those packages self-register.
func newMux(reg *obs.Registry, win *obs.Window, tr *trace.Tracer, eng *stream.Engine, al *alert.Engine, ready *atomic.Bool) *http.ServeMux {
	mux := http.NewServeMux()
	routes := [][2]string{
		{"/healthz", "liveness: 200 once serving HTTP"},
		{"/readyz", "readiness: 503 until serving state loaded"},
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ready == nil || !ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "loading")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	if reg != nil {
		mux.HandleFunc("/metrics", serveMetricsText(reg))
		mux.HandleFunc("/metrics.json", serveMetricsJSON(reg))
		routes = append(routes,
			[2]string{"/metrics", "sorted metric snapshot (?format=json)"},
			[2]string{"/metrics.json", "metric snapshot, always JSON"})
	}
	if win != nil {
		mux.HandleFunc("/timeseries", serveTimeseries(win))
		routes = append(routes, [2]string{"/timeseries", "bucketed series + sparklines (?format=json)"})
	}
	if tr != nil {
		mux.HandleFunc("/traces", serveTraces(tr))
		routes = append(routes, [2]string{"/traces", "recent span trees (originator=, rcode=, format=json)"})
	}
	if eng != nil {
		mux.HandleFunc("/stream", serveStream(eng))
		routes = append(routes, [2]string{"/stream", "streaming-classifier snapshot (?format=json)"})
	}
	if al != nil {
		mux.HandleFunc("/alerts", serveAlerts(al))
		routes = append(routes, [2]string{"/alerts", "alert dashboard (state=, severity=, format=json)"})
	}
	routes = append(routes, [2]string{"/debug/", "expvar and pprof"})
	mux.Handle("/debug/", http.DefaultServeMux)
	mux.HandleFunc("/", serveIndex(routes))
	return mux
}

// alertLoop re-evaluates the alert rules every tick against the live
// window, trace ring, and stream status. The engine's watermark makes
// repeated evaluation idempotent per bucket, so ticking faster than the
// bucket width only costs the snapshot copy. Wall-clock pacing lives
// here in the operational main; the alert package itself is clocked
// purely by the bucket times in the data.
func alertLoop(al *alert.Engine, win *obs.Window, tr *trace.Tracer, eng *stream.Engine, every time.Duration) {
	for {
		time.Sleep(every)
		d := alert.Data{Series: win.Timeseries(), Through: simtime.Wall()}
		if tr != nil {
			d.Exemplars = tr.Exemplars
		}
		if eng != nil {
			d.Stream = eng.Status().Values()
		}
		al.Eval(d)
	}
}

// serveHTTP publishes the registry on expvar and runs the HTTP server
// until it fails or the process exits.
func serveHTTP(httpAddr string, mux *http.ServeMux, reg *obs.Registry) {
	expvar.Publish("backscatter", expvar.Func(func() any {
		var doc any
		// The snapshot is our own marshaling; re-parse so expvar nests it
		// as structured JSON rather than one giant string.
		if err := json.Unmarshal(reg.SnapshotJSON(), &doc); err != nil {
			return err.Error()
		}
		return doc
	}))
	srv := &http.Server{Addr: httpAddr, Handler: mux}
	fmt.Fprintf(os.Stderr, "bsserve: metrics on http://%s/metrics (pprof on /debug/pprof/)\n", httpAddr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "bsserve: http:", err)
	}
}

// seededZone is the profile source bsserve answers from: the same
// deterministic reverse-zone distribution the simulator uses, re-keyed by
// the server's seed. It builds a name only for the originators that have
// one, which the handler answers NOERROR.
func seededZone(seed uint64) dnssim.ProfileFunc {
	return func(a ipaddr.Addr) dnssim.OriginatorProfile { return dnssim.SeededProfile(a, seed) }
}

// categoryOf is the static querier category of a under the seeded zone,
// what qname.ClassifyQuerier makes of its name: every name the zone has
// is a HostName, whose leftmost token ("host") decides it, so none is built.
func categoryOf(seed uint64) func(ipaddr.Addr) qname.Category {
	named := qname.Classify(dnssim.HostName(0))
	return func(a ipaddr.Addr) qname.Category {
		if p := dnssim.SeededPosture(a, seed); !p.HasName || p.FinalUnreachable {
			return qname.ClassifyQuerier("", p.FinalUnreachable)
		}
		return named
	}
}

// newEngine builds the streaming engine that classifies live backscatter
// in bounded memory, ticking on record time (no model is loaded here, so
// it keeps sketches and heavy hitters without verdicts). Its geo view and
// querier categories come from the seeded zone the server answers from.
func newEngine(seed uint64, epoch time.Duration, maxOrig int, reg *obs.Registry) *stream.Engine {
	return stream.New(stream.Config{
		Geo:            geo.NewRegistry(seed),
		CategoryOf:     categoryOf(seed),
		Epoch:          simtime.Duration(epoch / time.Second),
		MaxOriginators: maxOrig,
		Seed:           seed,
		Obs:            reg,
	})
}

// sensorSink is the observation tap, one serve-loop batch at a time:
// windowed record counters (fed each record's own timestamp — an
// operational main may window on wall time; the library's determinism
// rules bind simulations, not servers) and the log, or stdout without
// one, per record; then the streaming engine, once for the batch. Nil reg
// and eng are skipped.
func sensorSink(reg *obs.Registry, eng *stream.Engine, lw *dnslog.Writer) dnsserver.Sink {
	recTotal := reg.Counter("served_records_total")
	recNX := reg.Counter("served_records_nxdomain_total")
	return func(rs []dnslog.Record) {
		for _, r := range rs {
			recTotal.IncAt(r.Time)
			if r.RCode == dnswire.RCodeNXDomain {
				recNX.IncAt(r.Time)
			}
			if lw == nil {
				fmt.Printf("%s\tPTR %s\tfrom %s\trcode %d\n", r.Time, r.Originator, r.Querier, r.RCode)
			} else if err := lw.Write(r); err != nil {
				fmt.Fprintln(os.Stderr, "bsserve: log:", err)
			}
		}
		if eng != nil {
			eng.Ingest(rs)
		}
	}
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:5353", "UDP listen address")
		seed       = flag.Uint64("seed", 1404, "world seed for the zone contents")
		logPath    = flag.String("log", "", "append observed backscatter records to this TSV file")
		name       = flag.String("authority", "final", "authority name in emitted records")
		httpAddr   = flag.String("http", "", "serve /metrics, /traces, /timeseries, /healthz, /readyz, /debug/vars, and /debug/pprof on this address")
		fspec      = flag.String("faults", "", `fault-injection profile@seed (e.g. "lossy@7"); empty disables`)
		trSamp     = flag.Uint64("trace-sample", 1, "trace 1 in N queries (0 disables tracing); served on /traces")
		trKeep     = flag.Int("trace-keep", 512, "bound the in-memory trace ring to the most recent N traces")
		window     = flag.Duration("window", time.Minute, "bucket width for the /timeseries record series")
		streamOn   = flag.Bool("stream", false, "feed observed records through the streaming classification engine (served on /stream)")
		streamEp   = flag.Duration("stream-epoch", time.Hour, "record-time re-scoring cadence of the streaming engine")
		streamMax  = flag.Int("stream-max", 1<<16, "bound the streaming engine's tracked originators")
		alertSpec  = flag.String("alerts", "", `evaluate this alert rule file against the live window (served on /alerts; "default" for the built-in rules); requires -http`)
		alertEvery = flag.Duration("alert-every", 15*time.Second, "re-evaluation cadence of the alert rules")
	)
	flag.Parse()

	if *alertSpec != "" && *httpAddr == "" {
		fmt.Fprintln(os.Stderr, "bsserve: -alerts requires -http (the engine evaluates the HTTP window)")
		os.Exit(2)
	}

	plan, err := backscatter.ParseFaults(*fspec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bsserve:", err)
		os.Exit(2)
	}

	if plan != nil {
		fmt.Fprintf(os.Stderr, "bsserve: injecting faults: %s\n", plan)
	}

	var reg *obs.Registry
	var tr *trace.Tracer
	var eng *stream.Engine
	var ready atomic.Bool
	if *httpAddr != "" {
		reg = obs.NewRegistry()
		reg.SetClock(simtime.Wall) // operational main: wall-backed spans
		win := obs.NewWindow(simtime.Duration(*window / time.Second))
		reg.SetWindow(win)
		if *trSamp > 0 {
			tr = trace.New(*seed, *trSamp)
			tr.SetMax(*trKeep)
		}
		if *streamOn {
			eng = newEngine(*seed, *streamEp, *streamMax, reg)
		}
		var al *alert.Engine
		if *alertSpec != "" {
			rules, err := alert.LoadRules(*alertSpec)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bsserve:", err)
				os.Exit(2)
			}
			al = alert.New(rules)
			fmt.Fprintf(os.Stderr, "bsserve: evaluating %d alert rules every %s on /alerts\n",
				len(rules), *alertEvery)
			go alertLoop(al, win, tr, eng, *alertEvery)
		}
		go serveHTTP(*httpAddr, newMux(reg, win, tr, eng, al, &ready), reg)
	} else if *streamOn {
		eng = newEngine(*seed, *streamEp, *streamMax, nil)
	}

	var lw *dnslog.Writer
	var logFile *os.File
	if *logPath != "" {
		if logFile, err = os.OpenFile(*logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bsserve:", err)
			os.Exit(1)
		}
		lw = dnslog.NewWriter(logFile)
	}

	// Zone, faults, metrics, tracer and sink are all part of the server
	// before it reads its first datagram: every query it counts it also
	// logs.
	s, err := dnsserver.Listen(*addr, dnsserver.Config{
		Authority: *name,
		Handler:   dnsserver.FinalHandler(seededZone(*seed)),
		Sink:      sensorSink(reg, eng, lw),
		Obs:       reg,
		Tracer:    tr,
		Faults:    plan,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bsserve:", err)
		os.Exit(1)
	}

	ready.Store(true)

	fmt.Fprintf(os.Stderr, "bsserve: authoritative for in-addr.arpa on %s (seed %d)\n", s.Addr(), *seed)
	fmt.Fprintf(os.Stderr, "bsserve: try: go run ./cmd/bsdig -server %s 8.8.8.8\n", s.Addr())

	// SIGTERM drains as SIGINT does: Close hands over every loop's batch,
	// then the log is flushed and closed, and a log that did not reach
	// the disk exits non-zero.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintf(os.Stderr, "\nbsserve: %d queries served, %d datagrams dropped\n", s.Queries(), s.Dropped())
	if eng != nil {
		st := eng.Status()
		fmt.Fprintf(os.Stderr, "bsserve: stream tracked %d/%d originators over %d records (%d epochs)\n",
			st.Tracked, st.MaxTracked, st.Records, st.Epochs)
	}
	_ = s.Close() // every batch reaches the sink before the sockets close
	if err := closeLog(lw, logFile); err != nil {
		fmt.Fprintln(os.Stderr, "bsserve: log:", err)
		os.Exit(1)
	}
}

// closeLog flushes lw and closes the file under it; a nil lw has nothing
// to close.
func closeLog(lw *dnslog.Writer, f io.Closer) error {
	if lw == nil {
		return nil
	}
	return errors.Join(lw.Flush(), f.Close())
}
