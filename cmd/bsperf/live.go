package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"dnsbackscatter/cmd/bsperf/stats"
	"dnsbackscatter/internal/dnswire"
)

const (
	// lanes is the number of client sockets (= nproc) and window the
	// queries each keeps outstanding (fewer than the TXID's slot numbers).
	// The loop is closed because a recursive resolver waits for the
	// authority's reply before it retries; eight outstanding per socket
	// keep the serve loop, not the two context switches of a round trip,
	// the bottleneck.
	lanes  = procs
	window = 8
	// replyTimeout is how long one transmission of a query may go
	// unanswered before the client sends it again, as a resolver does,
	// and attempts how many transmissions a query gets before it counts
	// as failed. A stall of the box (this one freezes for a fifth of a
	// second now and then, harness and child together) therefore costs
	// a retransmission, which is counted, and not a failed operation;
	// only a server that stays silent for a second, or a wrong reply,
	// fails one.
	replyTimeout = 200 * time.Millisecond
	attempts     = 5
	// rssMark is the number of queries a lane has sent when the child's
	// peak memory is read, 5-6 s into a 20 s run on the reference box.
	rssMark = 100_000
	// startTimeout bounds the wait for bsserve's listen line.
	startTimeout = 10 * time.Second
	// zoneSeedBase plus the run seed keys bsserve's synthetic zone.
	zoneSeedBase = 1404
)

// correctReply checks a reply byte for byte against the query: a
// response with the expected code, echoing the one question, carrying
// the PTR answer when the code is NOERROR. The caller has matched the
// TXID.
func correctReply(resp []byte, q *liveName) bool {
	if len(resp) < len(q.wire) || resp[2]&0x80 == 0 || resp[3]&0x0f != q.rcode {
		return false
	}
	if binary.BigEndian.Uint16(resp[4:6]) != 1 || !bytes.Equal(resp[12:len(q.wire)], q.wire[12:]) {
		return false
	}
	return q.rcode != dnswire.RCodeNoError || binary.BigEndian.Uint16(resp[6:8]) > 0
}

// laneStats is what one socket's closed loop saw. An operation is one
// query of the stream; sent counts datagrams, so it is queries plus
// retransmissions.
type laneStats struct {
	queries, sent        int
	correct, wrong, lost int       // operations: answered correctly, answered wrongly, given up on
	silent               int       // of queries: to silent names, not waited for
	timeouts             int       // transmissions that went a full replyTimeout unanswered
	lat                  []float64 // microseconds from first transmission, correct replies only
	slices               []int     // correct replies per slice
}

// A TXID carries the slot its query occupies in the low slotBits bits
// and the slot's transmission count above them, so a reply to a
// transmission already given up on is recognized as stale. unawaited is
// the slot number of queries to silent names.
const (
	slotBits  = 4
	unawaited = 1<<slotBits - 1
)

// pass describes one load pass: win queries outstanding per lane; with
// d == 0 the stream is sent once, otherwise the lanes lap through it for
// d and count correct replies per slice. If mark is set, a lane calls
// onMark once, when it has sent mark queries: a point of the pass that
// depends on the work done and not on the time it took.
type pass struct {
	win      int
	d, slice time.Duration
	mark     int
	onMark   func()
}

// drive runs one closed loop on conn against dst: p.win queries
// outstanding, the next sent as each is answered or given up on. A
// query unanswered for replyTimeout is sent again under a new TXID, up
// to attempts transmissions. It returns when every awaited query is
// answered or lost, or ctx ends; a socket error ends it at once,
// because a lane that cannot send measures nothing.
func drive(ctx context.Context, conn *net.UDPConn, dst *net.UDPAddr, names []liveName, sends []liveSend, p pass) (laneStats, error) {
	win, d, slice := p.win, p.d, p.slice
	type slot struct {
		send  liveSend
		lap   int
		txid  uint16
		uses  uint16    // transmissions from this slot, the TXID's high bits
		tries int       // transmissions of the query it holds
		first time.Time // the query's first transmission
		sent  time.Time // its latest
		busy  bool
	}
	var (
		st       laneStats
		slots    = make([]slot, win)
		next     int
		out      = make([]byte, 0, 128)
		buf      = make([]byte, 4096)
		oob, at  = sourceControl()
		start    = time.Now()
		busy     int
		writeErr error
	)
	write := func(s liveSend, lap int, txid uint16) {
		src := source(s.querier, lap)
		copy(oob[at:], src[:])
		out = append(out[:0], names[s.name].wire...)
		binary.BigEndian.PutUint16(out, txid)
		st.sent++
		_, _, writeErr = conn.WriteMsgUDP(out, oob, dst)
	}
	// transmit sends slot i's query under the slot's next TXID.
	transmit := func(i int, now time.Time) {
		sl := &slots[i]
		sl.uses++
		sl.tries++
		sl.txid = sl.uses<<slotBits | uint16(i)
		sl.sent = now
		write(sl.send, sl.lap, sl.txid)
	}
	// refill puts the stream's next awaited query into slot i, sending
	// the queries to silent names that come before it on the way, unless
	// the pass is over.
	refill := func(i int, now time.Time) {
		for ctx.Err() == nil && writeErr == nil {
			if (d == 0 && next == len(sends)) || (d > 0 && now.Sub(start) >= d) {
				return
			}
			s, lap := sends[next%len(sends)], next/len(sends)
			next++
			if st.queries++; st.queries == p.mark {
				p.onMark()
			}
			if names[s.name].silent {
				st.silent++
				write(s, lap, unawaited)
				continue
			}
			sl := &slots[i]
			sl.send, sl.lap, sl.tries, sl.first, sl.busy = s, lap, 0, now, true
			busy++
			transmit(i, now)
			return
		}
	}
	free := func(i int, now time.Time) {
		slots[i].busy = false
		busy--
		refill(i, now)
	}
	// timedOut sends slot i's query again, or gives up on it after its
	// last transmission.
	timedOut := func(i int, now time.Time) {
		st.timeouts++
		if slots[i].tries < attempts && ctx.Err() == nil {
			transmit(i, now)
			return
		}
		st.lost++
		free(i, now)
	}
	// refill runs to the next awaited query, so there has to be one.
	if !slices.ContainsFunc(sends, func(s liveSend) bool { return !names[s.name].silent }) {
		return st, errors.New("the lane's stream holds no answering name")
	}
	now := start
	for i := range slots {
		refill(i, now)
	}
	for busy > 0 && writeErr == nil {
		// The deadline belongs to the transmission that has waited longest,
		// so a lost reply times out on schedule however many others arrive.
		oldest := now
		for i := range slots {
			if slots[i].busy && slots[i].sent.Before(oldest) {
				oldest = slots[i].sent
			}
		}
		_ = conn.SetReadDeadline(oldest.Add(replyTimeout)) // fails only on a closed socket, which Read reports
		n, err := conn.Read(buf)
		now = time.Now()
		if err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				return st, err
			}
			for i := range slots {
				if slots[i].busy && now.Sub(slots[i].sent) >= replyTimeout && writeErr == nil {
					timedOut(i, now)
				}
			}
			continue
		}
		if n < 12 {
			st.wrong++
			continue
		}
		txid := binary.BigEndian.Uint16(buf)
		i := int(txid & unawaited)
		if i == unawaited {
			st.wrong++ // a silent name was answered
			continue
		}
		if i >= win || !slots[i].busy || slots[i].txid != txid {
			continue // stale: that transmission already timed out
		}
		s := &slots[i]
		switch {
		case now.Sub(s.sent) >= replyTimeout:
			timedOut(i, now) // answered, but too late to count
			continue
		case correctReply(buf[:n], &names[s.send.name]):
			st.correct++
			st.lat = append(st.lat, float64(now.Sub(s.first))/1e3)
			if d > 0 {
				k := int(now.Sub(start) / slice)
				for len(st.slices) <= k {
					st.slices = append(st.slices, 0)
				}
				st.slices[k]++
			}
		default:
			st.wrong++
		}
		free(i, now)
	}
	return st, writeErr
}

// load drives n lanes at addr, dealing sends out between them in turn so
// each lane keeps the stream's order, and merges what they saw. Only the
// first lane marks.
func load(ctx context.Context, addr *net.UDPAddr, names []liveName, sends []liveSend, n int, p pass) (laneStats, error) {
	per := make([]laneStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		// Unconnected and bound to every address: replies come back to
		// whichever loopback source a query claimed.
		conn, err := net.ListenUDP("udp4", &net.UDPAddr{})
		if err != nil {
			wg.Wait()
			return laneStats{}, err
		}
		var share []liveSend
		for j := i; j < len(sends); j += n {
			share = append(share, sends[j])
		}
		wg.Add(1)
		//nolint:concurrency — one goroutine per client socket, n fixed at two, all joined by wg.Wait below
		go func(i int, p pass) {
			defer wg.Done()
			defer conn.Close()
			per[i], errs[i] = drive(ctx, conn, addr, names, share, p)
		}(i, p)
		p.mark = 0
	}
	wg.Wait()
	var sum laneStats
	for _, st := range per {
		sum.queries += st.queries
		sum.sent += st.sent
		sum.correct += st.correct
		sum.wrong += st.wrong
		sum.lost += st.lost
		sum.silent += st.silent
		sum.timeouts += st.timeouts
		sum.lat = append(sum.lat, st.lat...)
		for k, c := range st.slices {
			for len(sum.slices) <= k {
				sum.slices = append(sum.slices, 0)
			}
			sum.slices[k] += c
		}
	}
	if err := errors.Join(errs...); err != nil {
		return sum, err
	}
	return sum, ctx.Err()
}

// addrWatcher collects a child's stderr and signals once the line
// naming its bound UDP address has appeared.
type addrWatcher struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	found bool
	addr  chan string
}

var (
	listenLine = regexp.MustCompile(`authoritative for in-addr\.arpa on (\S+) \(seed`)
	tallyLine  = regexp.MustCompile(`(\d+) queries served, (\d+) datagrams dropped`)
)

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.found {
		if m := listenLine.FindSubmatch(w.buf.Bytes()); m != nil {
			w.found = true
			w.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (w *addrWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// server is a running bsserve child.
type server struct {
	cmd      *exec.Cmd
	addr     *net.UDPAddr
	stderr   *addrWatcher
	logPath  string
	sent     int // datagrams this harness has sent it
	timeouts int // of those, the ones that went unanswered
}

// startServer launches bsserve as an operator would and waits for its
// listen line. The child dies with ctx.
func startServer(ctx context.Context, bin, logPath string, zoneSeed uint64) (*server, error) {
	w := &addrWatcher{addr: make(chan string, 1)}
	cmd := exec.CommandContext(ctx, bin,
		"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0", "-stream",
		"-seed", strconv.FormatUint(zoneSeed, 10), "-log", logPath)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = w
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, stderr: w, logPath: logPath}
	select {
	case a := <-w.addr:
		addr, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			s.kill()
			return nil, fmt.Errorf("bsserve listen address %q: %w", a, err)
		}
		s.addr = addr
		return s, nil
	case <-time.After(startTimeout):
	case <-ctx.Done():
	}
	s.kill()
	return nil, fmt.Errorf("bsserve did not announce its address within %v; stderr:\n%s", startTimeout, w)
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already gone is fine
	_ = s.cmd.Wait()
}

// run sends the server one load pass and keeps the books for stop.
func (s *server) run(ctx context.Context, names []liveName, sends []liveSend, n int, p pass) (laneStats, error) {
	st, err := load(ctx, s.addr, names, sends, n, p)
	s.sent += st.sent
	s.timeouts += st.timeouts
	return st, err
}

// stop interrupts the child, which makes it flush its log and print its
// tally, and returns the served and dropped counts and the log's line
// count.
func (s *server) stop() (served, dropped, logged int, err error) {
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		s.kill()
		return 0, 0, 0, err
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(startTimeout):
		_ = s.cmd.Process.Kill()
		<-done
		return 0, 0, 0, fmt.Errorf("bsserve ignored the interrupt; stderr:\n%s", s.stderr)
	}
	m := tallyLine.FindStringSubmatch(s.stderr.String())
	if m == nil {
		return 0, 0, 0, fmt.Errorf("bsserve printed no tally; stderr:\n%s", s.stderr)
	}
	served, _ = strconv.Atoi(m[1])
	dropped, _ = strconv.Atoi(m[2])
	data, err := os.ReadFile(s.logPath)
	if err != nil {
		return 0, 0, 0, err
	}
	return served, dropped, bytes.Count(data, []byte("\n")), nil
}

// audit checks the child's books against the harness's: every datagram
// sent was served and logged, give or take the ones that timed out.
func (s *server) audit(o *outcome, served, dropped, logged int) {
	if served > s.sent || served < s.sent-s.timeouts || logged != served || dropped != 0 {
		o.failf("bsserve accounts for %d served, %d dropped, %d logged; the harness sent %d, of which %d timed out",
			served, dropped, logged, s.sent, s.timeouts)
	}
}

// buildServer compiles this checkout's bsserve into dir.
func buildServer(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "bsserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "dnsbackscatter/cmd/bsserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build bsserve: %w\n%s", err, out)
	}
	return filepath.Abs(bin)
}

// liveFloor is the share of replies that must be correct.
const liveFloor = 0.99

// runLive is live-serve: the real bsserve binary over loopback, the
// only workload through dnswire, dnsserver and the cmd/bsserve wiring,
// feeding the streaming engine one record per Ingest call. Set-up
// (build the query stream, start the child, ask every answering name
// once so the engine's tracked set is full) runs setupReps times; the
// last child serves the timed phase.
func runLive(ctx context.Context, info workload, cfg config, log io.Writer) (*outcome, error) {
	o := &outcome{readings: make(map[string]float64)}
	bin, err := buildServer(ctx, cfg.dir)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.dir, "live-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var (
		srv    *server
		tr     *liveTraffic
		setups []float64
	)
	// Whatever happens below, no child outlives this function.
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	setupReps := cfg.sizes.setupReps
	if cfg.trace {
		setupReps = 1
	}
	zoneSeed := zoneSeedBase + cfg.seed
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			served, dropped, logged, err := srv.stop()
			if err != nil {
				return nil, err
			}
			srv.audit(o, served, dropped, logged)
		}
		tr = nil // one stream alive, as the in-process workloads keep one dataset
		runtime.GC()
		t0 := time.Now()
		if tr, err = newLiveTraffic(cfg.seed, zoneSeed, cfg.sizes); err != nil {
			return nil, err
		}
		logPath := filepath.Join(tmp, fmt.Sprintf("bs-%d.tsv", i))
		if srv, err = startServer(ctx, bin, logPath, zoneSeed); err != nil {
			return nil, err
		}
		warm, err := srv.run(ctx, tr.names, tr.first, lanes, pass{win: window})
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if warm.correct != len(tr.first) {
			o.failf("warm-up pass: %d of %d names answered correctly (%d wrong, %d lost)", warm.correct, len(tr.first), warm.wrong, warm.lost)
		}
	}
	fmt.Fprintf(log, "# %s: %s\n", info.name, tr.describe())

	m := o.readings
	d := cfg.duration()
	if cfg.trace {
		// A one-outstanding pass first: round-trip latency without
		// queueing behind the lane's other queries.
		w1, err := srv.run(ctx, tr.names, tr.sends, lanes, pass{win: 1, d: d / 4, slice: d})
		if err != nil {
			return nil, err
		}
		m["live.w1_lat_p50_us"] = stats.Median(w1.lat)
		d -= d / 4
	}
	slice := min(time.Second, d/4)
	cpu0, err := childCPUSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	// bsserve keeps its log in memory until it exits, so its peak grows
	// with every query served: read it after a fixed number of queries,
	// or it would be a second throughput metric.
	var (
		rss    float64
		rssErr error
	)
	st, err := srv.run(ctx, tr.names, tr.sends, lanes, pass{win: window, d: d, slice: slice, mark: rssMark,
		onMark: func() { rss, rssErr = peakRSSMB(srv.cmd.Process.Pid) }})
	if err != nil {
		return nil, err
	}
	cpu1, err := childCPUSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	if rss == 0 && rssErr == nil {
		// The pass ended before the mark (toy sizes, or a box at a third of
		// its speed): the peak of what was served is the best reading left.
		fmt.Fprintf(log, "# %s: fewer than %d queries per lane; peak_rss_mb is read at the end\n", info.name, rssMark)
		rss, rssErr = peakRSSMB(srv.cmd.Process.Pid)
	}
	if rssErr != nil {
		return nil, rssErr
	}
	served, dropped, logged, err := srv.stop()
	if err != nil {
		return nil, err
	}
	srv.audit(o, served, dropped, logged)
	srv = nil

	// Whole slices only: the last one is cut short by the deadline.
	var rates []float64
	for _, c := range st.slices[:min(len(st.slices), int(d/slice))] {
		rates = append(rates, float64(c)/slice.Seconds())
	}
	o.attempted, o.failed = st.queries, st.lost+st.wrong
	quality := 0.0
	if replies := st.correct + st.wrong; replies > 0 {
		quality = float64(st.correct) / float64(replies)
	}
	if quality < liveFloor {
		o.failf("quality %.4f is below the floor %.2f", quality, liveFloor)
	}
	failShare := float64(o.failed) / float64(max(o.attempted, 1))
	if failShare > 0.001 {
		o.failf("%d of %d queries got no correct answer in %d transmissions %v apart", o.failed, o.attempted, attempts, replyTimeout)
	}
	fmt.Fprintf(log, "# %s: %d queries (%d to silent names) in %d slices of %v, %d retransmitted, %d lost, %d wrong\n",
		info.name, st.queries, st.silent, len(rates), slice, st.sent-st.queries, st.lost, st.wrong)

	m["setup_s"] = stats.Median(setups)
	m["throughput_per_s"] = stats.Median(rates)
	m["peak_rss_mb"] = rss
	m["quality"] = quality
	if !cfg.trace {
		return o, nil
	}

	m["fail_share"] = failShare
	if st.sent > 0 {
		m["live.server_cpu_us_per_query"] = (cpu1 - cpu0) * 1e6 / float64(st.sent)
	}
	m["live.retransmits"] = float64(st.sent - st.queries)
	m["live.lat_p50_us"] = stats.Median(st.lat)
	// Each tail is reported only when ten samples lie beyond it.
	if v, ok := stats.Tail(st.lat, 99); ok {
		m["live.lat_p99_us"] = v
	}
	if v, ok := stats.Tail(st.lat, 99.9); ok {
		m["live.lat_p999_us"] = v
	}
	m["live.slice_spread"] = stats.Spread(rates)
	m["live.server_queries"] = float64(served)
	m["live.server_dropped"] = float64(dropped)
	m["live.log_records"] = float64(logged)
	m["live.lap_queries"] = float64(len(tr.sends))
	m["live.names"] = float64(len(tr.names))
	m["live.sources"] = float64(tr.sources)
	m["live.repeat_share"] = tr.repeatShare
	m["live.top1_share"] = tr.top1Share
	m["live.silent_share"] = tr.silentShare
	m["proc.reps"] = float64(len(rates))
	m["proc.rep_spread"] = m["live.slice_spread"]

	// Timed loops over the wire codec's public calls, as the serve loop
	// uses them: decode into a reused message, encode with a pooled
	// encoder.
	var msg dnswire.Message
	m["dnswire.decode_ns"] = timeLoop(cfg.sizes.microOps, func(i int) {
		_ = dnswire.DecodeInto(tr.names[i%len(tr.names)].wire, &msg) // a query this harness encoded
	})
	resp := dnswire.NewResponse(&msg, dnswire.RCodeNoError)
	resp.AddAnswer(dnswire.RR{Name: msg.Questions[0].Name, Type: dnswire.TypePTR, Class: dnswire.ClassIN, TTL: 3600, Target: "host.example.net"})
	enc := dnswire.AcquireEncoder()
	defer dnswire.ReleaseEncoder(enc)
	out := make([]byte, 0, 512)
	m["dnswire.encode_ns"] = timeLoop(cfg.sizes.microOps, func(int) {
		out, _ = enc.Encode(resp, out[:0]) // a well-formed response cannot fail to encode
	})
	return o, nil
}
