package trace

import (
	"strings"
	"sync"
	"testing"

	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/simtime"
)

func addr(s string) ipaddr.Addr {
	a, err := ipaddr.Parse(s)
	if err != nil {
		panic(err)
	}
	return a
}

// sampleTrace drives one synthetic lookup through every span method and
// commits it.
func sampleTrace(t *Tracer, querier, orig ipaddr.Addr, now simtime.Time) *Ctx {
	c := t.Begin(querier, orig, now)
	c.Activity("scan", "tcp22")
	c.Query("root", 1, now)
	c.Fault("root", 1, "loss", now)
	c.Query("root", 2, now.Add(2))
	c.Answer("root", 0, 0, now.Add(2))
	c.Query("final", 1, now.Add(3))
	c.Fault("final", 1, "truncate", now.Add(3))
	c.TCP("final", 1, now.Add(4))
	c.Answer("final", 3, 1, now.Add(4))
	c.Sensor("b-root", orig, querier, 3, now.Add(2))
	c.Finish(now.Add(5), 4)
	return c
}

func TestIDOfPure(t *testing.T) {
	a := IDOf(7, 1, 2, 3)
	if b := IDOf(7, 1, 2, 3); a != b {
		t.Fatalf("IDOf not pure: %s vs %s", a, b)
	}
	for _, other := range []ID{IDOf(8, 1, 2, 3), IDOf(7, 2, 2, 3), IDOf(7, 1, 3, 3), IDOf(7, 1, 2, 4)} {
		if other == a {
			t.Errorf("IDOf collision on changed input: %s", a)
		}
	}
}

func TestNilTracerAndCtxAreNoOps(t *testing.T) {
	var tr *Tracer
	if c := tr.Begin(1, 2, 0); c != nil {
		t.Fatal("nil tracer Begin returned a context")
	}
	tr.SetMax(5)
	tr.Pipeline(1, 0, "dedup", "kept", "", 0)
	if tr.Sample() != 0 || tr.Dropped() != 0 || tr.Len() != 0 {
		t.Error("nil tracer accessors not zero")
	}
	if _, _, ok := tr.RecordID(1, 2, 3); ok {
		t.Error("nil tracer RecordID reported a join")
	}
	if got := tr.JSONL(); len(got) != 0 {
		t.Errorf("nil tracer JSONL = %q", got)
	}
	if ts := tr.Traces(Filter{}); ts != nil {
		t.Errorf("nil tracer Traces = %v", ts)
	}

	var c *Ctx // tracing off or sampled out: every span method no-ops
	if c.ID() != 0 {
		t.Error("nil ctx ID != 0")
	}
	c.Activity("scan", "tcp22")
	c.CacheHit(1)
	c.Query("root", 1, 1)
	c.Fault("root", 1, "loss", 1)
	c.Answer("root", 0, 0, 1)
	c.TCP("root", 1, 1)
	c.GiveUp("root", 1)
	c.Serve("jp", "noerror", 1)
	c.Sensor("jp", 1, 2, 0, 1)
	c.Finish(2, 1)
}

func TestNilBeginAllocatesNothing(t *testing.T) {
	var tr *Tracer
	n := testing.AllocsPerRun(1000, func() {
		c := tr.Begin(1, 2, 42)
		c.Query("root", 1, 42)
		c.Finish(43, 1)
	})
	if n != 0 {
		t.Fatalf("disabled tracing path allocates %.1f objects/op, want 0", n)
	}
}

func TestSamplingIsDeterministicSubset(t *testing.T) {
	full := New(9, 1)
	sampled := New(9, 4)
	kept := 0
	for i := 0; i < 512; i++ {
		q, o := ipaddr.Addr(i*7+1), ipaddr.Addr(i*13+5)
		if full.Begin(q, o, simtime.Time(i)) == nil {
			t.Fatalf("full tracer dropped lookup %d", i)
		}
		c := sampled.Begin(q, o, simtime.Time(i))
		again := sampled.Begin(q, o, simtime.Time(i))
		if (c == nil) != (again == nil) {
			t.Fatalf("sampling decision for lookup %d not deterministic", i)
		}
		if c != nil {
			if uint64(c.ID())%4 != 0 {
				t.Fatalf("kept trace %s violates id%%4==0", c.ID())
			}
			kept++
		}
	}
	if kept == 0 || kept == 512 {
		t.Fatalf("1-in-4 sampler kept %d of 512", kept)
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(1, 1)
	tr.SetMax(3)
	tr.SetMax(-1) // negative clears the bound...
	tr.SetMax(3)  // ...and re-bounding before commits is allowed
	var first ID
	for i := 0; i < 5; i++ {
		c := tr.Begin(ipaddr.Addr(i+1), ipaddr.Addr(i+100), simtime.Time(i*10))
		if i == 0 {
			first = c.ID()
		}
		c.Finish(simtime.Time(i*10+1), 1)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want ring max 3", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", tr.Dropped())
	}
	ts := tr.Traces(Filter{})
	if len(ts) != 3 {
		t.Fatalf("Traces returned %d, want 3", len(ts))
	}
	for _, x := range ts {
		if x.ID == first {
			t.Error("oldest trace survived eviction")
		}
	}
	// Oldest-first: T0 must be sorted ascending.
	for i := 1; i < len(ts); i++ {
		if ts[i].T0 < ts[i-1].T0 {
			t.Errorf("traces out of order: %d before %d", ts[i].T0, ts[i-1].T0)
		}
	}
}

// TestRingEvictionUnindexes pins the bounded tracer's memory: a trace the
// ring evicts takes its record keys out of the join index, so a live
// server tracing every query holds at most max traces' keys.
func TestRingEvictionUnindexes(t *testing.T) {
	tr := New(1, 1)
	tr.SetMax(8)
	const n = 10_000
	ids := make([]ID, n)
	for i := range ids {
		q, o, now := ipaddr.Addr(i%97+1), ipaddr.Addr(i+100), simtime.Time(i)
		c := tr.Begin(q, o, now)
		c.Sensor("final", o, q, 0, now)
		c.Finish(now, 1)
		ids[i] = c.ID()
	}
	tr.mu.Lock()
	keys := len(tr.index)
	tr.mu.Unlock()
	if keys > 8 {
		t.Errorf("index holds %d keys after %d traces through a ring of 8", keys, n)
	}
	for i, want := range ids {
		id, _, ok := tr.RecordID(ipaddr.Addr(i+100), ipaddr.Addr(i%97+1), simtime.Time(i))
		if held := i >= n-8; ok != held || (ok && id != want) {
			t.Fatalf("RecordID of trace %d = (%s, %v), want held=%v", i, id, ok, held)
		}
	}
}

func TestSensorJoinAndPipeline(t *testing.T) {
	tr := New(3, 1)
	q, o := addr("10.0.0.2"), addr("192.0.2.7")
	c := sampleTrace(tr, q, o, 100)

	id, t0, ok := tr.RecordID(o, q, 102)
	if !ok {
		t.Fatal("RecordID missed the sensor join")
	}
	if id != c.ID() || t0 != 100 {
		t.Fatalf("RecordID = (%s, %d), want (%s, 100)", id, t0, c.ID())
	}
	if _, _, ok := tr.RecordID(o, q, 999); ok {
		t.Error("RecordID joined an unknown record time")
	}

	tr.Pipeline(id, t0, "dedup", "kept", "", 102)
	tr.Pipeline(id, t0, "filter", "dropped", "queriers=1", 110)
	tr.Pipeline(id, t0, "extract", "vector", "queriers=9", 110)
	tr.Pipeline(id, t0, "classify", "spam", "", 110)
	tr.Pipeline(id, t0, "mystery", "x", "", 110)

	ts := tr.Traces(Filter{})
	if len(ts) != 1 {
		t.Fatalf("Traces = %d, want 1", len(ts))
	}
	var stages []string
	for _, ev := range ts[0].Events {
		if ev.Kind == KindPipeline {
			stages = append(stages, ev.Stage)
		}
	}
	want := []string{"dedup", "filter", "extract", "classify", "mystery"}
	if len(stages) != len(want) {
		t.Fatalf("pipeline stages = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("pipeline stages sorted as %v, want fixed-seq order %v", stages, want)
		}
	}
}

// TestSensorIndexFirstWriteWins: the join index holds committed traces,
// and a record key two traces kept stays with the first one committed.
func TestSensorIndexFirstWriteWins(t *testing.T) {
	tr := New(3, 1)
	a := tr.Begin(1, 2, 10)
	a.Sensor("jp", 2, 1, 0, 11)
	b := tr.Begin(3, 2, 10)
	b.Sensor("jp", 2, 1, 0, 11) // same record key from another trace
	if _, _, ok := tr.RecordID(2, 1, 11); ok {
		t.Fatal("RecordID joined a trace before its commit")
	}
	a.Finish(12, 1)
	b.Finish(12, 1)
	id, _, ok := tr.RecordID(2, 1, 11)
	if !ok || id != a.ID() {
		t.Fatalf("RecordID = (%s, %v), want first writer %s", id, ok, a.ID())
	}
}

func TestFilterMatching(t *testing.T) {
	tr := New(5, 1)
	q1, o1 := addr("10.0.0.1"), addr("203.0.113.9")
	sampleTrace(tr, q1, o1, 50) // nxdomain, dur 5
	c := tr.Begin(addr("10.0.0.2"), addr("203.0.113.10"), 60)
	c.CacheHit(60)
	c.Finish(60, 0) // dur 0, no rcode events

	cases := []struct {
		name string
		f    Filter
		want int
	}{
		{"all", Filter{}, 2},
		{"originator", Filter{Originator: o1.String()}, 1},
		{"originator-miss", Filter{Originator: "8.8.8.8"}, 0},
		{"querier", Filter{Querier: "10.0.0.2"}, 1},
		{"rcode", Filter{RCode: "nxdomain"}, 1},
		{"mindur", Filter{MinDur: 3}, 1},
		{"limit", Filter{Limit: 1}, 1},
	}
	for _, tc := range cases {
		if got := len(tr.Traces(tc.f)); got != tc.want {
			t.Errorf("%s: matched %d traces, want %d", tc.name, got, tc.want)
		}
	}
}

func TestIDTextForms(t *testing.T) {
	id := ID(0xdeadbeef)
	if id.String() != "00000000deadbeef" {
		t.Fatalf("String = %q", id.String())
	}
	back, err := ParseID(id.String())
	if err != nil || back != id {
		t.Fatalf("ParseID round-trip = (%v, %v)", back, err)
	}
	if _, err := ParseID("not-hex"); err == nil {
		t.Error("ParseID accepted garbage")
	}
	j, err := id.MarshalJSON()
	if err != nil || string(j) != `"00000000deadbeef"` {
		t.Fatalf("MarshalJSON = (%s, %v)", j, err)
	}
	var u ID
	if err := u.UnmarshalJSON(j); err != nil || u != id {
		t.Fatalf("UnmarshalJSON = (%v, %v)", u, err)
	}
	if err := u.UnmarshalJSON([]byte(`42`)); err == nil {
		t.Error("UnmarshalJSON accepted a bare number")
	}
}

func TestRCodeName(t *testing.T) {
	for rc, want := range map[uint8]string{0: "noerror", 2: "servfail", 3: "nxdomain", 5: "5"} {
		if got := RCodeName(rc); got != want {
			t.Errorf("RCodeName(%d) = %q, want %q", rc, got, want)
		}
	}
}

func TestGiveUpAndServeEvents(t *testing.T) {
	tr := New(2, 1)
	c := tr.Begin(1, 2, 7)
	c.Query("final", 1, 7)
	c.GiveUp("final", 12)
	c.Serve("jp", "silent", 12)
	c.Finish(12, 1)
	out := tr.JSONL()
	for _, want := range []string{`"kind":"giveup"`, `"kind":"serve"`, `"rcode":"silent"`} {
		if !strings.Contains(string(out), want) {
			t.Errorf("JSONL missing %s:\n%s", want, out)
		}
	}
}

// TestTapKeepCommit: a tentative sensor event survives Commit only when
// kept, survivors are numbered consecutively in path order, and only kept
// records join the record index.
func TestTapKeepCommit(t *testing.T) {
	tr := New(1, 1)
	c := tr.Begin(1, 2, 10)
	c.Query("root", 1, 10)
	dropped := c.Tap("m-root", 0, 10)
	kept := c.Tap("m-root", 0, 13)
	c.Answer("root", 0, 0, 10)
	c.Done(13, 1)
	if tr.Len() != 0 {
		t.Fatal("Done committed the trace")
	}
	c.Keep(kept, 2, 1)
	c.Commit()

	got, _ := tr.committed()
	if len(got) != 1 {
		t.Fatalf("committed %d traces, want 1", len(got))
	}
	var kinds []string
	for i, ev := range got[0].Events {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		kinds = append(kinds, ev.Kind)
	}
	if want := "lookup query sensor answer done"; strings.Join(kinds, " ") != want {
		t.Errorf("events = %v, want %s", kinds, want)
	}
	if _, _, ok := tr.RecordID(2, 1, 13); !ok {
		t.Error("kept record is not indexed")
	}
	if _, _, ok := tr.RecordID(2, 1, 10); ok {
		t.Errorf("tap %d was never kept but its record is indexed", dropped)
	}
}

// TestRingReadWhileCommitting reads a bounded ring through Traces, JSONL
// and Exemplars while two goroutines commit through it, as /traces and
// the alert loop do while a server serves: every trace read is whole
// (run it under -race: the ring reuses evicted traces' events).
func TestRingReadWhileCommitting(t *testing.T) {
	tr := New(1, 1)
	tr.SetMax(16)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				q, o, now := ipaddr.Addr(w+1), ipaddr.Addr(i), simtime.Time(i)
				c := tr.Begin(q, o, now)
				c.Sensor("final", o, q, 0, now)
				c.Serve("final", "noerror", now)
				c.Finish(now, 1)
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		for _, x := range tr.Traces(Filter{}) {
			if len(x.Events) != 4 || x.Events[0].Kind != KindLookup || x.Events[3].Trace != x.ID ||
				x.Events[0].Orig != ipaddr.Addr(x.T0).String() {
				t.Fatalf("torn trace: %+v", x)
			}
		}
		_ = tr.JSONL()
		_ = tr.Exemplars(0, 2000, 3)
	}
}

// TestLookupRendersAddresses: the lookup event renders both addresses,
// the recursor's querier 0 as well.
func TestLookupRendersAddresses(t *testing.T) {
	tr := New(1, 1)
	tr.Begin(0, addr("192.0.2.7"), 5).Finish(5, 0)
	if out := string(tr.JSONL()); !strings.Contains(out, `"kind":"lookup","querier":"0.0.0.0","orig":"192.0.2.7"`) {
		t.Errorf("lookup event:\n%s", out)
	}
}
