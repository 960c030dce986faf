package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/simtime"
)

// populate commits n synthetic traces plus pipeline extras, in an order
// scrambled by ord to prove commit order cannot reach the output bytes.
func populate(tr *Tracer, n int, ord *rand.Rand) {
	idx := ord.Perm(n)
	for _, i := range idx {
		q, o := ipaddr.Addr(i*3+1), ipaddr.Addr(i*11+7)
		now := simtime.Time(1000 + i*5)
		c := sampleTrace(tr, q, o, now)
		if id, t0, ok := tr.RecordID(o, q, now.Add(2)); ok {
			tr.Pipeline(id, t0, "dedup", "kept", "", now.Add(2))
			tr.Pipeline(id, t0, "filter", "kept", "queriers=21", now.Add(9))
		}
		_ = c
	}
}

func TestJSONLCanonicalAcrossCommitOrders(t *testing.T) {
	a, b := New(11, 1), New(11, 1)
	populate(a, 20, rand.New(rand.NewSource(1)))
	populate(b, 20, rand.New(rand.NewSource(99)))
	ja, jb := a.JSONL(), b.JSONL()
	if len(ja) == 0 {
		t.Fatal("empty JSONL")
	}
	if !bytes.Equal(ja, jb) {
		t.Fatal("JSONL bytes depend on commit order")
	}
	// Lines must be sorted by (t0, trace, seq): re-rendering is stable.
	if !bytes.Equal(ja, a.JSONL()) {
		t.Fatal("JSONL not stable across renders")
	}
}

func TestParseJSONLRoundTrip(t *testing.T) {
	tr := New(11, 1)
	populate(tr, 8, rand.New(rand.NewSource(2)))
	parsed, err := ParseJSONL(bytes.NewReader(tr.JSONL()))
	if err != nil {
		t.Fatal(err)
	}
	live := tr.Traces(Filter{})
	if len(parsed) != len(live) {
		t.Fatalf("parsed %d traces, live %d", len(parsed), len(live))
	}
	for i := range parsed {
		if parsed[i].ID != live[i].ID || parsed[i].T0 != live[i].T0 {
			t.Fatalf("trace %d: parsed (%s, %d) vs live (%s, %d)",
				i, parsed[i].ID, parsed[i].T0, live[i].ID, live[i].T0)
		}
		if len(parsed[i].Events) != len(live[i].Events) {
			t.Fatalf("trace %d: %d events parsed, %d live", i, len(parsed[i].Events), len(live[i].Events))
		}
	}
}

func TestParseJSONLErrors(t *testing.T) {
	if _, err := ParseJSONL(strings.NewReader("{broken\n")); err == nil {
		t.Error("malformed line accepted")
	}
	ts, err := ParseJSONL(strings.NewReader("\n\n"))
	if err != nil || len(ts) != 0 {
		t.Errorf("blank input = (%v, %v), want empty", ts, err)
	}
}

func TestRenderTreeShowsFullPath(t *testing.T) {
	tr := New(13, 1)
	q, o := addr("10.9.9.9"), addr("198.51.100.4")
	c := sampleTrace(tr, q, o, 500)
	id, t0, _ := tr.RecordID(o, q, 502)
	tr.Pipeline(id, t0, "dedup", "kept", "", 502)
	got := RenderTree(tr.Traces(Filter{})[0])
	for _, want := range []string{
		c.ID().String(),
		"querier=10.9.9.9 orig=198.51.100.4",
		"activity  class=scan port=tcp22",
		"[root] +0s query attempt=1",
		"! fault=loss attempt=1",
		"answer rcode=noerror",
		"[final]   tcp retry attempt=1",
		"answer rcode=nxdomain lat=1s",
		"sensor[b-root] +2s recorded rcode=nxdomain",
		"done  +5s queries=4",
		"pipeline[dedup] kept",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("tree missing %q:\n%s", want, got)
		}
	}
}

func TestRenderTreeCacheHitAndGiveUp(t *testing.T) {
	tr := New(13, 1)
	c := tr.Begin(1, 2, 7)
	c.CacheHit(7)
	c.Finish(7, 0)
	g := tr.Begin(3, 4, 8)
	g.Query("root", 1, 8)
	g.GiveUp("root", 13)
	g.Serve("jp", "silent", 13)
	g.Finish(13, 1)
	ts := tr.Traces(Filter{})
	out := RenderTree(ts[0]) + RenderTree(ts[1])
	for _, want := range []string{"cache hit", "gave up", "\n  serve[jp] rcode=silent\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("trees missing %q:\n%s", want, out)
		}
	}
}

func TestSummarize(t *testing.T) {
	tr := New(17, 1)
	populate(tr, 12, rand.New(rand.NewSource(3)))
	g := tr.Begin(ipaddr.Addr(9000), ipaddr.Addr(9001), 2000)
	g.Query("national", 1, 2000)
	g.GiveUp("national", 2012)
	g.Finish(2012, 3)
	got := Summarize(tr.Traces(Filter{}), 5)
	for _, want := range []string{
		"traces: 13",
		"slowest chains (top 5):",
		"12s   3 queries",
		"give-up paths:",
		"national 1",
		"per-level injected latency",
		"final",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q:\n%s", want, got)
		}
	}
	if empty := Summarize(nil, 0); !strings.Contains(empty, "traces: 0") || !strings.Contains(empty, "(none)") {
		t.Errorf("empty summary:\n%s", empty)
	}
}

func TestFilterApplyOnParsed(t *testing.T) {
	tr := New(19, 1)
	populate(tr, 6, rand.New(rand.NewSource(4)))
	parsed, err := ParseJSONL(bytes.NewReader(tr.JSONL()))
	if err != nil {
		t.Fatal(err)
	}
	all := Filter{}.Apply(parsed)
	if len(all) != 6 {
		t.Fatalf("Apply kept %d, want 6", len(all))
	}
	two := Filter{Limit: 2}.Apply(parsed)
	if len(two) != 2 || two[1].ID != all[5].ID {
		t.Fatalf("Limit=2 kept the wrong tail")
	}
	nx := Filter{RCode: "nxdomain"}.Apply(parsed)
	if len(nx) != 6 {
		t.Fatalf("rcode filter kept %d, want all 6 sample traces", len(nx))
	}
}

func TestLatBucket(t *testing.T) {
	for d, want := range map[simtime.Duration]simtime.Duration{0: 0, 1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 9: 16} {
		if got := latBucket(d); got != want {
			t.Errorf("latBucket(%d) = %d, want %d", d, got, want)
		}
	}
}
