package world

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/faults"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/trace"
)

// weekConfig is large enough to fill several event batches, with every
// branch of the resolver walk live: 1:10 sampling at M-Root, a darknet,
// and a lossy network.
func weekConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.Duration = 7 * simtime.Day
	cfg.RateScale = 0.45
	cfg.MSample = 10
	cfg.DarknetSlash8 = 150
	cfg.Workers = workers
	return cfg
}

// TestRunWorkerInvariant runs one multi-batch world at workers {1, 2, 8}
// with faults, tracing and metrics on: every sensor's records, the trace
// log and the metric snapshot must not depend on how many goroutines ran
// the shards, and the world-sim shard counter must read batches x 16 at
// every worker count. Under -race it is also the check that shards share
// no mutable state, and that generating one batch shares none with
// resolving and merging the one before it.
func TestRunWorkerInvariant(t *testing.T) {
	type outputs struct {
		b, m, jp []dnslog.Record
		jsonl    string
		snap     string
	}
	run := func(workers int) outputs {
		cfg := weekConfig(workers)
		cfg.Duration = 2 * simtime.Day
		plan, err := faults.Parse("lossy@3")
		if err != nil {
			t.Fatal(err)
		}
		reg, tr := obs.NewRegistry(), trace.New(cfg.Seed, 16)
		cfg.Faults, cfg.Obs, cfg.Tracer = plan, reg, tr
		w := New(cfg)
		w.Run()
		events := reg.Counter("world_events_total").Value()
		shards := reg.Counter("parallel_shards_total", obs.L("stage", "world-sim")).Value()
		if want := (events + batchEvents - 1) / batchEvents * simShards; shards != want || shards < 3*simShards {
			t.Errorf("workers=%d: %d events ran as %d shards, want %d (and at least three batches)",
				workers, events, shards, want)
		}
		return outputs{w.BRoot.Records(), w.MRoot.Records(), w.National["jp"].Records(),
			string(tr.JSONL()), string(reg.Snapshot())}
	}
	want := run(1)
	if len(want.b) == 0 || len(want.m) == 0 || len(want.jp) == 0 || want.jsonl == "" {
		t.Fatal("the one-worker run produced an empty output")
	}
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: outputs differ from the one-worker run", workers)
		}
	}
}

// TestHorizonNeverPassesALookup builds a world of M-Root DITL's shape,
// which generates several batches per simulated day, and checks the
// promise behind every shard table's horizon: it never moves back, and no
// lookup comes before the horizon in force. The hook checks each batch's
// first walks; the tables themselves panic on any cache operation before
// their horizon, which covers the TTL-violator re-queries and the writes
// of each walk. The world must also have a batch that reaches back before
// an earlier batch's earliest event, the case for which a horizon at the
// batch's earliest event would be wrong.
func TestHorizonNeverPassesALookup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 1415
	cfg.RateScale = 0.8
	cfg.JPShare = 0.12
	cfg.DarknetSlash8 = 150
	cfg.ClassPopulation[activity.Spam] = 36
	cfg.ClassPopulation[activity.Scan] = 30
	cfg.ClassPopulation[activity.Mail] = 22
	cfg.ClassPopulation[activity.CDN] = 14
	cfg.ClassPopulation[activity.P2P] = 12
	w := New(cfg)
	var horizon, latest simtime.Time
	batches, reachBack := 0, false
	w.staged = func(b *batch) {
		if b.horizon < horizon {
			t.Errorf("batch %d: horizon %v moved back from %v", batches, b.horizon, horizon)
		}
		horizon = b.horizon
		earliest := simtime.Time(math.MaxInt64)
		for s := range b.shards {
			for _, rq := range b.shards[s].reqs {
				if rq.t < horizon {
					t.Errorf("batch %d: a lookup at %v precedes the horizon %v", batches, rq.t, horizon)
				}
				earliest = min(earliest, rq.t)
			}
		}
		reachBack = reachBack || earliest < latest
		latest = max(latest, earliest)
		batches++
	}
	w.Run()
	if days := int(cfg.Duration/simtime.Day) + 1; batches < 2*days || !reachBack {
		t.Errorf("%d batches over %d days, reaching back %v: want several a day, one reaching back",
			batches, days, reachBack)
	}
}

// TestShardPanicReachesRun: a panic in a shard walk, which happens on the
// stage goroutine, is re-raised where Run waits for the batch, at every
// worker count.
func TestShardPanicReachesRun(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := smallConfig()
		cfg.Workers = workers
		w := New(cfg)
		b := &w.bufs[w.cur]
		b.ctxs = append(b.ctxs, campaignCtx{})
		b.shards[3].reqs = append(b.shards[3].reqs, request{}) // no querier: the walk panics
		b.order = append(b.order, 3)
		w.flush()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("workers=%d: the shard's panic did not reach the waiting goroutine", workers)
				}
			}()
			w.wait()
		}()
	}
}

// TestSetProfileAfterLookup: a profile installed after the originator was
// already resolved must take effect. The hierarchy used to memoize
// profiles per originator forever, so ControlledScan's TTL-0 record was
// silently ignored for any prober some resolver had looked up before.
func TestSetProfileAfterLookup(t *testing.T) {
	w := New(smallConfig())
	origin := ipaddr.MustParse("100.64.7.9")
	final := w.attachFinal(origin.Slash16())
	r := dnssim.NewResolver(ipaddr.MustParse("10.9.8.7"), 0, 0.5, 64, rng.New(1))
	t0 := w.Cfg.Start

	w.SetProfile(origin, dnssim.OriginatorProfile{HasName: true, Name: "old.example", TTL: simtime.Hour})
	w.hier.Resolve(r, origin, t0)
	w.SetProfile(origin, dnssim.OriginatorProfile{HasName: true, Name: "prober.example", TTL: 0})

	before := final.Seen()
	t1 := t0.Add(2 * simtime.Hour) // the first answer has expired
	w.hier.Resolve(r, origin, t1)
	w.hier.Resolve(r, origin, t1.Add(1))
	if got := final.Seen() - before; got != 2 {
		t.Errorf("final authority saw %d of 2 lookups after SetProfile(TTL 0); the new profile was ignored", got)
	}
}

// TestZipfTableExact compares the threshold table with the formula it
// replaces: at and around every threshold, and on a few million hashes.
func TestZipfTableExact(t *testing.T) {
	p := newTestPool(1)
	formula := func(h uint64) int {
		for i := 0; i < 64; i++ {
			if r := zipfDraw(h >> 11); r < querierRanks {
				return r
			}
			h = mix64(h, uint64(i)+1)
		}
		return querierRanks - 1
	}
	for k, th := range p.zipf {
		for d := -2; d <= 2; d++ {
			x := uint64(int64(th) + int64(d))
			want := zipfDraw(x)
			if want >= querierRanks {
				continue // rejected draws re-hash; covered below
			}
			if got := p.zipfRank(x << 11); got != want {
				t.Fatalf("threshold %d%+d: rank %d, formula %d", k, d, got, want)
			}
		}
	}
	st := rng.New(5)
	for i := 0; i < 3_000_000; i++ {
		h := st.Uint64()
		if got, want := p.zipfRank(h), formula(h); got != want {
			t.Fatalf("hash %#x: rank %d, formula %d", h, got, want)
		}
	}
}

// BenchmarkWorldRun times World.Run alone on the multi-batch week at
// 1, 2, 4 and 8 resolve workers, so the sharding's own contribution reads
// apart from the single-thread gains (flat caches, Zipf table) all share.
// Run it with -cpu 1,2,... to see how generation overlapping the resolve
// phase scales with cores.
func BenchmarkWorldRun(b *testing.B) {
	reg := obs.NewRegistry()
	cfg := weekConfig(1)
	cfg.Obs = reg
	New(cfg).Run()
	events := float64(reg.Counter("world_events_total").Value())

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := New(weekConfig(workers))
				w.Run()
			}
			b.ReportMetric(events*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
