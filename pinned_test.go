// Cross-commit output pins. Every other golden in this package compares a
// build against another build of the same commit (workers 1 vs 8, reuse on
// vs off), so a change that moved every worker count the same way would
// pass them all. The digests in testdata/digests.txt were recorded once
// and may only change in a commit that says it changes simulator output.
package backscatter_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"testing"

	backscatter "dnsbackscatter"
	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/faults"
	"dnsbackscatter/internal/golden"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/world"
)

// worldPins holds one FNV-1a digest per output surface of a build.
type worldPins struct {
	BRoot, MRoot, JP uint64 // every sensor's records, in arrival order
	Labels           uint64 // curated ground truth, sorted by originator
	Trace            uint64 // trace JSONL
	Obs              uint64 // every metric line plus the windowed series
}

// filePins holds what the sensors counted before sampling (Table I reads
// these through Dataset.ReverseQueries) and FNV-1a digests of the
// dataset's records in both on-disk formats.
type filePins struct {
	Seen         [3]uint64 // b-root, m-root, jp
	Log, Capture uint64    // WriteLog and WriteCapture bytes of ds.Records
}

func seenBy(w *world.World) [3]uint64 {
	return [3]uint64{w.BRoot.Seen(), w.MRoot.Seen(), w.National["jp"].Seen()}
}

func fnvOf(write func(w io.Writer)) uint64 {
	h := fnv.New64a()
	write(h)
	return h.Sum64()
}

func recordsPin(recs []backscatter.Record) uint64 {
	return fnvOf(func(b io.Writer) {
		for _, r := range recs {
			fmt.Fprintf(b, "%d %d %d %s %d\n", r.Time, r.Originator, r.Querier, r.Authority, r.RCode)
		}
	})
}

// worldSimStage marks the metric lines of the simulation's own worker
// pool, the one series family a build may carry that the commit the pins
// were recorded on did not register.
var worldSimStage = []byte(`stage="world-sim"`)

// pinsOf digests one build. Labels, Trace, Obs and the two file digests
// come from the dataset itself; the per-sensor record digests come from a
// second, uninstrumented world on the configuration the build derived,
// because a build keeps the records of its own authority only.
func pinsOf(t *testing.T, spec backscatter.DatasetSpec) (worldPins, filePins, uint64) {
	t.Helper()
	reg := backscatter.NewRegistry()
	reg.SetClock(obs.TickClock(1))
	reg.SetWindow(obs.NewWindow(6 * 3600))
	ds := backscatter.BuildObserved(spec, reg)

	cfg := ds.World.Cfg
	cfg.Obs, cfg.Tracer, cfg.Acct = nil, nil, nil
	cfg.Keep = ""                             // every sensor's records, not only the dataset's
	cfg.Faults, _ = faults.Parse(spec.Faults) // the build's plan counts into reg
	w := world.New(cfg)
	w.Run()
	if w.BRoot.Len() == 0 || w.MRoot.Len() == 0 || w.National["jp"].Len() == 0 {
		t.Fatalf("%s: a sensor recorded nothing; its pin would be vacuous", spec.Name)
	}

	p := worldPins{
		BRoot: recordsPin(w.BRoot.Records()),
		MRoot: recordsPin(w.MRoot.Records()),
		JP:    recordsPin(w.National["jp"].Records()),
		Trace: fnvOf(func(b io.Writer) { b.Write(ds.Tracer().JSONL()) }),
	}
	sensor := map[string]int{"b-root": 0, "m-root": 1, "jp": 2}[spec.Authority]
	if got, want := recordsPin(ds.Records), [3]uint64{p.BRoot, p.MRoot, p.JP}[sensor]; got != want {
		t.Errorf("%s: ds.Records digest %#x, the %s sensor's in an all-sensor world %#x", spec.Name, got, spec.Authority, want)
	}
	f := filePins{
		Seen: seenBy(w),
		Log: fnvOf(func(b io.Writer) {
			if err := backscatter.WriteLog(b, ds.Records); err != nil {
				t.Fatal(err)
			}
		}),
		Capture: fnvOf(func(b io.Writer) {
			if err := backscatter.WriteCapture(b, ds.Records); err != nil {
				t.Fatal(err)
			}
		}),
	}
	for i, s := range []*dnssim.Sensor{ds.World.BRoot, ds.World.MRoot, ds.World.National["jp"]} {
		if s.CountOnly == (i == sensor) || i == sensor && s.Len() != 0 {
			t.Errorf("%s: sensor %s: count-only %v, want the build to have taken %s's records and kept no other's",
				spec.Name, s.Name, s.CountOnly, spec.Authority)
		}
	}
	if got := seenBy(ds.World); got != f.Seen {
		t.Errorf("%s: the dataset's sensors saw %d queries, an all-sensor world's %d", spec.Name, got, f.Seen)
	}
	if got := ds.ReverseQueries(); got != f.Seen[sensor] {
		t.Errorf("%s: ReverseQueries() = %d, the %s sensor saw %d", spec.Name, got, spec.Authority, f.Seen[sensor])
	}
	p.Labels = fnvOf(func(b io.Writer) {
		addrs := make([]backscatter.Addr, 0, len(ds.Labels.Labels))
		for a := range ds.Labels.Labels {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			fmt.Fprintf(b, "%d %s\n", a, ds.Labels.Labels[a])
		}
	})
	p.Obs = fnvOf(func(b io.Writer) {
		for _, line := range bytes.SplitAfter(reg.Snapshot(), []byte("\n")) {
			if !bytes.Contains(line, worldSimStage) {
				b.Write(line)
			}
		}
		b.Write(reg.Window().SnapshotJSON())
	})
	shards := reg.Counter("parallel_shards_total", obs.Label{Key: "stage", Value: "world-sim"}).Value()
	return p, f, shards
}

// pins lists one build's digests as manifest key and value pairs, each
// value formatted as it was recorded.
func (p worldPins) pins(f filePins) [][2]string {
	hex := func(v uint64) string { return fmt.Sprintf("%#016x", v) }
	return [][2]string{
		{"broot", hex(p.BRoot)}, {"mroot", hex(p.MRoot)}, {"jp", hex(p.JP)},
		{"labels", hex(p.Labels)}, {"trace", hex(p.Trace)}, {"obs", hex(p.Obs)},
		{"seen-broot", fmt.Sprint(f.Seen[0])}, {"seen-mroot", fmt.Sprint(f.Seen[1])}, {"seen-jp", fmt.Sprint(f.Seen[2])},
		{"log", hex(f.Log)}, {"capture", hex(f.Capture)},
	}
}

// TestWorldOutputsPinned builds three small datasets that between them
// enter every branch of the simulator's hot loop — 1:10 sampling with the
// Heartbleed burst, fault injection with tracing, the national sensor
// with darknet draws and scan teams, one per authority — at workers
// {1, 2, 8}, and compares every output surface with its world/ digests in
// testdata/digests.txt. The record, label, trace and metric digests were
// recorded at PR 14; the counts and file digests at PR 21, on the
// 40-byte Record whose Authority was a string.
func TestWorldOutputsPinned(t *testing.T) {
	sampled := backscatter.MSampled().Scaled(0.08)
	sampled.Start = simtime.Date(2014, 3, 31, 0, 0)
	sampled.Duration = 21 * 86400

	lossy := backscatter.BPostDitl().Scaled(0.3).WithFaults("lossy@7").WithTracing(8)

	national := backscatter.JPDitl().Scaled(0.3)
	national.TeamProb = 0.5

	for _, tc := range []struct {
		name string
		spec backscatter.DatasetSpec
	}{
		{"m-sampled", sampled},
		{"lossy-traced", lossy},
		{"jp-national", national},
	} {
		var shards1 uint64
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				got, file, shards := pinsOf(t, tc.spec.WithParallelism(workers))
				for _, kv := range got.pins(file) {
					golden.Digest(t, "world/"+tc.name+"/"+kv[0], kv[1])
				}
				if workers == 1 {
					shards1 = shards
				} else if shards != shards1 {
					t.Errorf("parallel_shards_total{stage=\"world-sim\"} = %d, %d at workers=1", shards, shards1)
				}
			})
		}
	}
}
