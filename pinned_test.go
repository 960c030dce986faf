// Cross-commit output pins. Every other golden in this package compares a
// build against another build of the same commit (workers 1 vs 8, reuse on
// vs off), so a change that moved every worker count the same way would
// pass them all. The digests below were recorded once and may only change
// in a commit that says it changes simulator output.
package backscatter_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"testing"

	backscatter "dnsbackscatter"
)

// worldPins holds one FNV-1a digest per output surface of a build.
type worldPins struct {
	BRoot, MRoot, JP uint64 // every sensor's records, in arrival order
	Labels           uint64 // curated ground truth, sorted by originator
	Trace            uint64 // trace JSONL
	Obs              uint64 // every metric line plus the windowed series
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

func pinsOf(t *testing.T, spec backscatter.DatasetSpec) (worldPins, uint64) {
	t.Helper()
	reg := backscatter.NewRegistry()
	reg.SetClock(backscatter.TickClock(1))
	reg.SetWindow(backscatter.NewWindow(6 * 3600))
	ds := backscatter.BuildObserved(spec, reg)
	w := ds.World
	if w.BRoot.Len() == 0 || w.MRoot.Len() == 0 || w.National["jp"].Len() == 0 {
		t.Fatalf("%s: a sensor recorded nothing; its pin would be vacuous", spec.Name)
	}

	p := worldPins{
		BRoot: recordsPin(w.BRoot.Records()),
		MRoot: recordsPin(w.MRoot.Records()),
		JP:    recordsPin(w.National["jp"].Records()),
		Trace: fnvOf(func(b io.Writer) { b.Write(ds.Tracer().JSONL()) }),
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
	shards := reg.Counter("parallel_shards_total", backscatter.Label{Key: "stage", Value: "world-sim"}).Value()
	return p, shards
}

// TestWorldOutputsPinned builds three small datasets that between them
// enter every branch of the simulator's hot loop — 1:10 sampling with the
// Heartbleed burst, fault injection with tracing, the national sensor
// with darknet draws and scan teams — at workers {1, 2, 8}, and compares
// every output surface with the recorded digests.
func TestWorldOutputsPinned(t *testing.T) {
	sampled := backscatter.MSampled().Scaled(0.08)
	sampled.Start = backscatter.Date(2014, 3, 31, 0, 0)
	sampled.Duration = 21 * 86400

	lossy := backscatter.BPostDitl().Scaled(0.3).WithFaults("lossy@7").WithTracing(8)

	national := backscatter.JPDitl().Scaled(0.3)
	national.TeamProb = 0.5

	for _, tc := range []struct {
		name string
		spec backscatter.DatasetSpec
		want worldPins
	}{
		{"m-sampled", sampled, worldPins{BRoot: 0x2a55b8f71df0b3b4, MRoot: 0xfe752e163af3d874, JP: 0xe8cef398a947f1d7,
			Labels: 0xaa0616ae47b1cf2c, Trace: 0xcbf29ce484222325, Obs: 0x2a65c0b03ea72c20}},
		{"lossy-traced", lossy, worldPins{BRoot: 0x9d4fd3afcc8ea09c, MRoot: 0x71205dc1d2ae2102, JP: 0x70c0c1d6ecd39fd2,
			Labels: 0x4a95d5d00d8befd1, Trace: 0x20bda4d240d78e9a, Obs: 0xc25f58896a122b31}},
		{"jp-national", national, worldPins{BRoot: 0xaabfd293451e73d7, MRoot: 0x0dadaade291d0482, JP: 0x53ad7ca5131d9d83,
			Labels: 0xad71894e2f745d57, Trace: 0xcbf29ce484222325, Obs: 0x347717e41673c833}},
	} {
		var shards1 uint64
		for _, workers := range []int{1, 2, 8} {
			got, shards := pinsOf(t, tc.spec.WithParallelism(workers))
			if got != tc.want {
				t.Errorf("%s workers=%d: outputs moved:\n got %#v\nwant %#v", tc.name, workers, got, tc.want)
			}
			if workers == 1 {
				shards1 = shards
			} else if shards != shards1 {
				t.Errorf("%s workers=%d: parallel_shards_total{stage=\"world-sim\"} = %d, %d at workers=1",
					tc.name, workers, shards, shards1)
			}
		}
	}
}
