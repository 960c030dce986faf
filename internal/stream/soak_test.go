package stream

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/prof"
	"dnsbackscatter/internal/qname"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

// soakEpochs and soakCap shape the scenario: the engine's originator
// budget is soakCap, and the stream pushes soakEpochs×soakCap distinct
// originators through it — ≥10× the capacity, the regime the batch
// pipeline cannot enter.
const (
	soakEpochs = 12
	soakCap    = 2048
)

// TestStreamSoak is the long-haul harness behind `make soak` (gated on
// BS_SOAK=1 — it pushes ~700k records and has timing-dependent heap
// assertions that don't belong in the default test sweep). It drives a
// multi-epoch scenario at >10× the engine's originator capacity and
// asserts the resource contract:
//
//   - tracked state never exceeds the hard bound,
//   - heap peaks plateau: the maximum over the last third of epochs
//     must not exceed twice the early-epoch peak (bounded RSS — sketch
//     state cannot creep with stream length),
//   - the stable goroutine count returns to its pre-run level,
//   - verdicts keep flowing at every epoch tick.
//
// With SOAK_DIR set, it writes the per-epoch resource report and the
// final stream snapshot there for the CI artifact upload.
func TestStreamSoak(t *testing.T) {
	if os.Getenv("BS_SOAK") != "1" {
		t.Skip("soak harness runs via `make soak` (BS_SOAK=1)")
	}
	acct := prof.New()
	reg := obs.NewRegistry()
	win := obs.NewWindow(simtime.Hour)
	reg.SetWindow(win)

	before := prof.StableGoroutines()
	e := New(Config{
		Geo:            geo.NewRegistry(42),
		CategoryOf:     soakCategories,
		Scorer:         parityScorer{},
		MaxOriginators: soakCap,
		SampleK:        128,
		HHHCapacity:    512,
		Epoch:          simtime.Hour,
		Seed:           7,
		Obs:            reg,
		Acct:           acct,
	})

	st := rng.New(11)
	distinct := 0
	peaks := make([]uint64, 0, soakEpochs)
	for ep := 0; ep < soakEpochs; ep++ {
		stage := acct.Stage(fmt.Sprintf("soak-epoch-%02d", ep))
		tok := stage.Start()
		base := simtime.Time(ep) * simtime.Time(simtime.Hour)
		recs := soakEpochRecords(st, ep, base)
		distinct += soakCap // each epoch introduces soakCap fresh originators
		const batch = 8192
		for i := 0; i < len(recs); i += batch {
			j := i + batch
			if j > len(recs) {
				j = len(recs)
			}
			e.Ingest(recs[i:j])
		}
		tok.End()
		if st := e.Status(); st.Tracked > st.MaxTracked {
			t.Fatalf("epoch %d: tracked %d exceeds bound %d", ep, st.Tracked, st.MaxTracked)
		}
	}
	e.Tick(simtime.Time(soakEpochs) * simtime.Time(simtime.Hour))

	status := e.Status()
	if distinct < 10*soakCap {
		t.Fatalf("scenario too small: %d distinct originators < 10x capacity", distinct)
	}
	if status.Epochs < soakEpochs {
		t.Errorf("epochs = %d, want >= %d ticks", status.Epochs, soakEpochs)
	}
	if status.Evictions == 0 {
		t.Error("10x overload never evicted — the bound is not being exercised")
	}
	if status.Analyzable == 0 || len(status.Verdicts) == 0 {
		t.Errorf("no verdicts at final tick: analyzable=%d verdicts=%v",
			status.Analyzable, status.Verdicts)
	}

	// Bounded RSS: collect per-epoch heap peaks from the accounting
	// report and require the late plateau to stay within 2x of the
	// early peak. The factor absorbs GC scheduling noise; unbounded
	// growth (state linear in stream length) would blow far past it.
	report := acct.Report()
	for ep := 0; ep < soakEpochs; ep++ {
		name := fmt.Sprintf("soak-epoch-%02d", ep)
		for _, sstat := range report.Stages {
			if sstat.Stage == name {
				peaks = append(peaks, sstat.HeapPeakBytes)
			}
		}
	}
	if len(peaks) != soakEpochs {
		t.Fatalf("resource report has %d epoch stages, want %d", len(peaks), soakEpochs)
	}
	early := peaks[1] // epoch 0 includes warm-up allocation
	var late uint64
	for _, p := range peaks[2*soakEpochs/3:] {
		if p > late {
			late = p
		}
	}
	if late > 2*early {
		t.Errorf("heap peak grew %s (epoch 1) -> %s (late max): stream state is not bounded",
			prof.SizeString(early), prof.SizeString(late))
	}

	if after := prof.StableGoroutines(); after > before+2 {
		t.Errorf("stable goroutines grew %d -> %d across the soak", before, after)
	}

	if !strings.Contains(string(win.Snapshot()), "stream_verdicts_total") {
		t.Error("window has no verdict series after soak")
	}

	if dir := os.Getenv("SOAK_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatalf("SOAK_DIR: %v", err)
		}
		writeArtifact(t, filepath.Join(dir, "soak-resources.json"), report.JSON())
		writeArtifact(t, filepath.Join(dir, "soak-snapshot.txt"), e.Snapshot())
		writeArtifact(t, filepath.Join(dir, "soak-timeseries.json"), win.SnapshotJSON())
	}
	t.Logf("soak: %d records, %d distinct originators, tracked %d/%d, %d evictions, heap early=%s late=%s",
		status.Records, distinct, status.Tracked, status.MaxTracked, status.Evictions,
		prof.SizeString(early), prof.SizeString(late))
}

// soakEpochRecords builds one epoch's stream: soakCap fresh originators
// (epoch-tagged addresses) plus returning heavy hitters, ~28 records
// per fresh originator spread across the hour.
func soakEpochRecords(st *rng.Stream, ep int, base simtime.Time) []dnslog.Record {
	recs := make([]dnslog.Record, 0, soakCap*28)
	for o := 0; o < soakCap; o++ {
		orig := ipaddr.FromOctets(byte(10+ep), byte(o>>8), byte(o), 7)
		nq := 4 + st.Intn(48)
		for q := 0; q < nq; q++ {
			recs = append(recs, dnslog.Record{
				Time:       base + simtime.Time(st.Intn(int(simtime.Hour))),
				Originator: orig,
				Querier:    ipaddr.Addr(st.Uint64()),
			})
		}
	}
	// A persistent scanner that spans every epoch keeps one originator
	// hot across the whole soak (verdict continuity).
	scanner := ipaddr.MustParse("203.0.113.99")
	for q := 0; q < 600; q++ {
		recs = append(recs, dnslog.Record{
			Time:       base + simtime.Time(st.Intn(int(simtime.Hour))),
			Originator: scanner,
			Querier:    ipaddr.Addr(st.Uint64()),
		})
	}
	st.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

// soakCategories gives the soak population a static-feature mix.
func soakCategories(a ipaddr.Addr) qname.Category {
	_, _, _, o3 := a.Octets()
	switch {
	case o3%5 == 0:
		return qname.Mail
	case o3%5 == 1:
		return qname.Home
	case o3%5 == 2:
		return qname.Other
	case o3%5 == 3:
		return qname.NXDomain
	case o3%31 == 0:
		return qname.Unreach
	default:
		return qname.NS
	}
}

// writeArtifact writes one soak artifact, failing the test on error.
func writeArtifact(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
}
