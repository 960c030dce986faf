package stream

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/qname"
	"dnsbackscatter/internal/simtime"
)

// fuzzRecordSize is the encoded record width the fuzzer decodes:
// int32 time, uint32 originator, uint32 querier, little-endian.
const fuzzRecordSize = 12

// decodeFuzz turns arbitrary bytes into an engine config and record
// sequence: byte 0 picks the ingest batch size, byte 1 the originator
// cap, and the rest parses as fixed-width records (timestamps signed,
// so out-of-order and negative times are in-domain).
func decodeFuzz(data []byte) (batch, maxOrig int, recs []dnslog.Record) {
	batch, maxOrig = 7, 64
	if len(data) > 0 {
		batch = 1 + int(data[0])%64
	}
	if len(data) > 1 {
		maxOrig = 16 + int(data[1])*4
	}
	// Bound the decoded stream so giant mutated inputs keep each fuzz
	// exec fast (every record can force an epoch re-score in the worst
	// case); 512 records still cross epochs and force eviction.
	const maxFuzzRecords = 512
	for i := 2; i+fuzzRecordSize <= len(data) && len(recs) < maxFuzzRecords; i += fuzzRecordSize {
		recs = append(recs, dnslog.Record{
			Time:       simtime.Time(int32(binary.LittleEndian.Uint32(data[i:]))),
			Originator: ipaddr.Addr(binary.LittleEndian.Uint32(data[i+4:])),
			Querier:    ipaddr.Addr(binary.LittleEndian.Uint32(data[i+8:])),
		})
	}
	return batch, maxOrig, recs
}

// appendFuzzRecord appends one record in decodeFuzz's encoding.
func appendFuzzRecord(data []byte, t, orig, querier uint32) []byte {
	data = binary.LittleEndian.AppendUint32(data, t)
	data = binary.LittleEndian.AppendUint32(data, orig)
	return binary.LittleEndian.AppendUint32(data, querier)
}

// fuzzDedupSlots bounds each shard's dedup table in the fuzzer, so that
// a few hundred records reach the bound and its strict sweeps.
const fuzzDedupSlots = 64

// boundDedup bounds every shard's dedup table of e at n slots.
func boundDedup(e *Engine, n int) *Engine {
	for _, sh := range e.shards {
		sh.dedup.max = n
	}
	return e
}

// fuzzRunPairs bounds each shard's heavy-hitter run in the fuzzer, so that
// a few hundred records fold mid-stream, many times and inside a call.
const fuzzRunPairs = 3

// boundRun bounds every shard's heavy-hitter run of e at n pairs.
func boundRun(e *Engine, n int) *Engine {
	for _, sh := range e.shards {
		sh.origRun, sh.qryRun = sh.origRun[:0:n], sh.qryRun[:0:n]
	}
	return e
}

// hhhLines returns the heavy-hitter part of a snapshot, its last lines.
func hhhLines(snap []byte) []byte {
	return snap[bytes.Index(snap, []byte("\nhhh "))+1:]
}

// hostileCategories classifies reverse names fabricated straight from
// the querier's bytes — embedded NULs, non-UTF-8, absurd label shapes — so
// the static feature path sees genuinely malformed input.
func hostileCategories(a ipaddr.Addr) qname.Category {
	o0, o1, o2, o3 := a.Octets()
	raw := []byte{o0, '.', o1, 0x00, o2, 0xff, '-', o3, '.', 'j', 'p'}
	return qname.ClassifyQuerier(string(raw[:2+int(o3)%9]), o2%7 == 0)
}

// FuzzStreamIngest feeds arbitrary record interleavings through the
// engine and checks the safety contract: no panics on any byte soup,
// the tracked-originator count never exceeds the hard bound, and
// snapshots stay canonical — repeated rendering and a fresh replay of
// the same batches are byte-identical. It also holds the engine to
// TestRescoreHistoryInvariant on the same input: the last of however many
// ten-minute re-scores the records forced equals one cold score. Its
// engines fold their heavy-hitter runs every few records, and the
// snapshot's heavy hitters must equal those of the records ingested in
// one call and folded once: dedup is shard-local, so the kept sequence of
// each shard does not depend on how the records were split.
func FuzzStreamIngest(f *testing.F) {
	// Seeds: empty, an ordered burst, duplicate+reversed timestamps, and
	// a boundary-hopping pair (also checked in as files under testdata).
	f.Add([]byte{})
	burst := []byte{3, 8}
	for i := 0; i < 8; i++ {
		burst = appendFuzzRecord(burst, uint32(i*40), uint32(0x0a000001+i%2), uint32(0xc0a80000+i))
	}
	f.Add(burst)
	rev := []byte{1, 0}
	for i := 8; i > 0; i-- {
		rev = appendFuzzRecord(rev, uint32(i*7), 0x7f000001, uint32(i%3)) // re-used times
	}
	f.Add(rev)
	// Two stragglers behind a dedup sweep, where the cold score (one long
	// epoch) must agree with the ten-minute one. far, one record a call: a
	// pair at 100 s, 29 pairs a day later (they sweep), the pair again at
	// 110 s; an expiry allowing one epoch of lateness fails it. split, one
	// 64-record call: 30 pairs at 100 s, another originator a day later,
	// then the straggler; an expiry reckoned from the engine's watermark
	// fails it, since the ten-minute engine raises that once per epoch of
	// the call and the cold one once for the whole call.
	far := []byte{0, 0}
	split := []byte{63, 0}
	far = appendFuzzRecord(far, 100, 0x0a000001, 1)
	split = appendFuzzRecord(split, 100, 0x0a000001, 1)
	for q := uint32(2); q <= 30; q++ {
		far = appendFuzzRecord(far, 100000, 0x0a000001, q)
		split = appendFuzzRecord(split, 100, 0x0a000001, q)
	}
	split = appendFuzzRecord(split, 100000, 0x0a000002, 1)
	f.Add(appendFuzzRecord(far, 110, 0x0a000001, 1))
	f.Add(appendFuzzRecord(split, 110, 0x0a000001, 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		batch, maxOrig, recs := decodeFuzz(data)
		cfg := Config{
			Geo:            geo.NewRegistry(9),
			CategoryOf:     hostileCategories,
			Scorer:         parityScorer{},
			MinQueriers:    2,
			MaxOriginators: maxOrig,
			SampleK:        8,
			HHHCapacity:    16,
			Epoch:          10 * simtime.Minute,
			Seed:           1,
			Workers:        1, // worker invariance is pinned by TestWorkerDeterminism
		}
		// One record at time 0 ahead of the input starts every engine on
		// the same epoch floor, whatever its epoch; final is the first
		// epoch boundary beyond every record.
		recs = append([]dnslog.Record{{}}, recs...)
		epoch := simtime.Time(cfg.Epoch)
		final := epoch
		for _, r := range recs {
			final = max(final, r.Time-r.Time%epoch+epoch)
		}
		run := func(e *Engine) {
			for i := 0; i < len(recs); i += batch {
				j := i + batch
				if j > len(recs) {
					j = len(recs)
				}
				e.Ingest(recs[i:j])
				if st := e.Status(); st.Tracked > st.MaxTracked {
					t.Fatalf("tracked %d exceeds bound %d after batch %d", st.Tracked, st.MaxTracked, i/batch)
				}
			}
			e.Tick(final)
		}
		e1 := boundRun(boundDedup(New(cfg), fuzzDedupSlots), fuzzRunPairs)
		run(e1)
		snap := e1.Snapshot()
		if again := e1.Snapshot(); !bytes.Equal(snap, again) {
			t.Fatal("snapshot is not idempotent")
		}
		e2 := boundRun(boundDedup(New(cfg), fuzzDedupSlots), fuzzRunPairs)
		run(e2)
		if replay := e2.Snapshot(); !bytes.Equal(snap, replay) {
			t.Fatal("replaying identical batches changed snapshot bytes")
		}
		// One call into one epoch: the run folds once, at the snapshot.
		one := cfg
		one.Epoch = simtime.Duration(final)
		whole := boundDedup(New(one), fuzzDedupSlots)
		whole.Ingest(recs)
		whole.Tick(final)
		if got, want := hhhLines(snap), hhhLines(whole.Snapshot()); !bytes.Equal(got, want) {
			t.Fatalf("heavy hitters folded every %d records differ from one call's:\n%s\nwant\n%s", fuzzRunPairs, got, want)
		}
		if d := diffVectors(e1.Vectors(), coldScore(t, cfg, fuzzDedupSlots, recs, batch, final)); d != "" {
			t.Fatalf("%d re-scores and one cold score disagree: %s", e1.Status().Epochs, d)
		}
	})
}
