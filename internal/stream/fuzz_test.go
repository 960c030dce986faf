package stream

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/ipaddr"
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

// hostileNames fabricates reverse names straight from the querier's
// bytes — embedded NULs, non-UTF-8, absurd label shapes — so the static
// feature path sees genuinely malformed input.
func hostileNames(a ipaddr.Addr) (string, bool) {
	o0, o1, o2, o3 := a.Octets()
	raw := []byte{o0, '.', o1, 0x00, o2, 0xff, '-', o3, '.', 'j', 'p'}
	return string(raw[:2+int(o3)%9]), o2%7 == 0
}

// FuzzStreamIngest feeds arbitrary record interleavings through the
// engine and checks the safety contract: no panics on any byte soup,
// the tracked-originator count never exceeds the hard bound, and
// snapshots stay canonical — repeated rendering and a fresh replay of
// the same batches are byte-identical. It also holds the engine to
// TestRescoreHistoryInvariant on the same input: the last of however many
// ten-minute re-scores the records forced equals one cold score.
func FuzzStreamIngest(f *testing.F) {
	// Seeds: empty, an ordered burst, duplicate+reversed timestamps, and
	// a boundary-hopping pair (also checked in as files under testdata).
	f.Add([]byte{})
	burst := []byte{3, 8}
	for i := 0; i < 8; i++ {
		rec := make([]byte, fuzzRecordSize)
		binary.LittleEndian.PutUint32(rec[0:], uint32(i*40))
		binary.LittleEndian.PutUint32(rec[4:], uint32(0x0a000001+i%2))
		binary.LittleEndian.PutUint32(rec[8:], uint32(0xc0a80000+i))
		burst = append(burst, rec...)
	}
	f.Add(burst)
	rev := []byte{1, 0}
	for i := 8; i > 0; i-- {
		rec := make([]byte, fuzzRecordSize)
		binary.LittleEndian.PutUint32(rec[0:], uint32(i*7)) // re-used times
		binary.LittleEndian.PutUint32(rec[4:], 0x7f000001)
		binary.LittleEndian.PutUint32(rec[8:], uint32(i%3))
		rev = append(rev, rec...)
	}
	f.Add(rev)

	f.Fuzz(func(t *testing.T, data []byte) {
		batch, maxOrig, recs := decodeFuzz(data)
		cfg := Config{
			Geo:            geo.NewRegistry(9),
			NameOf:         hostileNames,
			Scorer:         parityScorer{},
			MinQueriers:    2,
			MaxOriginators: maxOrig,
			SampleK:        8,
			HHHCapacity:    16,
			DedupSlots:     1 << 10,
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
		e1 := New(cfg)
		run(e1)
		snap := e1.Snapshot()
		if again := e1.Snapshot(); !bytes.Equal(snap, again) {
			t.Fatal("snapshot is not idempotent")
		}
		e2 := New(cfg)
		run(e2)
		if replay := e2.Snapshot(); !bytes.Equal(snap, replay) {
			t.Fatal("replaying identical batches changed snapshot bytes")
		}
		if d := diffVectors(e1.Vectors(), coldScore(t, cfg, recs, batch, final)); d != "" {
			t.Fatalf("%d re-scores and one cold score disagree: %s", e1.Status().Epochs, d)
		}
	})
}
