package backscatter

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"dnsbackscatter/internal/golden"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/rng"
)

// streamPin replays recs through a fresh engine over d's world in
// 1024-record Ingest calls and folds every output surface into one FNV-1a
// digest: at every epoch (each call that advanced Status().Epochs, and the
// final Tick) the vectors bit by bit, the sorted verdicts, the snapshot and
// the status document; at the end the engine's metric lines and the
// windowed series. It also returns parallel_shards_total{stage=
// "stream-rescore"}, the evictions and the epochs, so the caller can tell a
// pin that exercised nothing.
func streamPin(t *testing.T, d *Dataset, model *Model, spec StreamSpec, recs []Record) (digest, shards, evictions uint64, epochs int) {
	t.Helper()
	reg := NewRegistry()
	reg.SetClock(obs.TickClock(1))
	reg.SetWindow(obs.NewWindow(6 * 3600))
	// The engine reads only these fields of a dataset; a copy with its own
	// registry keeps one run's metrics apart from the next one's.
	view := &Dataset{Spec: d.Spec, World: d.World, Records: d.Records, Extractor: d.Extractor, obs: reg}
	e := view.NewStream(spec, model)

	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	epoch := func() {
		for _, v := range e.Vectors() {
			u64(uint64(v.Originator))
			u64(uint64(v.Queriers))
			u64(uint64(v.Queries))
			for _, x := range v.X {
				u64(math.Float64bits(x))
			}
		}
		verdicts := e.Verdicts()
		addrs := make([]Addr, 0, len(verdicts))
		for a := range verdicts {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			u64(uint64(a))
			u64(uint64(verdicts[a]))
		}
		h.Write(e.Snapshot())
		h.Write(e.StatusJSON())
	}
	for i := 0; i < len(recs); i += 1024 {
		e.Ingest(recs[i:min(i+1024, len(recs))])
		if now := e.Status().Epochs; now != epochs {
			epochs = now
			epoch()
		}
	}
	e.Tick(d.Spec.Start.Add(d.Spec.Duration))
	epoch()
	for _, line := range bytes.SplitAfter(reg.Snapshot(), []byte("\n")) {
		if bytes.HasPrefix(line, []byte("stream_")) ||
			bytes.HasPrefix(line, []byte("parallel_")) && bytes.Contains(line, []byte(`stage="stream-`)) {
			h.Write(line)
		}
	}
	h.Write(reg.Window().SnapshotJSON())
	st := e.Status()
	shards = reg.Counter("parallel_shards_total", obs.Label{Key: "stage", Value: "stream-rescore"}).Value()
	return h.Sum64(), shards, st.Evictions, st.Epochs
}

// TestStreamPinned is the streaming engine's cross-commit pin, the twin of
// TestWorldOutputsPinned and internal/ml's TestForestPinned: the stream/
// digests and shard counts in testdata/digests.txt were recorded on the engine that re-derived every sampled
// querier's name at every epoch, and any later engine must reproduce them
// at workers {1, 2, 8} — in arrival order, under forced eviction, and with
// the records of each call shuffled (stragglers behind an epoch boundary).
func TestStreamPinned(t *testing.T) {
	d, model := trainTiny(t)
	ordered := append([]Record(nil), d.Records...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Time < ordered[j].Time })
	shuffled := append([]Record(nil), ordered...)
	st := rng.New(17)
	for i := 0; i < len(shuffled); i += 1024 {
		call := shuffled[i:min(i+1024, len(shuffled))]
		st.Shuffle(len(call), func(a, b int) { call[a], call[b] = call[b], call[a] })
	}
	hourly := StreamSpec{Epoch: Duration(3600), SampleK: 128, HHHCapacity: 256}
	small := hourly
	small.MaxOriginators = 64

	for _, tc := range []struct {
		name   string
		spec   StreamSpec
		recs   []Record
		evicts bool
	}{
		{"arrival-order", hourly, ordered, false},
		{"evicting", small, ordered, true},
		{"shuffled-calls", hourly, shuffled, false},
	} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				spec := tc.spec
				spec.Workers = workers
				got, shards, evictions, epochs := streamPin(t, d, model, spec, tc.recs)
				golden.Digest(t, "stream/"+tc.name+"/digest", fmt.Sprintf("%#x", got))
				// analyzable originators summed over the epochs
				golden.Digest(t, "stream/"+tc.name+"/shards", fmt.Sprint(shards))
				if epochs < 24 || tc.evicts != (evictions > 0) {
					t.Errorf("%d epochs, %d evictions: the pin does not exercise what it names", epochs, evictions)
				}
			})
		}
	}
}
