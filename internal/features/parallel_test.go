package features

import (
	"bytes"
	"fmt"
	"testing"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
)

// multiOrigRecs interleaves records from many originators so every
// extract shard gets work and dedup decisions cross shard boundaries
// only via their own (originator, querier) pairs.
func multiOrigRecs(nOrigs, nQueriers, queriesEach int) []dnslog.Record {
	var recs []dnslog.Record
	t := simtime.Time(0)
	for k := 0; k < queriesEach; k++ {
		for o := 0; o < nOrigs; o++ {
			orig := ipaddr.FromOctets(192, 0, byte(2+o/256), byte(o%256))
			for q := 0; q < nQueriers; q++ {
				qa := ipaddr.FromOctets(10, byte(o), byte(q/256), byte(q%256))
				recs = append(recs, dnslog.Record{
					Time: t, Originator: orig, Querier: qa, Authority: dnslog.MustAuthority("jp"),
				})
				t = t.Add(1) // inside the window: dedup must suppress repeats
			}
		}
		t = t.Add(3600)
	}
	return recs
}

// renderVectors serializes extraction output byte-for-byte for
// cross-worker-count comparison.
func renderVectors(vs []*Vector) []byte {
	var b bytes.Buffer
	for _, v := range vs {
		fmt.Fprintf(&b, "%s %d %d %x\n", v.Originator, v.Queriers, v.Queries, v.X)
	}
	return b.Bytes()
}

// TestExtractWorkerCountInvariant is the extract-stage determinism bar:
// identical vectors — to the last float bit — at any worker count, and
// identical obs registries too (the parallel metrics count data
// properties, never worker counts).
func TestExtractWorkerCountInvariant(t *testing.T) {
	recs := multiOrigRecs(40, 25, 3)
	run := func(workers int) ([]byte, []byte) {
		x := newTestExtractor()
		x.Workers = workers
		reg := obs.NewRegistry()
		x.Obs = reg
		vs := x.Extract(recs, 0, simtime.Day)
		if len(vs) != 40 {
			t.Fatalf("workers=%d: %d analyzable originators, want 40", workers, len(vs))
		}
		return renderVectors(vs), reg.SnapshotJSON()
	}
	wantVecs, wantReg := run(1)
	for _, w := range []int{2, 4, 8} {
		gotVecs, gotReg := run(w)
		if !bytes.Equal(gotVecs, wantVecs) {
			t.Errorf("workers=%d: vectors differ from sequential run", w)
		}
		if !bytes.Equal(gotReg, wantReg) {
			t.Errorf("workers=%d: obs snapshots differ from sequential run:\n%s\n----\n%s",
				w, gotReg, wantReg)
		}
	}
}

// TestExtractShardingPreservesDedup pins that originator sharding does
// not change any keep/drop decision: per-pair repeats inside the window
// are suppressed exactly as in a single global deduper.
func TestExtractShardingPreservesDedup(t *testing.T) {
	recs := multiOrigRecs(10, 30, 4)
	x := newTestExtractor()
	x.Workers = 4
	reg := obs.NewRegistry()
	x.Obs = reg
	x.Extract(recs, 0, simtime.Day)

	kept := reg.Counter("pipeline_records_kept_total").Value()
	// Global reference dedup over the unsharded stream.
	var want uint64
	d := dnslog.NewDeduper(x.DedupWindow)
	for _, r := range recs {
		if d.Keep(r) {
			want++
		}
	}
	if kept != want {
		t.Errorf("sharded dedup kept %d records, global dedup keeps %d", kept, want)
	}
	if got := reg.Counter("parallel_shards_total", obs.L("stage", "dedup")).Value(); got != Shards {
		t.Errorf("dedup parallel_shards_total = %d, want %d", got, Shards)
	}
}

// TestPartition: every record's index lands exactly once, in its
// originator's shard, ascending within the shard; a shorter second call
// through the same buffer reports none of the first call's indices.
func TestPartition(t *testing.T) {
	var buf []int32
	for _, recs := range [][]dnslog.Record{multiOrigRecs(40, 5, 2), multiOrigRecs(3, 4, 1), nil} {
		parts := Partition(recs, &buf)
		seen := make([]bool, len(recs))
		for s, part := range parts {
			for k, i := range part {
				if int(i) >= len(recs) || seen[i] {
					t.Fatalf("%d records: index %d out of range or repeated", len(recs), i)
				}
				seen[i] = true
				if ShardOf(recs[i].Originator) != s {
					t.Errorf("%d records: record %d in shard %d, want %d", len(recs), i, s, ShardOf(recs[i].Originator))
				}
				if k > 0 && part[k-1] >= i {
					t.Errorf("%d records: shard %d lists %d after %d", len(recs), s, i, part[k-1])
				}
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Errorf("%d records: index %d in no shard", len(recs), i)
			}
		}
	}
}
