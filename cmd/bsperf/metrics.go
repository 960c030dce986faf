package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// metric names one reported number and its unit. The two tables below
// are the benchmark's whole vocabulary and mirror BENCHMARK.json, which
// the smoke test cross-checks: an untraced run reports the end-to-end
// metrics, a traced run the per-layer metrics. Every workload produces
// every end-to-end metric; a per-layer metric belongs to the workloads
// that enter its layer and is omitted from the others' printed lines.
//
// An end-to-end metric also carries its regression bound: the share of
// the parent's median by which it may get worse before a change is
// rejected.
type metric struct {
	name, unit string
	higher     bool // higher is better
	bound      float64
}

var endToEnd = []metric{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "throughput_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", bound: 0.10},
	{name: "quality", unit: "share", higher: true, bound: 0.05},
}

var perLayer = []metric{
	{name: "world.run_s", unit: "s"},
	{name: "world.run_share", unit: "share"},
	{name: "world.reverse_queries", unit: "count"},
	{name: "world.campaigns", unit: "count"},
	{name: "world.queriers", unit: "count"},
	{name: "dnssim.resolves", unit: "count"},
	{name: "dnssim.cached_share", unit: "share"},
	{name: "dnssim.upstream_root", unit: "count"},
	{name: "dnssim.upstream_national", unit: "count"},
	{name: "dnssim.upstream_final", unit: "count"},
	{name: "cache.hit_share", unit: "share"},
	{name: "dnssim.resolve_cold_ns", unit: "ns"},
	{name: "dnssim.resolve_cached_ns", unit: "ns"},
	{name: "classify.snap_intervals_s", unit: "s"},
	{name: "groundtruth.curate_s", unit: "s"},
	{name: "dnslog.parse_ns_per_record", unit: "ns"},
	{name: "dnslog.dedup_ns_per_record", unit: "ns"},
	{name: "dnslog.dedup_kept_share", unit: "share"},
	{name: "features.extract_s", unit: "s"},
	{name: "features.extract_ns_per_record", unit: "ns"},
	{name: "features.vectors", unit: "count"},
	{name: "ml.train_s", unit: "s"},
	{name: "ml.validate_s", unit: "s"},
	{name: "ml.predict_ns_per_vector", unit: "ns"},
	{name: "classify.classify_all_s", unit: "s"},
	{name: "stream.call_p50_us", unit: "us"},
	{name: "stream.ingest_ns_per_record", unit: "ns"},
	{name: "stream.rescore_s", unit: "s"},
	{name: "stream.rescore_count", unit: "count"},
	{name: "stream.batch_p99_us", unit: "us"},
	{name: "stream.tick_s", unit: "s"},
	{name: "stream.snapshot_s", unit: "s"},
	{name: "stream.snapshot_bytes", unit: "B"},
	{name: "stream.kept_share", unit: "share"},
	{name: "stream.tracked", unit: "count"},
	{name: "stream.evictions", unit: "count"},
	{name: "stream.epochs", unit: "count"},
	{name: "stream.ingest1_ns_per_record", unit: "ns"},
	{name: "hll.add_ns", unit: "ns"},
	{name: "hhh.update_ns", unit: "ns"},
	{name: "dnswire.encode_ns", unit: "ns"},
	{name: "dnswire.decode_ns", unit: "ns"},
	{name: "live.server_cpu_us_per_query", unit: "us"},
	{name: "live.lat_p50_us", unit: "us"},
	{name: "live.lat_p99_us", unit: "us"},
	{name: "live.lat_p999_us", unit: "us"},
	{name: "live.w1_lat_p50_us", unit: "us"},
	{name: "live.slice_spread", unit: "share"},
	{name: "live.server_queries", unit: "count"},
	{name: "live.server_dropped", unit: "count"},
	{name: "live.log_records", unit: "count"},
	{name: "live.retransmits", unit: "count"},
	{name: "live.lap_queries", unit: "count"},
	{name: "live.names", unit: "count"},
	{name: "live.sources", unit: "count"},
	{name: "live.repeat_share", unit: "share"},
	{name: "live.top1_share", unit: "share"},
	{name: "live.silent_share", unit: "share"},
	{name: "proc.cpu_us_per_item", unit: "us"},
	{name: "proc.alloc_bytes_per_item", unit: "B"},
	{name: "proc.mallocs_per_item", unit: "1/item"},
	{name: "proc.gc_cycles", unit: "count"},
	{name: "proc.gc_pause_ms", unit: "ms"},
	{name: "proc.first_rep_s", unit: "s"},
	{name: "proc.rep_wall_s", unit: "s"},
	{name: "proc.rep_spread", unit: "share"},
	{name: "proc.reps", unit: "count"},
	{name: "trace.overhead_share", unit: "share"},
	{name: "trace.unattributed_share", unit: "share"},
	{name: "fail_share", unit: "share"},
}

// value is one metric reading in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line of standard
// output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// outcome is what a workload hands back: readings by metric name, the
// operation tally, and every correctness-check failure.
type outcome struct {
	readings  map[string]float64
	attempted int
	failed    int
	problems  []string
}

func (o *outcome) failf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// report prints one "workload metric value unit" line per metric of the
// set that the workload produced, in table order, and returns the result
// object. A per-layer metric the workload did not produce gets no line;
// the result object still carries it, as 0, because the acceptance
// driver wants every metric of the set in every result. An end-to-end
// metric that is missing or not positive, and any reading that is not a
// finite number, is a harness bug and fails the run.
func report(w io.Writer, workload string, set []metric, o *outcome) result {
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]value, len(set))}
	for _, m := range set {
		v, produced := o.readings[m.name]
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			o.failf("metric %s is not finite", m.name)
			v = 0
		case m.bound > 0 && v <= 0:
			o.failf("end-to-end metric %s was not measured", m.name)
		}
		if produced {
			fmt.Fprintf(w, "%s %s %s %s\n", workload, m.name, strconv.FormatFloat(v, 'f', -1, 64), m.unit)
		}
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	res.Correct = len(o.problems) == 0
	return res
}

// writeResult prints the result object as one line.
func writeResult(w io.Writer, res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
