// Command bsrepro regenerates the paper's tables and figures from the
// simulated datasets and prints each experiment's report.Result as text.
//
// Usage:
//
//	bsrepro -scale 0.5                 # everything
//	bsrepro -experiment table3,figure4 # a subset
//	bsrepro -list                      # available experiments
//	bsrepro -stats -experiment table1  # plus per-stage pipeline timings
//
// Tracing, time series, and resource accounting:
//
//	bsrepro -experiment table1 -trace traces.jsonl       # end-to-end lookup traces
//	bsrepro -experiment table1 -timeseries ts.json       # windowed metric buckets
//	bsrepro -experiment table1 -resources res.json       # per-stage resource report
//	bsrepro -experiment table1 -alerts alerts.jsonl      # alert transition log
//
// -alerts replays alert/SLO rules (built-in, or a file via -rules) over
// the windowed metrics after the experiments finish and writes the
// state-machine transition log; with -trace active, firing transitions
// carry worst-offender trace IDs. Trace JSONL, the windowed time-series
// JSON, and the alert transition log are byte-identical at any -workers
// count; render traces with cmd/bstrace and replay rules offline with
// cmd/bswatch. The -resources report
// is the ops channel: alloc deltas, GC cycles, and worker peaks per
// pipeline stage, scheduling-dependent by design; inspect it with
// cmd/bsprof -report.
//
// Batch-vs-stream replay:
//
//	bsrepro -stream -scale 0.3                    # print the comparison
//	bsrepro -stream -stream-out delta.json        # also write it as JSON
//
// -stream builds one JP dataset at -scale, trains the paper's classifier,
// replays the records through the bounded-memory streaming engine, and
// scores both paths against ground truth — the accuracy cost of sketched
// features, per class. The report is deterministic at any -workers count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	backscatter "dnsbackscatter"

	"dnsbackscatter/internal/alert"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/report"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/trace"
)

// runStream is the -stream mode: build one JP dataset, train the paper's
// classifier, replay the records through the streaming engine, and print
// the per-class accuracy of both paths against ground truth.
func runStream(scale float64, workers int, outPath string) error {
	spec := backscatter.JPDitl().Scaled(scale)
	if workers > 0 {
		spec = spec.WithParallelism(workers)
	}
	fmt.Fprintf(os.Stderr, "bsrepro: building JP dataset at scale %g\n", scale)
	d := backscatter.Build(spec)
	model, err := d.TrainClassifier(1)
	if err != nil {
		return err
	}
	cmp := d.CompareStream(backscatter.DefaultStreamSpec(), model)

	fmt.Printf("batch-vs-stream replay (JP, scale %g): %d batch / %d stream verdicts, %.1f%% agreement\n\n",
		scale, cmp.BatchVerdicts, cmp.StreamVerdicts, 100*cmp.Agreement)
	fmt.Printf("%-12s %7s  %8s %8s  %8s %8s  %7s %7s\n",
		"class", "support", "batch-P", "batch-R", "strm-P", "strm-R", "dP", "dR")
	for _, c := range cmp.PerClass {
		fmt.Printf("%-12s %7d  %8.3f %8.3f  %8.3f %8.3f  %+7.3f %+7.3f\n",
			c.Class, c.Support, c.BatchPrecision, c.BatchRecall,
			c.StreamPrecision, c.StreamRecall, c.PrecisionDelta, c.RecallDelta)
	}
	if outPath != "" {
		js, err := json.MarshalIndent(cmp, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(js, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bsrepro: wrote comparison to %s\n", outPath)
	}
	return nil
}

func main() {
	var (
		scale     = flag.Float64("scale", 0.5, "dataset population scale (1 = spec defaults)")
		exps      = flag.String("experiment", "all", "comma-separated experiment names, or all")
		heavy     = flag.Bool("heavy", false, "run the most expensive trial points too")
		list      = flag.Bool("list", false, "list experiments and exit")
		stats     = flag.Bool("stats", false, "print pipeline stage timings (µs) and metric totals after each experiment")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "pipeline worker goroutines (1 = sequential; output is identical either way)")
		fspec     = flag.String("faults", "", `fault-injection profile@seed (e.g. "lossy@7") applied to every dataset; empty disables`)
		trPath    = flag.String("trace", "", "write end-to-end lookup traces (sorted JSONL) to this file")
		trSamp    = flag.Int("trace-sample", 1, "trace 1 in N lookups (head-based, deterministic); requires -trace")
		tsPath    = flag.String("timeseries", "", "write windowed time-series metric buckets (JSON) to this file")
		window    = flag.Duration("window", time.Hour, "simulated-time bucket width for -timeseries")
		resPath   = flag.String("resources", "", "write the per-stage resource report (JSON, scheduling-dependent) to this file")
		streamOn  = flag.Bool("stream", false, "replay the dataset through the streaming engine and print the batch-vs-stream comparison, then exit")
		streamOut = flag.String("stream-out", "", "also write the batch-vs-stream comparison (JSON) to this file; requires -stream")
		alPath    = flag.String("alerts", "", "replay alert rules over the windowed metrics and write the transition log (sorted JSONL) to this file")
		rulesPath = flag.String("rules", "", "alert rule file for -alerts; empty uses the built-in rules")
	)
	flag.Parse()

	if *list {
		for _, e := range report.All() {
			fmt.Printf("%-20s %s\n", e.Name, e.Desc)
		}
		return
	}

	if _, err := backscatter.ParseFaults(*fspec); err != nil {
		fmt.Fprintf(os.Stderr, "bsrepro: %v\n", err)
		os.Exit(2)
	}

	if *streamOn {
		if err := runStream(*scale, *workers, *streamOut); err != nil {
			fmt.Fprintln(os.Stderr, "bsrepro:", err)
			os.Exit(1)
		}
		return
	}

	store := report.NewStore(*scale)
	store.Heavy = *heavy
	store.Workers = *workers
	store.Faults = *fspec

	if *trPath != "" {
		if *trSamp < 1 {
			*trSamp = 1
		}
		store.Trace = *trSamp
	}

	var reg *obs.Registry
	if *stats || *tsPath != "" || *alPath != "" {
		reg = obs.NewRegistry()
		store.Obs = reg
	}
	if *resPath != "" {
		store.Acct = backscatter.NewAccountant()
	}
	if *stats {
		// A main is free to time stages with the wall clock; microseconds
		// resolve the sub-second pipeline stages that simtime.Wall's whole
		// seconds would round to zero.
		reg.SetClock(func() simtime.Time { return simtime.Time(time.Now().UnixMicro()) })
	}
	if *tsPath != "" || *alPath != "" {
		width := simtime.Duration(*window / time.Second)
		reg.SetWindow(obs.NewWindow(width))
	}

	var todo []report.Experiment
	if *exps == "all" {
		todo = report.All()
	} else {
		for _, name := range strings.Split(*exps, ",") {
			e, ok := report.Find(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "bsrepro: unknown experiment %q (try -list)\n", name)
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	for _, e := range todo {
		start := time.Now()
		fmt.Println(e.Run(store))
		fmt.Fprintf(os.Stderr, "[%s done in %.1fs]\n\n", e.Name, time.Since(start).Seconds())
		if *stats {
			fmt.Fprintf(os.Stderr, "pipeline stages after %s (µs):\n%s\n", e.Name, reg.StageReport())
			fmt.Fprintf(os.Stderr, "metric totals after %s:\n%s\n", e.Name, reg.Snapshot())
		}
	}

	if *trPath != "" {
		f, err := os.Create(*trPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bsrepro:", err)
			os.Exit(1)
		}
		traces := 0
		for _, d := range store.Datasets() {
			t := d.Tracer()
			if t == nil {
				continue
			}
			traces += t.Len()
			if _, err := f.Write(t.JSONL()); err != nil {
				fmt.Fprintln(os.Stderr, "bsrepro:", err)
				os.Exit(1)
			}
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bsrepro:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bsrepro: wrote %d traces (1 in %d lookups) to %s\n", traces, *trSamp, *trPath)
	}
	if *tsPath != "" {
		if err := os.WriteFile(*tsPath, reg.Window().SnapshotJSON(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bsrepro:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bsrepro: wrote windowed time series (%s buckets) to %s\n", *window, *tsPath)
	}
	if *alPath != "" {
		rules, err := alert.LoadRules(*rulesPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bsrepro:", err)
			os.Exit(2)
		}
		eng := alert.New(rules)
		// Worst-offender exemplars merge across every traced dataset the
		// experiments built (empty without -trace: transitions then carry
		// no trace IDs, and the log bytes stay deterministic either way).
		exemplars := func(from, to simtime.Time, n int) []trace.Exemplar {
			var lists [][]trace.Exemplar
			for _, d := range store.Datasets() {
				if t := d.Tracer(); t != nil {
					lists = append(lists, t.Exemplars(from, to, n))
				}
			}
			return trace.MergeExemplars(n, lists...)
		}
		eng.Eval(alert.Data{Series: reg.Window().Timeseries(), Exemplars: exemplars})
		if err := os.WriteFile(*alPath, eng.JSONL(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bsrepro:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bsrepro: wrote %d alert transitions (%d rules, %d firing) to %s\n",
			len(eng.Log()), len(rules), eng.Firing(), *alPath)
	}
	if *resPath != "" {
		if err := os.WriteFile(*resPath, store.Acct.Report().JSON(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bsrepro:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bsrepro: wrote per-stage resource report to %s\n", *resPath)
	}
}
