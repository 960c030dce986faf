// Command bsview reads the deterministic artifacts a run wrote — the
// trace JSONL and the windowed time-series document — without re-running
// anything:
//
//	bsrepro -experiment figure3 -trace traces.jsonl -timeseries ts.json
//	bsview trace -in traces.jsonl                       # aggregates
//	bsview trace -in traces.jsonl -trees -rcode nxdomain -limit 5
//	bsview trace -in traces.jsonl -id 63a25dd9d44cdb9b  # one span tree
//	bsview alerts -timeseries ts.json -traces traces.jsonl
//	bsview alerts -timeseries ts.json -rules alerts.rules -state firing
//	bsview alerts -timeseries ts.json -json transitions.jsonl
//
// trace reads bsrepro -trace output or bsserve's /traces as JSONL (-in,
// default stdin). Without -id it prints the aggregate view: the top-N
// slowest lookup chains, where lookups gave up, and per-level
// injected-latency histograms. With -id (a 16-digit hex trace ID) it
// renders that trace's span tree: activity, per-level query attempts,
// injected faults, TCP retries, the sensor tap, and the verdicts.
//
// alerts replays alert and SLO rules with the engine bsserve evaluates
// live, so a rule proven here fires identically in production, and
// renders per-rule sparklines, state strips and the transition tail.
// -state and -severity narrow the report; -fail-firing exits 3 when any
// rule is firing after the replay, so CI can gate on a quiet rule set.
// Both views are deterministic: the same artifacts (and rules) always
// produce byte-identical output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dnsbackscatter/internal/alert"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run executes one subcommand; it is main minus os.Exit so tests can
// drive the full flag surface in-process.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "trace":
			return runTrace(args[1:], stdin, stdout, stderr)
		case "alerts":
			return runAlerts(args[1:], stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "usage: bsview trace [flags] | bsview alerts [flags] (-h for each)")
	return 2
}

// runTrace renders a trace JSONL file: one span tree with -id, every
// matching tree with -trees, else the aggregates.
func runTrace(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bsview trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in     = fs.String("in", "", "trace JSONL file (default stdin)")
		id     = fs.String("id", "", "render the span tree of this trace ID (16-digit hex)")
		trees  = fs.Bool("trees", false, "render span trees for every matching trace instead of aggregates")
		top    = fs.Int("top", 10, "slowest chains to list in the aggregate view")
		orig   = fs.String("originator", "", "keep traces for this originator address")
		qr     = fs.String("querier", "", "keep traces from this querier address")
		rcode  = fs.String("rcode", "", "keep traces seeing this rcode (noerror, nxdomain, servfail)")
		mindur = fs.Int("mindur", 0, "keep traces lasting at least this many simulated seconds")
		limit  = fs.Int("limit", 0, "keep only the most recent N matches (0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bsview:", err)
		return 1
	}

	r := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return fail(err)
		}
		defer f.Close() //nolint:errcheck — read-only descriptor, close cannot lose data
		r = f
	}
	ts, err := trace.ParseJSONL(r)
	if err != nil {
		return fail(err)
	}

	if *id != "" {
		want, err := trace.ParseID(*id)
		if err != nil {
			return fail(err)
		}
		for _, tr := range ts {
			if tr.ID == want {
				fmt.Fprint(stdout, trace.RenderTree(tr))
				return 0
			}
		}
		return fail(fmt.Errorf("trace %s not found in %d traces", want, len(ts)))
	}

	f := trace.Filter{Originator: *orig, Querier: *qr, RCode: *rcode, MinDur: simtime.Duration(*mindur), Limit: *limit}
	ts = f.Apply(ts)
	if *trees {
		for _, tr := range ts {
			fmt.Fprintln(stdout, trace.RenderTree(tr))
		}
		return 0
	}
	fmt.Fprint(stdout, trace.Summarize(ts, *top))
	return 0
}

// runAlerts replays the rules over a time-series document, with
// worst-offender exemplars from the traces, and renders the state
// machine.
func runAlerts(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bsview alerts", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tsPath    = fs.String("timeseries", "", "windowed time-series JSON to replay (required; see bsrepro -timeseries)")
		trPath    = fs.String("traces", "", "trace JSONL for worst-offender exemplars on firing transitions")
		rulesPath = fs.String("rules", "", "alert rule file; empty uses the built-in rules")
		jsonPath  = fs.String("json", "", "also write the transition log (sorted JSONL) to this file")
		state     = fs.String("state", "", "only report rules/transitions in this state (pending, firing, resolved, inactive)")
		severity  = fs.String("severity", "", "only report rules/transitions at this severity (base, low, medium, high)")
		failFire  = fs.Bool("fail-firing", false, "exit 3 if any rule is firing after the replay")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "bsview:", err)
		return code
	}
	if *tsPath == "" {
		return fail(2, fmt.Errorf("-timeseries is required (the document bsrepro -timeseries writes)"))
	}
	rules, err := alert.LoadRules(*rulesPath)
	if err != nil {
		return fail(2, err)
	}
	raw, err := os.ReadFile(*tsPath)
	if err != nil {
		return fail(2, err)
	}
	doc, err := obs.ParseTimeseries(raw)
	if err != nil {
		return fail(2, err)
	}

	data := alert.Data{Series: doc}
	if *trPath != "" {
		f, err := os.Open(*trPath)
		if err != nil {
			return fail(2, err)
		}
		traces, err := trace.ParseJSONL(f)
		_ = f.Close()
		if err != nil {
			return fail(2, err)
		}
		data.Exemplars = func(from, to simtime.Time, n int) []trace.Exemplar {
			return trace.ExemplarsOf(traces, from, to, n)
		}
	}

	eng := alert.New(rules)
	eng.Eval(data)
	_, _ = stdout.Write(eng.RenderText(alert.Filter{State: *state, Severity: *severity}))
	if *jsonPath != "" {
		if err := os.WriteFile(*jsonPath, eng.JSONL(), 0o644); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stderr, "bsview: wrote %d transitions to %s\n", len(eng.Log()), *jsonPath)
	}
	if *failFire && eng.Firing() > 0 {
		fmt.Fprintf(stderr, "bsview: %d rules firing\n", eng.Firing())
		return 3
	}
	return 0
}
