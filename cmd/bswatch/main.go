// Command bswatch replays alert and SLO rules offline against the
// artifacts a run already wrote — the windowed time-series document and,
// optionally, the trace JSONL — and renders the resulting state machine:
// per-rule sparklines, state strips, and the transition tail. It is the
// same engine bsserve evaluates live, so a rule proven here fires
// identically in production.
//
// Usage:
//
//	bsrepro -experiment figure3 -timeseries ts.json -trace traces.jsonl
//	bswatch -timeseries ts.json -traces traces.jsonl
//	bswatch -timeseries ts.json -rules alerts.rules -state firing
//	bswatch -timeseries ts.json -json transitions.jsonl
//
// -state and -severity narrow the report; -fail-firing exits 3 when any
// rule is firing after the replay, so CI can gate on a quiet rule set.
// The replay is deterministic: the same artifacts and rules always
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

// run executes one replay; it is main minus os.Exit so tests can drive
// the full flag surface in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bswatch", flag.ContinueOnError)
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
	if *tsPath == "" {
		fmt.Fprintln(stderr, "bswatch: -timeseries is required (the document bsrepro -timeseries writes)")
		return 2
	}

	rules, err := alert.LoadRules(*rulesPath)
	if err != nil {
		fmt.Fprintln(stderr, "bswatch:", err)
		return 2
	}

	raw, err := os.ReadFile(*tsPath)
	if err != nil {
		fmt.Fprintln(stderr, "bswatch:", err)
		return 2
	}
	doc, err := obs.ParseTimeseries(raw)
	if err != nil {
		fmt.Fprintln(stderr, "bswatch:", err)
		return 2
	}

	data := alert.Data{Series: doc}
	if *trPath != "" {
		f, err := os.Open(*trPath)
		if err != nil {
			fmt.Fprintln(stderr, "bswatch:", err)
			return 2
		}
		traces, err := trace.ParseJSONL(f)
		_ = f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "bswatch:", err)
			return 2
		}
		data.Exemplars = func(from, to simtime.Time, n int) []trace.Exemplar {
			return trace.ExemplarsOf(traces, from, to, n)
		}
	}

	eng := alert.New(rules)
	eng.Eval(data)

	f := alert.Filter{State: *state, Severity: *severity}
	_, _ = stdout.Write(eng.RenderText(f))
	if *jsonPath != "" {
		if err := os.WriteFile(*jsonPath, eng.JSONL(), 0o644); err != nil {
			fmt.Fprintln(stderr, "bswatch:", err)
			return 1
		}
		fmt.Fprintf(stderr, "bswatch: wrote %d transitions to %s\n", len(eng.Log()), *jsonPath)
	}
	if *failFire && eng.Firing() > 0 {
		fmt.Fprintf(stderr, "bswatch: %d rules firing\n", eng.Firing())
		return 3
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
