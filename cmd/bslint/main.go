// Command bslint runs the project's static-analysis suite: the
// per-package checks (determinism, locksafe, errcheck, apidoc,
// concurrency, nolintreason) and the docs module check over the
// module's Markdown, all defined in internal/lint. It prints one
// finding per line as
//
//	file:line:col: [check] message
//
// and exits nonzero when anything fires, so it slots directly into the
// Makefile verify target next to go vet.
//
// Usage:
//
//	bslint [flags] [packages]
//
//	bslint ./...                    # whole module (the default)
//	bslint -json ./internal/...     # machine-readable findings
//	bslint -list                    # show registered checks
//
// Every check always runs; `//nolint:<check> — reason` on the offending
// line silences any finding but a determinism one, which nothing does.
//
// Any package that fails to parse or type-check is fatal: bslint reports
// every broken package and exits 2 without linting, because findings in
// code it could not load would otherwise pass silently.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"dnsbackscatter/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	list := fs.Bool("list", false, "list registered checks and exit")
	dir := fs.String("C", ".", "directory inside the module to lint")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, c := range lint.Checks() {
			fmt.Fprintf(stdout, "%-14s %s\n", c.Name, c.Doc)
		}
		for _, c := range lint.ModuleChecks() {
			fmt.Fprintf(stdout, "%-14s %s (module)\n", c.Name, c.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	mod, err := lint.LoadModule(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "bslint:", err)
		return 2
	}
	pkgs, err := mod.Packages(patterns...)
	if err != nil {
		// Load errors are fatal, and all of them are reported: linting
		// only the packages that happened to load would hide findings.
		fmt.Fprintln(stderr, "bslint: load failed:")
		fmt.Fprintln(stderr, err)
		return 2
	}

	findings := lint.Run(pkgs)

	if *jsonOut {
		type jsonFinding struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Check   string `json:"check"`
			Message string `json:"message"`
		}
		out := make([]jsonFinding, len(findings))
		for i, f := range findings {
			out[i] = jsonFinding{f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "bslint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "bslint: %d finding(s) across %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	return 0
}
