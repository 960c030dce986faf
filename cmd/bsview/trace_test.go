package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"dnsbackscatter/internal/trace"
)

// TestTrace pins each trace view to the library rendering it wraps, from
// a file and from stdin, and the error exits.
func TestTrace(t *testing.T) {
	_, trPath := artifacts(t, t.TempDir())
	raw, err := os.ReadFile(trPath)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := trace.ParseJSONL(bytes.NewReader(raw))
	if err != nil || len(ts) == 0 {
		t.Fatalf("ParseJSONL: %d traces, %v", len(ts), err)
	}
	view := func(stdin string, args ...string) (int, string, string) {
		var out, errb bytes.Buffer
		code := run(append([]string{"trace"}, args...), strings.NewReader(stdin), &out, &errb)
		return code, out.String(), errb.String()
	}

	if code, out, errs := view("", "-in", trPath); code != 0 || out != trace.Summarize(ts, 10) {
		t.Errorf("aggregate view: exit %d, stderr %q, output:\n%s", code, errs, out)
	}
	if code, out, _ := view(string(raw), "-top", "3"); code != 0 || out != trace.Summarize(ts, 3) {
		t.Errorf("aggregate view from stdin: exit %d, output:\n%s", code, out)
	}
	var want strings.Builder
	for _, tr := range (trace.Filter{RCode: "servfail", Limit: 2}).Apply(ts) {
		fmt.Fprintln(&want, trace.RenderTree(tr))
	}
	if code, out, _ := view("", "-in", trPath, "-trees", "-rcode", "servfail", "-limit", "2"); code != 0 || out != want.String() || out == "" {
		t.Errorf("-trees view: exit %d, output:\n%s", code, out)
	}
	if code, out, _ := view("", "-in", trPath, "-id", ts[0].ID.String()); code != 0 || out != trace.RenderTree(ts[0]) {
		t.Errorf("-id view: exit %d, output:\n%s", code, out)
	}
	if code, _, errs := view("", "-in", trPath, "-id", "0000000000000001"); code != 1 || !strings.Contains(errs, "not found") {
		t.Errorf("unknown -id: exit %d, stderr %q", code, errs)
	}
	if code, _, _ := view("", "-in", trPath, "-id", "zz"); code != 1 {
		t.Errorf("malformed -id: exit %d, want 1", code)
	}
	if code, _, _ := view("", "-in", "/no/such/traces.jsonl"); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
}

// TestUsage pins exit 2 without a known subcommand.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}} {
		var out, errb bytes.Buffer
		if code := run(args, strings.NewReader(""), &out, &errb); code != 2 || !strings.Contains(errb.String(), "usage") {
			t.Errorf("run(%q) = %d, stderr %q", args, code, errb.String())
		}
	}
}
