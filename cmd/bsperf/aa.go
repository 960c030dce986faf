package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"

	"dnsbackscatter/cmd/bsperf/stats"
)

// self prepares a run of this binary on one workload, in a process of
// its own so peak memory and warm-up belong to that workload alone.
func self(ctx context.Context, cfg config, workload string, trace bool) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-dir", cfg.dir,
	}
	if trace {
		args = append(args, "-trace", "1")
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	return exec.CommandContext(ctx, exe, args...), nil
}

// runEach runs every workload in turn and passes their output through.
func runEach(ctx context.Context, cfg config, stdout, stderr io.Writer) error {
	var failed []string
	for _, w := range workloads {
		cmd, err := self(ctx, cfg, w.name, cfg.trace)
		if err != nil {
			return err
		}
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed workloads: %v", failed)
	}
	return nil
}

// child runs one workload in a child process and parses the result
// object off the last line of its output.
func child(ctx context.Context, cfg config, workload string, trace bool, stderr io.Writer) (result, error) {
	cmd, err := self(ctx, cfg, workload, trace)
	if err != nil {
		return result{}, err
	}
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s: %w", workload, err)
	}
	last := bytes.TrimSpace(out.Bytes())
	last = last[bytes.LastIndexByte(last, '\n')+1:]
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, nil
}

// sampleKey names one column of an A/A set.
type sampleKey struct{ workload, metric string }

// compareSets prints, per workload and end-to-end metric, both sets'
// medians, their relative difference and the bound, and returns the
// pairings whose difference exceeds the bound.
func compareSets(w io.Writer, a, b map[sampleKey][]float64) (over []string) {
	fmt.Fprintf(w, "%-17s %-17s %14s %14s %8s %6s\n", "workload", "metric", "median A", "median B", "diff", "bound")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			k := sampleKey{wl.name, m.name}
			ma, mb := stats.Median(a[k]), stats.Median(b[k])
			diff := math.Abs(mb-ma) / math.Abs(ma)
			mark := ""
			if !(diff <= m.bound) { // also catches a NaN from an empty set
				mark = "  OVER"
				over = append(over, wl.name+"/"+m.name)
			}
			fmt.Fprintf(w, "%-17s %-17s %14.6g %14.6g %7.2f%% %5.0f%%%s\n", wl.name, m.name, ma, mb, 100*diff, 100*m.bound, mark)
		}
	}
	return over
}

// runAA is the same-code check of the benchmark's own noise: two sets of
// n passes over every workload, interleaved A B A B because this kind of
// box drifts by a tenth over minutes, then each set's median per
// workload and end-to-end metric side by side with the bound. One traced
// pass per set checks that the exact-count layer metrics repeat.
func runAA(ctx context.Context, cfg config, stdout, stderr io.Writer) error {
	sets := [2]map[sampleKey][]float64{{}, {}}
	for pass := 0; pass < cfg.aa; pass++ {
		for s := range sets {
			for _, w := range workloads {
				res, err := child(ctx, cfg, w.name, false, stderr)
				if err != nil {
					return err
				}
				for name, v := range res.Metrics {
					k := sampleKey{w.name, name}
					sets[s][k] = append(sets[s][k], v.Value)
				}
				fmt.Fprintf(stderr, "bsperf: pass %d set %c %s done\n", pass+1, 'A'+s, w.name)
			}
		}
	}
	over := compareSets(stdout, sets[0], sets[1])

	var moved []string
	for _, w := range workloads {
		a, err := child(ctx, cfg, w.name, true, stderr)
		if err != nil {
			return err
		}
		b, err := child(ctx, cfg, w.name, true, stderr)
		if err != nil {
			return err
		}
		for _, m := range perLayer {
			if m.unit == "count" && !inexactCounts[m.name] && a.Metrics[m.name].Value != b.Metrics[m.name].Value {
				moved = append(moved, fmt.Sprintf("%s/%s %v vs %v", w.name, m.name, a.Metrics[m.name].Value, b.Metrics[m.name].Value))
			}
		}
	}
	fmt.Fprintf(stdout, "exact-count layer metrics that differ between two traced passes: %d %v\n", len(moved), moved)
	if len(over)+len(moved) > 0 {
		return errors.New("A/A sets disagree beyond the bounds: " + fmt.Sprint(over, moved))
	}
	return nil
}

// inexactCounts are the count-valued layer metrics that depend on how
// long the box let a run go on, so two passes need not agree on them.
var inexactCounts = map[string]bool{
	"proc.gc_cycles":      true,
	"proc.reps":           true,
	"live.server_queries": true,
	"live.log_records":    true,
	"live.server_dropped": true,
}
