// Command bsperf is the repository's benchmark: four workloads that
// drive the system from outside, through public functions and the real
// bsserve binary, and report end-to-end and per-layer metrics by name.
// BENCHMARK.json at the repository root describes it to the acceptance
// driver; README.md beside this file says why each workload and metric
// exists and how to read the numbers.
//
// Usage:
//
//	go run ./cmd/bsperf                            # every workload, one after another
//	go run ./cmd/bsperf -workload stream-replay    # one workload
//	go run ./cmd/bsperf -workload live-serve -trace 1   # its per-layer metrics
//	go run ./cmd/bsperf -aa 5                      # same-code A/A check against the bounds
//
// A single-workload run prints a header, one "workload metric value
// unit" line per metric, and a JSON result object as its last line. It
// exits 1 when a correctness check fails.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// workload is one entry of the benchmark's workload table.
type workload struct {
	name string
	// floor is the quality below which the run fails: the lowest value
	// measured over seeds 1-10 on the defining commit, less 0.05.
	floor float64
	batch func() batch // nil for live-serve, which has its own runner
}

var workloads = []workload{
	{name: "sim-longitudinal", floor: 0.87, batch: func() batch { return new(simWorkload) }},
	{name: "log-classify", floor: 0.70, batch: func() batch { return new(logWorkload) }},
	{name: "stream-replay", floor: 0.70, batch: func() batch { return new(streamWorkload) }},
	{name: "live-serve", floor: liveFloor},
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	aa       int
	dir      string
	sizes    sizes
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("bsperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "run this workload only (default: each in turn, in a process of its own)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "derive every input from this seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 decomposes repetitions into layer calls and reports the per-layer metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "toy sizes: checks the harness, measures nothing")
	fs.IntVar(&cfg.aa, "aa", 0, "run two interleaved sets of N passes of this binary and compare their medians against the bounds")
	fs.StringVar(&cfg.dir, "dir", ".bench_build/bsperf", "work directory for the bsserve binary, server logs and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0
	cfg.sizes = fullSizes
	if cfg.smoke {
		cfg.sizes = smokeSizes
	}
	if fs.NArg() > 0 || cfg.seconds <= 0 || cfg.aa < 0 {
		fmt.Fprintln(stderr, "bsperf: bad arguments; see -h")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch {
	case cfg.aa > 0:
		err = runAA(ctx, cfg, stdout, stderr)
	case cfg.workload == "":
		err = runEach(ctx, cfg, stdout, stderr)
	default:
		err = runOne(ctx, cfg, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bsperf:", err)
		return 1
	}
	return 0
}

// errIncorrect marks a run whose outputs failed a correctness check.
type errIncorrect []string

func (e errIncorrect) Error() string {
	msg := "correctness check failed"
	for _, p := range e {
		msg += "\n  " + p
	}
	return msg
}

// runOne measures one workload in this process and prints its result.
func runOne(ctx context.Context, cfg config, stdout io.Writer) error {
	var info *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			info = &workloads[i]
		}
	}
	if info == nil {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.smoke {
		info = &workload{name: info.name, batch: info.batch} // toy sizes classify poorly: no floor
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	runtime.GOMAXPROCS(procs)
	fmt.Fprintf(stdout, "# bsperf commit=%s %s cpu=%q nproc=%d GOMAXPROCS=%d seed=%d seconds=%g trace=%t smoke=%t\n",
		commit(), runtime.Version(), cpuModel(), runtime.NumCPU(), procs, cfg.seed, cfg.seconds, cfg.trace, cfg.smoke)

	var o *outcome
	var err error
	switch {
	case info.batch == nil:
		o, err = runLive(ctx, *info, cfg, stdout)
	case cfg.trace:
		o, err = traceBatch(ctx, *info, cfg, stdout)
	default:
		o, err = measureBatch(ctx, *info, cfg, stdout)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", info.name, err)
	}
	set := endToEnd
	if cfg.trace {
		set = perLayer
	}
	// report may add a problem of its own, so it runs before the check.
	res := report(stdout, info.name, set, o)
	if err := writeResult(stdout, res); err != nil {
		return err
	}
	if !res.Correct {
		return errIncorrect(o.problems)
	}
	return nil
}

// commit names the revision under test: the one the toolchain stamped
// into the binary (go build does, go run does not), else the work
// tree's HEAD, else "unknown" (an exported checkout has neither).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		// Look for the repository here, not in whatever holds this checkout.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
