# Tier-1 verification for the dnsbackscatter reproduction.
#
#   make verify      # everything below, in order — the pre-merge gate
#   make lint        # just the project static-analysis suite (bslint),
#                    # Markdown integrity and the prose budget included
#   make race        # race detector on the concurrent packages (slow:
#                    # internal/report rebuilds datasets under -race)
#
# `go build ./... && go test ./...` remains the quick inner loop; verify
# adds formatting, the loc.budgets ceilings, go vet, bslint, and the race
# pass on the packages that actually share state across goroutines.

GO ?= go
RACE_PKGS = ./internal/cache ./internal/dnsserver ./internal/obs ./internal/report \
	./internal/parallel ./internal/features ./internal/ml ./internal/classify \
	./internal/stream ./internal/alert ./internal/world ./internal/dnssim \
	./internal/dnslog ./internal/dnscap ./internal/trace ./cmd/bsserve

.PHONY: verify fmt vet lint build test race bench-check budget prof-artifacts determinism chaos fuzz cover tracecheck trace-artifacts soak loc

verify: fmt loc vet lint build test race fuzz tracecheck budget
	@echo "verify: all checks passed"

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# bslint's module checks include docs: every relative link and back-ticked
# file reference in the Markdown resolves, and the root *.md stay within
# the 200 KiB prose budget.
lint:
	$(GO) run ./cmd/bslint ./...

build:
	$(GO) build ./...

# -shuffle=on randomizes test execution order each run, flushing out
# inter-test state dependence; failures print the shuffle seed to replay.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Per-package coverage with a floor: writes the merged profile to
# coverage.out (the CI job publishes it as an artifact) and fails if any
# tested package drops below the floor. Untested packages (cmd mains,
# examples) are exempt — the build exercises them. internal/lint holds a
# higher floor: the linters gate every other invariant, so their own
# coverage must not rot. cmd/bsserve holds a lower one: its handler
# mux is fully tested, but main() is an operational UDP/signal loop no
# unit test can drive. bsprof -cover is the gate.
cover:
	$(GO) test -coverprofile=coverage.out ./... > cover-packages.txt \
		|| { cat cover-packages.txt; rm -f cover-packages.txt; exit 1; }
	$(GO) run ./cmd/bsprof -cover -floor 80 \
		-pkgfloor dnsbackscatter/internal/lint=85 \
		-pkgfloor dnsbackscatter/internal/prof=85 \
		-pkgfloor dnsbackscatter/internal/stream=85 \
		-pkgfloor dnsbackscatter/internal/hhh=85 \
		-pkgfloor dnsbackscatter/internal/hll=90 \
		-pkgfloor dnsbackscatter/internal/alert=85 \
		-pkgfloor dnsbackscatter/cmd/bsserve=35 < cover-packages.txt
	@rm -f cover-packages.txt

# Short fuzz smoke on the wire codec, the streaming engine, the
# heavy-hitters sketch (against its linear-scan reference), the name
# classifier (against its keyword-by-keyword reference), the two record
# parsers, log text and capture frames, and the two operator-written
# inputs, alert rule files and fault specs: ten seconds per target. The
# engine's target minimizes a new input in at most 100 runs, not the
# default 60 s, which would take most of its ten seconds. Crashers
# land in the package's testdata/fuzz/ and from then on run as plain
# regression tests on every `go test`.
fuzz:
	$(GO) test ./internal/dnswire -run '^$$' -fuzz FuzzDecode -fuzztime 10s
	$(GO) test ./internal/dnswire -run '^$$' -fuzz FuzzRoundTrip -fuzztime 10s
	$(GO) test ./internal/stream -run '^$$' -fuzz FuzzStreamIngest -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/hhh -run '^$$' -fuzz FuzzSketchOps -fuzztime 10s
	$(GO) test ./internal/qname -run '^$$' -fuzz FuzzClassify -fuzztime 10s
	$(GO) test ./internal/dnslog -run '^$$' -fuzz FuzzParseRecord -fuzztime 10s
	$(GO) test ./internal/dnscap -run '^$$' -fuzz FuzzReader -fuzztime 10s
	$(GO) test ./internal/alert -run '^$$' -fuzz FuzzAlertParse -fuzztime 10s
	$(GO) test ./internal/faults -run '^$$' -fuzz FuzzFaultsParse -fuzztime 10s

# Streaming-engine soak: ~700k records across 12 epochs at >10x the
# engine's originator capacity, asserting the resource contract (hard
# state bound, plateaued heap peaks, zero goroutine leaks, verdicts at
# every tick). SOAK_DIR collects the per-epoch resource report, final
# snapshot, and windowed series — the CI soak job uploads them.
soak:
	BS_SOAK=1 $(GO) test ./internal/stream -run TestStreamSoak -count=1 -v

# End-to-end worker-count determinism under the race detector — the
# CI job runs this with GOMAXPROCS=2 so parallel paths really interleave.
# TestWarmExtractorMatchesFresh extends the matrix with the PR 8 contract:
# scratch reuse changes no output byte — an extractor warm from earlier
# intervals returns what a freshly constructed one does, interval by
# interval. TestStreamWorkerDeterminism extends it to the
# PR 9 streaming engine: byte-identical snapshots, status, and replay
# comparisons at workers {1, 8}. TestAlertDeterminism extends it to the
# PR 10 alert engine: byte-identical transition logs with a full
# pending -> firing -> resolved cycle under servfail-storm.
determinism:
	$(GO) test -race -run 'TestSeedMatrixDeterminism|TestWarmExtractorMatchesFresh|TestStreamWorkerDeterminism|TestAlertDeterminism' -v .

# Non-test Go lines per layer — the table every PR quotes in CHANGES.md —
# beside each layer's ceiling in loc.budgets, with the total outside the
# benchmark. Part of verify: fails when a layer exceeds its ceiling or
# has none. A PR that needs a layer to grow raises its line in the same
# diff; a PR that deletes code lowers it.
loc:
	@total=0; fail=0; for d in . internal/* cmd/* examples/*; do \
		n=$$(ls $$d/*.go 2>/dev/null | grep -v _test.go | xargs -r cat | wc -l); \
		[ $$n -gt 0 ] || continue; \
		max=$$(awk -v d=$$d '$$1 == d { print $$2 }' loc.budgets); \
		printf '%-24s %6d %6s\n' $$d $$n "$$max"; \
		if [ -z "$$max" ]; then echo "loc: $$d has no ceiling in loc.budgets"; fail=1; \
		elif [ $$n -gt $$max ]; then echo "loc: $$d has $$n lines, over its ceiling of $$max"; fail=1; fi; \
		case $$d in cmd/bsperf) ;; *) total=$$((total+n)) ;; esac; \
	done; printf '%-24s %6d\n' 'total sans cmd/bsperf' $$total; exit $$fail

# Chaos seed matrix: the full pipeline under deterministic fault
# profiles (none / lossy / servfail-storm) × seeds × worker counts,
# byte-comparing snapshots and classification reports. The CI job runs
# this under -race with GOMAXPROCS=2. TestChaosTraceDeterminism extends
# the matrix to the PR 5 artifacts: trace JSONL and windowed series.
chaos:
	$(GO) test -race -run 'TestChaos' -v .

# Trace determinism: byte-identical trace JSONL and windowed time-series
# snapshots at workers {1, 2, 8} under fault injection. Part of verify;
# the chaos job re-runs it under -race.
tracecheck:
	$(GO) test -run TestChaosTraceDeterminism -count=1 .

# Reference tracing artifacts: a small faulted reproduction run whose
# end-to-end traces, windowed time series, and alert transition log CI
# uploads from the chaos job. Render the traces with `go run
# ./cmd/bsview trace -in traces.jsonl`; replay the alerts with `go run
# ./cmd/bsview alerts -timeseries timeseries.json -traces traces.jsonl`.
trace-artifacts:
	$(GO) run ./cmd/bsrepro -scale 0.08 -experiment figure3 -faults lossy@7 \
		-trace traces.jsonl -trace-sample 8 \
		-timeseries timeseries.json -window 2h \
		-alerts alerts.jsonl > /dev/null

# Allocation-budget gate over the full benchmark suite: one pass, every
# benchmark held to its alloc.budgets ceiling by bsprof -check. Wall time
# is bsperf's to measure (BENCHMARK.json); a -benchtime 1x sample is not
# a timing.
bench-check:
	$(call budget-check,.)

# Fast allocation-budget gate, part of verify: the BenchmarkParallel*
# suite (seconds, and it covers the pipeline's hot fan-out paths) plus
# BenchmarkProfOverhead, whose off case pins the zero-cost-when-disabled
# accounting contract, and BenchmarkEngine* (internal/stream), which
# holds the engine's per-batch and per-epoch scratch reuse. Budgets for
# the rest of the suite are enforced by bench-check / CI; budgeted
# benchmarks outside the subset are logged as skipped. A single hot-path
# operation is held by an AllocsPerRun test in plain go test instead
# (PERFORMANCE.md, "Allocation tests").
budget:
	$(call budget-check,BenchmarkParallel|BenchmarkProfOverhead|BenchmarkEngine)

# budget-check runs the benchmarks matching $(1) in the root package and
# internal/stream once with -benchmem and hands the output to bsprof
# -check. The run goes through a file, so a failing benchmark fails the
# gate instead of reading as skipped budgets.
define budget-check
	@out=$$(mktemp); \
	$(GO) test -run '^$$' -bench '$(1)' -benchmem -benchtime 1x . ./internal/stream > $$out || { cat $$out; rm -f $$out; exit 1; }; \
	$(GO) run ./cmd/bsprof -check -budgets alloc.budgets -bench $$out; code=$$?; rm -f $$out; exit $$code
endef

# Resource-observatory artifacts for CI: a scaled reproduction run's
# per-stage resource report (ops channel, scheduling-dependent), printed
# by bsprof -report, plus heap and CPU profiles from the benchmark suite,
# read with go tool pprof: the flat allocation ranking, then the extract
# path's sites (stacks crossing features, qname or geo).
prof-artifacts:
	$(GO) run ./cmd/bsrepro -scale 0.08 -experiment figure3 -resources resources.json > /dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkParallelExtract' -benchmem -benchtime 1x \
		-memprofile heap.pprof -cpuprofile cpu.pprof . > /dev/null
	$(GO) run ./cmd/bsprof -report resources.json
	$(GO) tool pprof -top -nodecount 10 -sample_index alloc_space heap.pprof
	$(GO) tool pprof -top -nodecount 3 -sample_index alloc_space \
		-focus 'internal/(features|qname|geo)' heap.pprof
