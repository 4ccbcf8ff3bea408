GO ?= go

.PHONY: build test check race vet bench-once figures determinism fuzz restore-chaos svc-smoke svc-chaos restart perf-smoke loc pairs

build:
	$(GO) build ./...

# Tier-1: fast correctness gate (crash-enumeration sweeps are skipped
# under -short; run `make check` for the full suite).
test:
	$(GO) build ./... && $(GO) test -short ./...

# gofmt prints the name of every file whose layout differs from its own;
# any name fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); [ -z "$$unformatted" ] || \
		{ echo "vet: gofmt -l lists files to format:" >&2; echo "$$unformatted" >&2; exit 1; }

race:
	$(GO) test -race ./...

# Full gate: vet + the complete test suite (including the crash-point
# enumeration sweeps in internal/robustness) under the race detector,
# plus the extension figures regenerated, shape-checked and compared
# with their versioned JSON, the paper figures at quick scale compared
# with their versioned CSVs, both again on one OS thread, each fuzz
# target run for a bounded time and every benchmark run once.
check: vet race restore-chaos svc-chaos svc-smoke restart figures determinism fuzz bench-once

# Bounded fuzzing of the parsers that read on-disk bytes, of the
# encoder that writes them, of the CRC combine that checksums them and
# of the in-memory and crash filesystem models the tests run on: each
# native fuzz target, named as package:target, runs for FUZZTIME. A
# failing input is written under the package's testdata/fuzz/ and
# replays under plain `go test` from then on. Minimizing a new input is
# bounded to 100 runs: Go's default of up to 60 s per input counts no
# execs and can spend a target's whole FUZZTIME.
FUZZTIME ?= 10s
FUZZ_TARGETS = ./internal/lsm:FuzzParseBlock ./internal/lsm:FuzzWALReader \
	./internal/lsm:FuzzSnappyDecode ./internal/lsm:FuzzBatchDecode \
	./internal/lsm:FuzzCRCCombine \
	./internal/snappy:FuzzSnappyEncode ./internal/vfs:FuzzMemFSOps \
	./internal/faultfs:FuzzFaultFSModel
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZTIME) \
			-fuzzminimizetime 100x "$${t%%:*}" || exit 1; \
	done

# Multi-tenant service smoke: a simulated lsmiod session with four
# behaved tenants beside a flooding noisy neighbor must keep the
# behaved p99 commit latency within 2x the solo baseline — the
# fair-share admission guarantee, asserted end to end through the
# fabric front.
svc-smoke:
	$(GO) run ./cmd/lsmiod -sim -tenants 4 -shards 4 -noisy -fair -assert-fair 2

# The combined-fault restore chaos sweep (dead OST + corrupt step +
# crash mid-restore, every crash point enumerated) run on its own so a
# restore regression is named in the gate output, not buried in `race`.
restore-chaos:
	$(GO) test -race -run TestRestoreChaosCombinedFaults -v ./internal/robustness/

# Retention on the real filesystem, end to end: the restart example
# commits under Keep: 2 on OSFS in a fresh temporary directory, restarts,
# restores, rolls back its torn step and fails unless the store's table
# files hold no more than the kept steps.
restart:
	@d=$$(mktemp -d) && { $(GO) run ./examples/restart $$d/demo; rc=$$?; rm -rf $$d; exit $$rc; }

# End-to-end service chaos: crash one shard early or late, or two at
# once, while tenants commit, partition the fabric mid-commit, and
# kill-and-restart the whole daemon — all under the race detector. The
# invariant is that every client-acknowledged commit is restorable and
# tenants only ever see typed retryable errors. Failures dump the obs trace ring plus the
# full metrics table (TRACE_*.txt) for CI to upload.
svc-chaos:
	$(GO) test -race -run TestServiceChaos -v ./internal/robustness/

# The eight extension figures at quick scale, in one process. Their
# shape checks are the end-to-end gates of the staging tier, degraded
# mode, compaction, restore, the service, the table-build pipeline
# (>= 1.3x serial flush at 4 encode workers, piped compaction, WAL group
# commit) and the shared I/O scheduler (lower windowed-throughput CoV
# and p999 drift at <= 5% mean-throughput cost). Every emitted JSON
# must embed the obs registry snapshot ("metrics") with latency
# quantiles down to p999 — every layer still plumbed through
# internal/obs. And the simulator is deterministic, so the BENCH_*.json
# files versioned at the repo root must come out byte for byte: a diff
# is a change in virtual time that the PR has to explain and commit.
# The paper's Figs. 5-10 then run at quick scale into results/quick/:
# their CSVs and the run's transcript, which lists every shape check's
# outcome, are versioned and diffed the same way. Their bands are set
# for paper scale and some fail at quick scale (ROADMAP item 16), so a
# run that ends by counting failed checks is not itself a failure: a
# check that changes outcome changes the transcript. A run that stops
# on an error leaves CSVs missing or its transcript cut short, and
# fails here.
figures:
	$(GO) run ./cmd/lsmio-bench -fig ext -scale quick -json . -q
	@for f in BENCH_ext-*.json; do \
		grep -q '"metrics"' $$f || { echo "figures: $$f missing metrics snapshot" >&2; exit 1; }; \
		grep -q '"p999"' $$f || { echo "figures: $$f missing latency quantiles" >&2; exit 1; }; \
	done
	git diff --exit-code -- 'BENCH_ext-*.json'
	@rm -rf results/quick && mkdir -p results/quick
	@$(GO) run ./cmd/lsmio-bench -fig paper -scale quick -csv results/quick -q > results/quick/figures.txt || \
		tail -n 1 results/quick/figures.txt | grep -q 'shape check(s) outside their band$$' || \
		{ echo "figures: lsmio-bench -fig paper -scale quick failed" >&2; exit 1; }
	git diff --exit-code -- results/quick/

# The simulator's output does not depend on how the Go scheduler runs
# its goroutines: the extension and paper figures at quick scale, rerun
# with GOMAXPROCS=1 into a temporary directory, must reproduce every
# versioned BENCH_ext-*.json, every results/quick/ CSV and the paper
# run's transcript byte for byte. The quick-scale band failures the
# transcript counts are tolerated exactly as in `figures`. About 40 s
# on two cores.
determinism:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && mkdir -p "$$d/ext" "$$d/results/quick" && \
	$(GO) build -o "$$d/lsmio-bench" ./cmd/lsmio-bench && \
	GOMAXPROCS=1 "$$d/lsmio-bench" -fig ext -scale quick -json "$$d/ext" -q > /dev/null && \
	for f in BENCH_ext-*.json; do cmp "$$f" "$$d/ext/$$f" || exit 1; done && \
	[ $$(ls "$$d/ext" | wc -l) -eq $$(ls BENCH_ext-*.json | wc -l) ] || \
		{ echo "determinism: the ext run failed or wrote other JSON files than the versioned ones" >&2; exit 1; }; \
	( cd "$$d" && GOMAXPROCS=1 ./lsmio-bench -fig paper -scale quick -csv results/quick -q > results/quick/figures.txt ) || \
		tail -n 1 "$$d/results/quick/figures.txt" | grep -q 'shape check(s) outside their band$$' || \
		{ echo "determinism: lsmio-bench -fig paper -scale quick failed" >&2; exit 1; }; \
	diff -r results/quick "$$d/results/quick" && echo "determinism: GOMAXPROCS=1 reproduces every versioned figure byte for byte"

# One iteration of every benchmark of every package: tests never run
# them, so without this a benchmark that panics or no longer builds its
# inputs goes unnoticed until someone measures with it.
bench-once:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Wall-clock smoke of the checkpoint write path: one short round of the
# repository benchmark's paper-configuration workload on the real
# filesystem. The round verifies every restore against its generator and
# an acknowledged step through a crash; its last line is the result
# object, which must say so. It gates correctness, not speed: the
# numbers of one 5 s round on a shared runner are for reading.
perf-smoke:
	@out=$$(bash benchmark/run.sh --workload ckpt-llm --seed 1 --seconds 5 --trace 0); rc=$$?; \
	echo "$$out" | tail -n 2; \
	[ $$rc -eq 0 ] && echo "$$out" | tail -n 1 | grep -q '"correct":true' || \
		{ echo "perf-smoke: the round failed or its last line does not report \"correct\":true" >&2; exit 1; }

# Paired wall-clock comparison against a base revision: BASE, and HEAD
# with the working tree's changes copied over it, are checked out as two
# git worktrees side by side under .bench_scratch/, so both sides build
# and run the same way, and N rounds run in each tree, alternating, with
# the order swapped every pair. A round is one
# run of WORKLOAD, or of the Go benchmarks matching BENCH in PKG (default
# every package; BENCHTIME is go test's -benchtime) from test binaries
# built once per tree. Prints both medians and IQRs, the ratio, the pairs
# won and a verdict for every end-to-end metric in BENCHMARK.json (against
# its bound) or every unit the benchmarks report. Manual: a pair of 20 s
# workload rounds takes about a minute.
N ?= 10
PKG ?= ./...
pairs:
	@[ -n "$(BASE)" ] && [ -n "$(WORKLOAD)$(BENCH)" ] || { echo "usage: make pairs BASE=<rev> WORKLOAD=<name> [N=10]" >&2; \
		echo "       make pairs BASE=<rev> BENCH=<regexp> [PKG=<packages>] [BENCHTIME=<t>] [N=10]" >&2; exit 2; }
	$(GO) run ./cmd/benchpairs -base $(BASE) $(if $(BENCH),-bench '$(BENCH)' -pkg '$(PKG)' -benchtime '$(BENCHTIME)',-workload $(WORKLOAD)) -n $(N)

# Size of the program, counted one way for every change: non-test Go
# lines outside benchmark/, in total, per top-level directory and per
# package under internal/; then the fields of each options struct a
# caller sets (one per name, so `A, B int` is two).
LOC_OPTIONS = internal/lsm/options.go:Options internal/core/store.go:StoreOptions \
	internal/svc/svc.go:Options internal/burst/burst.go:Options \
	internal/iosched/iosched.go:Config internal/svc/supervisor.go:SupervisorConfig \
	internal/svc/admission.go:TenantConfig internal/svc/admission.go:AdmissionConfig \
	internal/core/manager.go:ManagerOptions internal/adios2/adios2.go:Config \
	internal/svc/front.go:FrontOptions internal/pfs/resilience.go:Resilience \
	internal/bench/service.go:ServiceSession internal/resil/resil.go:Options \
	internal/ior/ior.go:Params
loc:
	@find . -path ./benchmark -prune -o -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print | \
	xargs wc -l | awk '$$2 != "total" { n = split($$2, p, "/"); top = (n == 2 ? "." : p[2]); \
		c[top] += $$1; t += $$1; if (top == "internal" && n > 3) c["internal/" p[3]] += $$1 } \
		END { printf "non-test Go lines outside benchmark/: %d\n", t; for (d in c) print d, c[d] | "sort" }' | \
	awk 'NR == 1 { print; next } { printf "  %-22s %6d\n", $$1, $$2 }'
	@for spec in $(LOC_OPTIONS); do \
		f=$${spec%%:*}; ty=$${spec##*:}; pkg=$$(basename $$(dirname $$f)); \
		awk -v ty=$$ty -v name=$$pkg.$$ty '$$0 ~ "^type " ty " struct" { in_ = 1; next } \
			in_ && /^}/ { printf "fields of %-20s %3d\n", name, n; exit } \
			in_ && match($$0, /^\t[A-Za-z_][A-Za-z0-9_.]*(, *[A-Za-z_][A-Za-z0-9_]*)*/) { \
				s = substr($$0, RSTART, RLENGTH); n += gsub(/,/, ",", s) + 1 }' $$f; \
	done
