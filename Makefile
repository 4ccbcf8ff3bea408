GO ?= go

.PHONY: build test check race vet bench bench-smoke pipeline-smoke stability-smoke obs-smoke restore-chaos svc-smoke svc-chaos perf-smoke

build:
	$(GO) build ./...

# Tier-1: fast correctness gate (crash-enumeration sweeps are skipped
# under -short; run `make check` for the full suite).
test:
	$(GO) build ./... && $(GO) test -short ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Full gate: vet + the complete test suite (including the crash-point
# enumeration sweeps in internal/robustness) under the race detector,
# plus a quick-scale end-to-end smoke of the extension figures and an
# observability check over their emitted JSON.
check: vet race restore-chaos svc-chaos svc-smoke obs-smoke

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

# End-to-end service chaos: crash a shard at every rebalance phase,
# partition the fabric mid-commit, and kill-and-restart the whole
# daemon — all under the race detector. The invariant is that every
# client-acknowledged commit is restorable and tenants only ever see
# typed retryable errors. Failures dump the obs trace ring plus the
# full metrics table (TRACE_*.txt) for CI to upload.
svc-chaos:
	$(GO) test -race -run TestServiceChaos -v ./internal/robustness/

# Quick-scale run of the extension figures. The BENCH_*.json files land
# at the repo root so the perf trajectory is versioned with the code,
# not just buried in CI artifacts.
bench-smoke:
	$(GO) run ./cmd/lsmio-bench -fig ext-nvme -scale quick -json . -q
	$(GO) run ./cmd/lsmio-bench -fig ext-burst -scale quick -json . -q
	$(GO) run ./cmd/lsmio-bench -fig ext-degraded -scale quick -json . -q
	$(GO) run ./cmd/lsmio-bench -fig ext-compaction -scale quick -json . -q
	$(GO) run ./cmd/lsmio-bench -fig ext-restore -scale quick -json . -q
	$(GO) run ./cmd/lsmio-bench -fig ext-service -scale quick -json . -q

# Write-path pipelining smoke: the ext-pipeline figure's shape checks
# are the throughput gate for the table-build pipeline (≥1.3× serial
# flush at 4 encode workers), piped compaction, and WAL group commit.
pipeline-smoke:
	$(GO) run ./cmd/lsmio-bench -fig ext-pipeline -scale quick -json . -q

# Sustained-load stability smoke: the ext-stability figure's shape
# checks are the gate for the shared I/O bandwidth scheduler
# (internal/iosched) — scheduler-on must show strictly lower windowed
# throughput CoV and p999 drift than scheduler-off at no more than 5%
# mean-throughput cost, and improve foreground commit p99 under a
# compaction storm with concurrent scrub traffic.
stability-smoke:
	$(GO) run ./cmd/lsmio-bench -fig ext-stability -scale quick -json . -q

# Observability smoke: every extension figure's JSON must embed the
# unified obs registry snapshot ("metrics") with per-op latency
# quantiles down to p999 — the guarantee that every layer is still
# plumbed through internal/obs.
obs-smoke: bench-smoke pipeline-smoke stability-smoke
	@for f in BENCH_ext-nvme.json BENCH_ext-burst.json BENCH_ext-degraded.json BENCH_ext-compaction.json BENCH_ext-restore.json BENCH_ext-service.json BENCH_ext-pipeline.json BENCH_ext-stability.json; do \
		grep -q '"metrics"' $$f || { echo "obs-smoke: $$f missing metrics snapshot" >&2; exit 1; }; \
		grep -q '"p999"' $$f || { echo "obs-smoke: $$f missing latency quantiles" >&2; exit 1; }; \
	done; echo "obs-smoke: all extension figures embed registry snapshots"

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

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
