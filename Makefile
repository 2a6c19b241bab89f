GO ?= go
STATICCHECK ?= staticcheck

.PHONY: all build test vet lint race race-core race-server chaos chaos-cluster e2e-smoke e2e-cluster bench bench-core bench-smoke fuzz-smoke profile-artifact perf perf-diff check clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static analysis: staticcheck when available (CI installs it), vet-only
# otherwise so the target works in hermetic environments.
lint: vet
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; ran go vet only" \
		     "(go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

race:
	$(GO) test -race ./...

# The observability core under the race detector: the stats registry,
# trace ring, the pipeline (profiler/audit hooks included), and the sampled
# path's foundations — immutable simpoint plans/checkpoints are shared across
# concurrent restores, so funcsim + simpoint belong under -race too.
race-core:
	$(GO) test -race ./internal/stats ./internal/trace ./internal/pipeline \
		./internal/funcsim ./internal/simpoint

# The service layer under the race detector: queue, worker pool, the
# content-addressed store (results, dedup, profiles), the HTTP/streaming
# handlers, and the span flight recorder all share state across goroutines.
race-server:
	$(GO) test -race ./internal/server/... ./internal/otrace

# Chaos drill: the fault-injection framework's own tests, the client's
# retry/backoff/resubmission suite, and the chaos + deadline + cache-race
# suites, all under the race detector — injected faults and latency fire on
# the production goroutines, so -race is part of the assertion.
chaos:
	$(GO) test -race -count=1 ./internal/faults ./internal/server/client
	$(GO) test -race -count=1 -run 'Chaos|Deadline|Cache' ./internal/server

# Cluster chaos drill: the consistent-hash ring property suite and the
# coordinator's fault-point scenarios (dying forwards, hedge suppression,
# probe failures, seeded bit-identity with dropped cache fills) under -race —
# the coordinator's peer table and counters are all cross-goroutine state.
chaos-cluster:
	$(GO) test -race -count=1 ./internal/cluster

# Full-stack service smoke: build specmpkd, submit an experiment through
# specmpk-bench -remote twice, assert a cache hit, SIGKILL the daemon under a
# live client and require recovery-by-resubmission, and drain on SIGTERM.
e2e-smoke:
	sh scripts/e2e_smoke.sh

# Full-stack cluster e2e: three clustered daemons, exactly-once placement
# with a warm pass answered from the owners' result stores, daemon-side
# forwarding with a merged cross-node Perfetto trace, hedging past a
# latency-faulted node, and a SIGKILL mid-sweep that must recover via
# failover + resubmission with output bit-identical to a pristine
# single-node run.
e2e-cluster:
	sh scripts/e2e_cluster.sh

# The profile/differential experiment as machine-readable JSON; CI uploads
# it as a build artifact so every push carries a browsable per-PC profile.
profile-artifact:
	$(GO) run ./cmd/specmpk-bench -workloads 520.omnetpp_r \
		-modes serialized,specmpk -json profile > profile.json

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Hot-path micro-benchmarks only: the cost of one Machine.Step and of a whole
# bounded Run, with allocs/op (the refactor's zero-alloc claim is visible as
# "0 allocs/op" on the Step rows). Much faster than the full bench sweep.
bench-core:
	$(GO) test -bench='MachineStep|MachineRun' -benchmem -run=^$$ \
		./internal/pipeline

# Answer smoke over the benchmark: each perfbench workload for a one-second
# window (a window still holds at least 100 simulating jobs). perfbench
# checks every answer — the CPI stack sums to cycles, the five policies retire
# the same instructions, a resubmitted result is byte-identical — and the
# target fails unless the last line of each run reads "correct":true.
bench-smoke:
	@for w in policy-sweep sampled-sweep service-cluster; do \
		out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0) || exit 1; \
		echo "$$out"; \
		echo "$$out" | tail -n 1 | grep -q '"correct":true' || \
			{ echo "bench-smoke: $$w: answer checks failed" >&2; exit 1; }; \
	done

# Meta-benchmark: capture simulator + service throughput into
# BENCH_$(PERF_LABEL).json (schema specmpk-bench/1). PERF_FLAGS defaults to a
# time-boxed smoke sized for CI; override with PERF_FLAGS= for the full
# default budgets when refreshing BENCH_baseline.json.
PERF_LABEL ?= local
PERF_THRESHOLD ?= 50
PERF_FLAGS ?= -perf-budget 200000 -perf-jobs 8 -perf-job-cycles 50000
perf:
	$(GO) run ./cmd/specmpk-bench -label $(PERF_LABEL) $(PERF_FLAGS) perf

# Diff the latest capture against the committed baseline; exits non-zero when
# any metric regressed beyond PERF_THRESHOLD percent.
perf-diff:
	$(GO) run ./cmd/specmpk-bench -threshold $(PERF_THRESHOLD) \
		perfdiff BENCH_baseline.json BENCH_$(PERF_LABEL).json

# Short fuzz passes over the untrusted-input surfaces: the assembler's
# parser, the instruction decoder, and the job-spec JSON that content-addresses
# every daemon result (Normalize must be idempotent and key-stable, because a
# cluster owner re-normalizes forwarded specs); CI runs them on every push.
# `go test -fuzz` takes one target per run.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s -run=^$$ ./internal/asm
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s -run=^$$ ./internal/isa
	$(GO) test -fuzz=FuzzJobSpecKey -fuzztime=10s -run=^$$ ./internal/server/api

# The tier-1 gate: what CI runs. The perf trajectory (make perf, make
# perf-diff against BENCH_baseline.json) rides alongside without gating it.
check: build lint race
	@echo "check passed (perf trajectory: make perf && make perf-diff)"

clean:
	$(GO) clean ./...
