GO ?= go
STATICCHECK ?= staticcheck

.PHONY: all build test vet lint size race race-core race-server chaos chaos-cluster e2e-smoke e2e-cluster bench bench-core bench-smoke bench-pairs fuzz-smoke same-answers profile-artifact check clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static analysis: gofmt over every tracked Go file, then staticcheck when
# available (CI installs it), vet-only otherwise so the target works in
# hermetic environments.
lint: vet
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; ran go vet only" \
		     "(go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Code size: non-test, non-comment, non-blank lines of tracked Go outside the
# frozen benchmark module — the figure simplicity changes report. Nothing
# gates on it.
size:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^perfbench/' | \
		xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l

race:
	$(GO) test -race ./...

# The observability core under the race detector: the stats registry,
# trace ring, the pipeline (profiler/audit hooks included), and the sampled
# path's foundations — immutable simpoint plans/checkpoints are shared across
# concurrent restores, so funcsim + simpoint belong under -race too, and so
# does the recycler every worker's machines are built from.
race-core:
	$(GO) test -race ./internal/stats ./internal/trace ./internal/pipeline \
		./internal/funcsim ./internal/simpoint ./internal/recycle

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

# Alternating parent/change pairs of one perfbench workload, built at BASE and
# in the working tree, summarised per end-to-end metric: each side's median
# and quartiles, the change's wins, and the gap between the medians against
# the base's interquartile range. Not in CI: a pair takes about a minute.
PAIRS ?= 10
SEED ?= 1
RUN_SECONDS ?= 20
bench-pairs:
	sh scripts/bench_pairs.sh $(BASE) $(WORKLOAD) $(PAIRS) $(SEED) $(RUN_SECONDS)

# Short fuzz passes over the untrusted-input surfaces: the assembler's
# parser, the instruction decoder, and the job-spec JSON that content-addresses
# every daemon result (Normalize must be idempotent and key-stable, because a
# cluster owner re-normalizes forwarded specs); plus physical memory's
# page-wise bulk copies against a byte-wise model, since every program load
# and checkpoint restore goes through them; and the two checkpoint encodings
# (the warm-up log and the page delta), which must round-trip exactly. CI
# runs them on every push. `go test -fuzz` takes one target per run.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s -run=^$$ ./internal/asm
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s -run=^$$ ./internal/isa
	$(GO) test -fuzz=FuzzJobSpecKey -fuzztime=10s -run=^$$ ./internal/server/api
	$(GO) test -fuzz=FuzzPhysMemBytes -fuzztime=10s -run=^$$ ./internal/mem
	$(GO) test -fuzz=FuzzWarmLog -fuzztime=10s -run=^$$ ./internal/simpoint
	$(GO) test -fuzz=FuzzPageDelta -fuzztime=10s -run=^$$ ./internal/simpoint

# Identity check for a change that must not move any answer: every catalogue
# workload under every policy, built at BASE and in the working tree, with
# stdout and all five output files compared byte for byte. Not in CI, since a
# change that means to move an answer fails it.
same-answers:
	sh scripts/same_answers.sh $(BASE)

# The tier-1 gate: what CI runs. Simulator speed is measured by perfbench
# (bash perfbench/run.sh; make bench-smoke checks its answers).
check: build lint race
	@echo "check passed (speed: bash perfbench/run.sh; answers: make bench-smoke)"

clean:
	$(GO) clean ./...
