# Local entry points mirror CI (.github/workflows/ci.yml) exactly:
# `make check` locally runs what CI runs on every push/PR.

GO ?= go

.PHONY: build vet fmt-check test tier1 race race-smoke fuzz-smoke lint lint-baseline baseline-check check bench bench-smoke trace-smoke fault-smoke fault-par-smoke prof-smoke tables-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when gofmt would reformat any .go file in the tree,
# listing the files.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists:" >&2; echo "$$out" >&2; exit 1; fi

test:
	$(GO) test -short ./...

# tier1 runs exactly the tier-1 gate in ROADMAP.md (full tests, no -short).
# The CI tier1 job runs it under /usr/bin/time -v, so its log records the
# gate's wall time and peak RSS.
tier1:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race -short ./...

# race-smoke mirrors the CI race-smoke job: the concurrency-heavy tests
# (parallel round loop, worker fan-out, parallel accept/bucketing and its
# cross-worker conformance suite — forced pool columns included, the
# engine-versus-reference-executor check and its fuzz seed corpus — forced
# pool columns included, the persistent-pool rapid-dispatch and close-cycle
# stresses, the million-node scale round — faulted expander column
# included, fault injection inside the parallel phase bodies, and the chaos
# soak) under the race detector, without -short. This is the dynamic backstop for the
# happensbefore analyzer's documented static boundaries (untraceable
# pointers, receiver-method bodies, the scatter-cursor idiom whose
# disjointness rests on the sequential prefix merge, the frozen-for-the-
# round fault mask reads, and the epoch-publish proof's single-dispatcher
# and constructor-before-spawn assumptions). The second command runs the
# experiment harness's shared trial pool: the quick sweep, the checkpoint and
# interrupt tests and the adaptive adversary, whose trial closures run
# concurrently and which -short skips.
race-smoke:
	$(GO) test -race -timeout 20m ./internal/sim ./internal/fault -run 'Parallel|Workers|Fault|Chaos|Pool|EngineMatchesOracle'
	$(GO) test -race -timeout 20m ./internal/experiment -run 'TestQuickRuns|TestAdaptiveStars|TestCheckpoint|TestInterrupt'

# fuzz-smoke mirrors the CI fuzz-smoke job. First, 30 seconds of native
# fuzzing that decodes small configurations (topology, schedule, protocol,
# fault plan, workers, dispatch, classical mode, accept policy) and requires
# the engine to run each exactly as the test-only reference executor does.
# Then 15 seconds that decode small CSR arrays and require graph.FromCSR
# never to panic and to reach the test-only reference validator's verdict,
# naming a truly missing reverse entry when it rejects an asymmetric input.
# A failing input is saved under the package's testdata/fuzz/ for replay.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzEngineMatchesOracle$$' -fuzztime 30s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzFromCSR$$' -fuzztime 15s ./internal/graph

lint:
	$(GO) run ./cmd/mtmlint ./...

# lint-baseline regenerates the committed JSON baseline that CI diffs
# mtmlint output against; commit the result when a finding is knowingly
# introduced or retired.
lint-baseline:
	$(GO) run ./cmd/mtmlint -json ./... > lint_baseline.json || true

# baseline-check fails when mtmlint -json output drifts from the
# committed lint_baseline.json (new findings AND silently fixed ones both
# count: regenerate deliberately with make lint-baseline).
baseline-check:
	$(GO) run ./cmd/mtmlint -json ./... > /tmp/mtmlint-now.json || true
	cmp lint_baseline.json /tmp/mtmlint-now.json

check: build vet fmt-check test race lint baseline-check

# bench records a fresh full-suite BENCH_local.json (see README "Performance").
bench:
	$(GO) run ./cmd/mtmbench -label local

# bench-smoke mirrors the CI job: run the quick subset and fail on
# regressions against the committed baseline (allocs are the cross-host
# signal; ns/op only trips on catastrophic slowdowns).
bench-smoke:
	$(GO) run ./cmd/mtmbench -quick -label smoke -out - -compare BENCH_seed.json

# fault-smoke mirrors the CI fault-smoke job, the crash-safe harness
# contract end to end: (1) a checkpointed sweep killed mid-run (-die-after)
# and resumed must render the byte-identical CSV of an uninterrupted run;
# (2) two recordings under the same fault plan must be byte-identical —
# fault injection is as deterministic as the fault-free engine.
fault-smoke:
	rm -rf /tmp/mtm-fault-smoke && mkdir -p /tmp/mtm-fault-smoke
	$(GO) build -o /tmp/mtm-fault-smoke/mtmexp ./cmd/mtmexp
	/tmp/mtm-fault-smoke/mtmexp -run R2-corruption-recovery -quick -trials 2 -csv > /tmp/mtm-fault-smoke/baseline.csv
	/tmp/mtm-fault-smoke/mtmexp -run R2-corruption-recovery -quick -trials 2 -csv -checkpoint /tmp/mtm-fault-smoke/ck -die-after 2 > /dev/null 2>&1; \
	  test $$? -eq 3 || { echo "fault-smoke: -die-after run did not exit 3" >&2; exit 1; }
	/tmp/mtm-fault-smoke/mtmexp -run R2-corruption-recovery -quick -trials 2 -csv -checkpoint /tmp/mtm-fault-smoke/ck > /tmp/mtm-fault-smoke/resumed.csv
	cmp /tmp/mtm-fault-smoke/baseline.csv /tmp/mtm-fault-smoke/resumed.csv
	$(GO) run ./cmd/mtmtrace record -topo regular -n 64 -deg 8 -algo blindgossip -proposal-loss 0.3 -conn-loss 0.2 -tagflip-rate 0.05 -seed 11 -o /tmp/mtm-fault-smoke/a.jsonl
	$(GO) run ./cmd/mtmtrace record -topo regular -n 64 -deg 8 -algo blindgossip -proposal-loss 0.3 -conn-loss 0.2 -tagflip-rate 0.05 -seed 11 -o /tmp/mtm-fault-smoke/b.jsonl
	$(GO) run ./cmd/mtmtrace diff /tmp/mtm-fault-smoke/a.jsonl /tmp/mtm-fault-smoke/b.jsonl
	$(GO) run ./cmd/mtmtrace summary /tmp/mtm-fault-smoke/a.jsonl

# trace-smoke mirrors the CI obs-smoke job: record the same run twice and
# require byte-identical traces — executions (and their event streams) are
# pure functions of (seed, schedule, protocol, config), so any diff output
# here is a determinism regression. Then one faulted, partitioned run goes
# through both mtmsim and mtmtrace record, which share their simulation
# flags and the facade's one run path: their traces and metrics must be
# byte-identical.
SMOKE_FAULTED = -topo regular -n 64 -deg 6 -algo asyncbitconv -crash-rate 0.005 -recover-rate 0.3 -max-down 4 \
	-proposal-loss 0.1 -conn-loss 0.05 -tagflip-rate 0.02 -partition 10:40:2 -seed 5 -max-rounds 200000
trace-smoke:
	$(GO) run ./cmd/mtmtrace record -topo regular -n 64 -deg 8 -algo blindgossip -seed 7 -o /tmp/mtmtrace-smoke-a.jsonl
	$(GO) run ./cmd/mtmtrace record -topo regular -n 64 -deg 8 -algo blindgossip -seed 7 -o /tmp/mtmtrace-smoke-b.jsonl
	$(GO) run ./cmd/mtmtrace diff /tmp/mtmtrace-smoke-a.jsonl /tmp/mtmtrace-smoke-b.jsonl
	$(GO) run ./cmd/mtmtrace summary /tmp/mtmtrace-smoke-a.jsonl
	$(GO) run ./cmd/mtmsim $(SMOKE_FAULTED) -trace /tmp/mtmtrace-smoke-sim.jsonl -metrics /tmp/mtmtrace-smoke-sim.metrics.json
	$(GO) run ./cmd/mtmtrace record $(SMOKE_FAULTED) -o /tmp/mtmtrace-smoke-rec.jsonl -metrics /tmp/mtmtrace-smoke-rec.metrics.json
	cmp /tmp/mtmtrace-smoke-sim.jsonl /tmp/mtmtrace-smoke-rec.jsonl
	cmp /tmp/mtmtrace-smoke-sim.metrics.json /tmp/mtmtrace-smoke-rec.metrics.json

# fault-par-smoke mirrors the CI fault-par-smoke job: faulted runs ride the
# parallel round core, so a faulted, partitioned, invariant-audited trace at
# 8 workers must be byte-identical to the sequential one — node-addressed
# fault draws are pure functions of (plan seed, kind, node, round) and never
# depend on visit order. Pins both a small leader election (every fault kind
# plus a scheduled partition) and a large 65536-node case.
fault-par-smoke:
	rm -rf /tmp/mtm-fault-par && mkdir -p /tmp/mtm-fault-par
	$(GO) build -o /tmp/mtm-fault-par/mtmtrace ./cmd/mtmtrace
	/tmp/mtm-fault-par/mtmtrace record -topo regular -n 512 -deg 8 -algo blindgossip -workers 1 -max-rounds 100000 -crash-rate 0.005 -recover-rate 0.3 -proposal-loss 0.05 -conn-loss 0.03 -tagflip-rate 0.02 -partition 5:25:2 -seed 9 -o /tmp/mtm-fault-par/small-w1.jsonl
	/tmp/mtm-fault-par/mtmtrace record -topo regular -n 512 -deg 8 -algo blindgossip -workers 8 -max-rounds 100000 -crash-rate 0.005 -recover-rate 0.3 -proposal-loss 0.05 -conn-loss 0.03 -tagflip-rate 0.02 -partition 5:25:2 -seed 9 -o /tmp/mtm-fault-par/small-w8.jsonl
	/tmp/mtm-fault-par/mtmtrace diff /tmp/mtm-fault-par/small-w1.jsonl /tmp/mtm-fault-par/small-w8.jsonl
	/tmp/mtm-fault-par/mtmtrace record -topo expander -n 65536 -rumor pushpull -workers 1 -sample 2 -types connect,transition -proposal-loss 0.02 -conn-loss 0.01 -partition 2:6:2 -seed 7 -o /tmp/mtm-fault-par/big-w1.jsonl
	/tmp/mtm-fault-par/mtmtrace record -topo expander -n 65536 -rumor pushpull -workers 8 -sample 2 -types connect,transition -proposal-loss 0.02 -conn-loss 0.01 -partition 2:6:2 -seed 7 -o /tmp/mtm-fault-par/big-w8.jsonl
	/tmp/mtm-fault-par/mtmtrace diff /tmp/mtm-fault-par/big-w1.jsonl /tmp/mtm-fault-par/big-w8.jsonl
	/tmp/mtm-fault-par/mtmtrace summary /tmp/mtm-fault-par/small-w8.jsonl

# prof-smoke mirrors the CI prof-smoke job, the scale-safe observability
# contract end to end: (1) the same sampled, type-filtered parallel record
# at 1 and 8 workers must diff clean — per-worker buffered emission flushed
# in chunk order reproduces the sequential event order byte for byte;
# (2) a profiled parallel run must render an mtmprof/v1 phase table.
prof-smoke:
	rm -rf /tmp/mtm-prof-smoke && mkdir -p /tmp/mtm-prof-smoke
	$(GO) build -o /tmp/mtm-prof-smoke/mtmtrace ./cmd/mtmtrace
	/tmp/mtm-prof-smoke/mtmtrace record -topo expander -n 65536 -rumor pushpull -workers 1 -sample 4 -types connect,transition -seed 7 -o /tmp/mtm-prof-smoke/w1.jsonl
	/tmp/mtm-prof-smoke/mtmtrace record -topo expander -n 65536 -rumor pushpull -workers 8 -sample 4 -types connect,transition -seed 7 -o /tmp/mtm-prof-smoke/w8.jsonl
	/tmp/mtm-prof-smoke/mtmtrace diff /tmp/mtm-prof-smoke/w1.jsonl /tmp/mtm-prof-smoke/w8.jsonl
	/tmp/mtm-prof-smoke/mtmtrace summary /tmp/mtm-prof-smoke/w8.jsonl
	$(GO) run ./cmd/mtmsim -topo expander -n 65536 -workers 8 -phase-prof /tmp/mtm-prof-smoke/run.prof.json
	/tmp/mtm-prof-smoke/mtmtrace prof /tmp/mtm-prof-smoke/run.prof.json

# tables-check mirrors the CI tables-check job: it regenerates every
# published table (mtmexp -run all, full mode, at the published seed) and
# diffs the output against experiments_full.txt, ignoring only the
# "(<ID> in <t>s)" timing lines. A difference means the code no longer
# prints what the repository publishes; when the change is intended,
# regenerate with `go run ./cmd/mtmexp -run all | tee experiments_full.txt`.
TIMING_LINE = '^\([A-Z][0-9]+-[a-z0-9-]+ in [0-9]+\.[0-9]+s\)$$'
tables-check:
	rm -rf /tmp/mtm-tables-check && mkdir -p /tmp/mtm-tables-check
	$(GO) build -o /tmp/mtm-tables-check/mtmexp ./cmd/mtmexp
	/tmp/mtm-tables-check/mtmexp -run all -seed 20170529 > /tmp/mtm-tables-check/all.txt
	grep -Ev $(TIMING_LINE) experiments_full.txt > /tmp/mtm-tables-check/want.txt
	grep -Ev $(TIMING_LINE) /tmp/mtm-tables-check/all.txt > /tmp/mtm-tables-check/got.txt
	diff -u /tmp/mtm-tables-check/want.txt /tmp/mtm-tables-check/got.txt
