GO ?= go

.PHONY: all build vet test test-race lint bench bench-smoke fault-smoke cache-smoke chaos-smoke serve-smoke persist-smoke adapter-smoke fleet-smoke servebench-test paperbench check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The runtime and source wrappers are concurrent; the race detector is
# part of the tier-1 bar, not an optional extra.
test-race:
	$(GO) test -race ./internal/sources/ ./internal/engine/ ./internal/containment/ ./internal/qcache/ ./internal/server/ .

# Deprecated-API lint: the historical facade entry points (Answer,
# AnswerParallel, AnswerProfiled, AnswerNaive, RunAnswerStar,
# AnswerStarUnder, ImproveUnder) survive only as wrappers in ucqn.go
# and extensions.go; every other first-party caller must go through
# Exec. deprecated_test.go is exempt — it is the wrapper-equivalence
# suite. See README "Migrating off the deprecated wrappers".
DEPRECATED_API = Answer|AnswerParallel|AnswerProfiled|AnswerNaive|RunAnswerStar|AnswerStarUnder|ImproveUnder

lint:
	@bad=$$( \
		grep -rnE 'ucqn\.($(DEPRECATED_API))\(' --include='*.go' cmd examples internal 2>/dev/null; \
		grep -nE '(^|[^.A-Za-z0-9_])($(DEPRECATED_API))\(' *.go 2>/dev/null \
			| grep -vE '^(ucqn|extensions)\.go:' \
			| grep -v '^deprecated_test.go:' \
			| grep -vE ':[0-9]+:\s*(//|func )' \
	); \
	if [ -n "$$bad" ]; then \
		echo "lint: deprecated entry points called outside ucqn.go/extensions.go (use Exec; see README):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@echo "lint: no deprecated-API callers"

bench:
	$(GO) test -bench=. -benchmem .

# One pass over the runtime-heavy benchmarks (E19 dedup ablation, the
# E20 streaming pipeline, E21 degradation, E22 query cache, E23 hedged
# requests, E25 columnar evaluation): runs each once, which also
# exercises their built-in acceptance assertions — E25 requires a ≥5×
# columnar speedup at byte-identical answers and identical source
# calls, and that columnar allocs/op stay within 1.05x of the columnar
# seed recorded in BENCH_E25.json; E23 counts its hedges on a
# virtual-clock pass so host jitter cannot trip the 5% bound.
bench-smoke:
	$(GO) test -run='^$$' -bench='E19|E20|E21|E22|E23|E25' -benchtime=1x .

# Fault-injection smoke: the paper examples' underestimates with one
# source killed per run must degrade (partial answers + incompleteness
# report), never crash; run under -race since degradation exercises the
# per-rule teardown paths.
fault-smoke:
	$(GO) test -race -count=1 -run='TestFaultSmoke|TestExecPartial|TestStreamPartial|TestEvalPartial' . ./internal/engine/

# Semantic-cache smoke: every paper example executed twice through one
# shared query cache — the second (and a streamed third) pass must issue
# zero source calls and return byte-identical rows; under -race because
# the cache is shared across concurrent Exec callers in production.
cache-smoke:
	$(GO) test -race -count=1 -run='TestCacheSmoke|TestCacheConcurrentExec|TestExecQueryCacheProfile' .

# Chaos-schedule smoke: seeded randomized fault schedules (dropped and
# hung calls, injected latency, breakers, replica kills) over every
# paper example, plus the replica/hedging facade suite; answers must
# stay sound underestimates with no crashes, hangs, or goroutine leaks.
# Under -race because hedged legs race across replicas by design.
chaos-smoke:
	$(GO) test -race -count=1 -run='TestChaosSmoke|TestExecReplicas|TestHedge' . ./internal/engine/

# Serving smoke: boot the multi-tenant daemon in-process, hammer it with
# the closed-loop load generator under an overload-provoking config
# (delayed sources, two slots), and require a sound, schema-valid
# BENCH_E24.json plus a clean shutdown. ucqnload exits non-zero on any
# unsound answer, transport error, or dirty shutdown.
serve-smoke:
	$(GO) run ./cmd/ucqnload -boot -users 8 -duration 2s -quota 50 \
		-delay 1ms -concurrency 2 -queue 4 -queue-wait 5ms -out BENCH_E24.json

# Persistence smoke: the crash-safe answer cache under fire — the
# crash-recovery property suite (random kill offsets and bit flips
# through the full Exec path, recovery must never fail and never serve
# a wrong row), the chaos crash/reopen cycles (rotating fault regimes,
# no goroutine or fd leaks), the faultfs-backed persist unit tests, and
# the E26 warm-restart harness end to end. Under -race because the
# spill path runs outside the cache lock by design.
persist-smoke:
	$(GO) test -race -count=1 -run='TestPersistCrashRecoveryExec|TestChaosPersistCrashReopenCycles' .
	$(GO) test -race -count=1 ./internal/qcache/persist/
	$(GO) test -race -count=1 -run='TestRunWarmRestart|TestValidateBenchReport' ./internal/server/

# External-adapter smoke: the SQL and HTTP adapters over the in-repo
# fakedb driver and httptest backends — the fault matrix (injected
# latency, failed statements, 5xx/429/connection-refused, malformed
# responses, open breakers), the batched-pushdown engine path, the
# interner-cap hammer, and the adapter differential suite (every
# adapter answer-equivalent to the in-memory relation it mirrors).
# Under -race because batch demux and HTTP coalescing are concurrent by
# design.
adapter-smoke:
	$(GO) test -race -count=1 ./internal/adapter/...
	$(GO) test -race -count=1 -run='TestRuntimeBatch|TestBatchCapability|TestInternerCap' ./internal/engine/
	$(GO) test -race -count=1 -run='TestAdapterDifferentialEquivalence|TestAdapterBatchedJoinEquivalence' .
	$(GO) test -race -count=1 -run='TestRunBatchPushdown|TestMountCatalogConfig|TestValidateBenchReportE27' ./internal/server/

# Fleet smoke: the shared-cache fleet under fire — the kill-the-writer
# chaos suite (seeded crash/takeover/resurrection rounds on a virtual
# clock: takeover within TTL + one poll, a fenced writer's late write
# never leaks, acked entries always survive, no goroutine or fd leaks),
# the lease/follower/inbox property tests including the
# compaction-vs-follower seqlock interleavings, and the two-replica
# server E2E (warm start off a sibling, fleet-wide invalidation, E28
# harness). Under -race because replicas share one directory by design.
fleet-smoke:
	$(GO) test -race -count=1 ./internal/qcache/fleet/
	$(GO) test -race -count=1 -run='TestLease|TestFollower|TestInbox|TestReadInboxes' ./internal/qcache/persist/
	$(GO) test -race -count=1 -run='TestServerFleet|TestRunFleetShare|TestServerHealthzDegraded|TestLoadGenInvalidationMix' ./internal/server/

# Serving-benchmark self-tests: the answer oracle, workload generators
# and metric plumbing of servebench/, a nested module (repro/servebench)
# that `go test ./...` at the root skips. Run offline with the same
# toolchain settings as servebench/run.sh.
servebench-test:
	cd servebench && GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= $(GO) test .

paperbench:
	$(GO) run ./cmd/paperbench -quick

check: build vet lint test test-race persist-smoke adapter-smoke fleet-smoke
