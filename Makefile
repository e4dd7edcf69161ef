# Development targets. `make check` is the pre-commit gate: formatting,
# vet, the full test suite under the race detector, the benchmark's smoke
# test, and one iteration of each scoring and query-resolution benchmark.

GO ?= go

.PHONY: all build test race vet fmt check bench benchrun benchsmoke fuzz faults linkcheck loc

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Docs checkers: every relative markdown link must resolve to a file,
# docs/OBSERVABILITY.md must list exactly the registered metric families,
# and documented thetisd command lines may only use flags it defines.
linkcheck:
	$(GO) test -run '^Test(DocLinks|ObservabilityDocMatchesRegistry|DocsUseDefinedDaemonFlags)$$' .

# The benchmark (bench/, named by BENCHMARK.json) is its own module, so
# `go build ./...` never compiles it: vet it and run its smoke test — every
# workload in both trace modes on a small lake, rankings verified — so a
# change to the public API cannot break the benchmark unnoticed (~10 s).
benchsmoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# One iteration of each scoring benchmark (the per-table scoring loop, the
# warm-scorer kernel, the pruned top-k search beside the full ranking, the
# σ-cache row fill per cell and by the cosine kernel, the wide-query mapping
# guard, the assignment solver fresh and reused), of the LSEI prefilter
# alone and of a warm search behind it with pooled σ slabs (one- and
# five-entity queries each) and of the query-resolution pair
# (ParseQuery over 10k/100k entities, AddEntity's label-index upkeep), so
# one that panics or no longer compiles fails the gate instead of rotting.
benchrun:
	$(GO) test -run '^$$' -bench 'TableScoring|ScoreTable|SearchTopK|SigmaRow|MappingWideQuery|Maximize|Solver|Candidates|SearchWarm|ParseQuery|AddEntity' -benchtime 1x . ./internal/hungarian ./internal/core ./internal/kg

# Line counts quoted by simplicity entries in CHANGES.md: non-test Go
# outside bench/, then the root package's non-test Go. Not part of check.
loc:
	@printf 'non-test Go outside bench/: %s\n' "$$(find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' -not -path './.git/*' -exec cat {} + | wc -l)"
	@printf 'root package non-test Go:   %s\n' "$$(cat $$(ls *.go | grep -v '_test\.go$$') | wc -l)"

# `race` runs every differential battery (System vs reference, live
# rebuild-equivalence, shard-over-HTTP, batch) by package,
# not by test-name regex, so a renamed test cannot leave the gate.
check: fmt vet build race linkcheck benchsmoke benchrun

# Replays every fuzz target's seed corpus (f.Add seeds + testdata/fuzz/)
# as a fast regression suite. Live exploration happens in CI and via
# `go test -fuzz <Target> <pkg>`.
fuzz:
	$(GO) test -run '^Fuzz' ./internal/atomicio ./internal/bm25 ./internal/core ./internal/kg ./internal/lsh ./internal/server

# Fault-injection and corruption-matrix suite (docs/RELIABILITY.md): every
# test named Corrupt* or Fault* — single-byte snapshot flips, truncations,
# injected device errors, contained panics — and the replica tier's
# RemoteShard* and HTTPShard* tests: retries, failover, breakers, probes,
# dead shards and the network fault matrix.
faults:
	$(GO) test -run '^Test(Corrupt|Fault|RemoteShard|HTTPShard)' ./...

# Paper-table benchmarks (bench_test.go); pass BENCH=<regex> to narrow.
BENCH ?= .
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem .
