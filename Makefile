# Development entry points. CI runs the same commands (.github/workflows).

GO ?= go

.PHONY: build test race lint vet staticcheck ndplint ownership bench benchdiff

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint mirrors the CI lint + ndplint jobs. staticcheck is skipped with a
# notice when not installed (hermetic environments cannot fetch it).
lint: vet staticcheck ndplint

vet:
	$(GO) vet ./...

# STATICCHECK_VERSION is the single pin CI and local runs share: bump it
# here and in no other place (ci.yml reads the Makefile).
STATICCHECK_VERSION = 2025.1.1

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

ndplint:
	$(GO) run ./cmd/ndplint ./...

# ownership regenerates the committed shardcheck artifacts after a
# legitimate change to the sharding surface (new seam, new domain member).
# The cmd/ndplint golden tests gate that these stay in sync with the tree.
ownership:
	$(GO) run ./cmd/ndplint -ownership-report ./... > results/ownership.json
	$(GO) run ./cmd/ndplint -list-suppressions ./... > results/golden/ndplint-suppressions.txt

# bench runs the event-core and message-path micro-benchmarks: dataBorrowed
# lookups, mailbox enqueue+drain and task-queue push/pop.
bench:
	$(GO) test -bench 'BenchmarkEngine' -benchtime 100x -benchmem -run xxx ./internal/sim/
	$(GO) test -bench 'BenchmarkBorrowed|BenchmarkMailbox|BenchmarkQueue' -benchmem -run xxx ./internal/metadata/ ./internal/mailbox/ ./internal/task/

# benchdiff reruns the small-scale campaign and diffs it against the
# committed baseline; exits non-zero on a >10% events/sec regression.
benchdiff:
	$(GO) run ./cmd/ndpbench -scale small -j 1 -benchjson /tmp/ndpbench-new.json >/dev/null
	$(GO) run ./cmd/ndpbench -compare results/bench.json /tmp/ndpbench-new.json
