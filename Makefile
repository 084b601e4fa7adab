GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test check fmt vet lint race fuzz vuln cover

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## check is the CI gate: formatting, go vet, the domain lint suite,
## the full test suite under the race detector, short fuzz runs over
## every parser that consumes untrusted input and every bit-identity
## oracle, and a known-vulnerability scan when the environment supports
## one.
check: fmt vet lint race fuzz vuln

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The domain analyzers: the syntactic tier (latlonbounds,
# durationseconds), the flow-sensitive tier (nilfacade, exhaustenum,
# errflow), the interprocedural tier (privtaint, spawnleak, plus
# nilfacade's cross-function nilness), the concurrency tier (locksafe,
# chanowner) and the deadlock tier (blockhold). The run's findings are
# cached under .lintcache, keyed by the Go version, the analyzer roster
# and the source bytes of every listed package, so rerunning over an
# unchanged tree replays them without loading anything. Exit status 1
# means findings.
lint:
	$(GO) run ./cmd/locwatchlint -cache-dir .lintcache ./...

race:
	$(GO) test -race ./...

# Statement coverage: the per-package summary is the `go test -cover`
# output itself, saved next to the merged profile. Informational (the
# CI coverage job uploads both without gating on a threshold);
# internal/obs is expected to stay ≥90%.
cover:
	$(GO) test -cover -covermode=atomic -coverprofile=coverage.out ./... | tee coverage-summary.txt
	$(GO) tool cover -func=coverage.out | tail -n 1

# Ten-second fuzz passes over the three untrusted-input parsers
# (market page scraping, dumpsys battery output, PLT trace files) and
# the two bit-identity oracles: the geo batch kernels against their
# scalar forms, and the merge-join histogram comparison against the
# union-map alignment it replaced.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzExtractManifest -fuzztime $(FUZZTIME) ./internal/market
	$(GO) test -run '^$$' -fuzz FuzzParseDumpsys -fuzztime $(FUZZTIME) ./internal/android
	$(GO) test -run '^$$' -fuzz FuzzRead -fuzztime $(FUZZTIME) ./internal/trace/plt
	$(GO) test -run '^$$' -fuzz FuzzBatchKernelsBitIdentical -fuzztime $(FUZZTIME) ./internal/geo
	$(GO) test -run '^$$' -fuzz FuzzCompareBitIdentical -fuzztime $(FUZZTIME) ./internal/stats

# Known-vulnerability scan. govulncheck needs both its binary and the
# database at https://vuln.go.dev, so environments missing either skip
# with a notice instead of failing the gate (scripts/netprobe.go does
# the reachability check).
vuln:
	@if ! command -v govulncheck >/dev/null 2>&1; then \
		echo "vuln: SKIP: govulncheck not installed (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	elif ! $(GO) run ./scripts/netprobe.go; then \
		echo "vuln: SKIP: vulnerability database vuln.go.dev unreachable"; \
	else \
		govulncheck ./...; \
	fi
