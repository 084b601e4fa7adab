GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test check fmt vet lint race bench-check fuzz vuln cover

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## check is the CI gate: formatting, go vet, the domain lint suite,
## the full test suite under the race detector, vet and the tests of
## the benchmark module, short fuzz runs over every parser that
## consumes untrusted input and every exactness oracle, and a
## known-vulnerability scan when the environment supports one.
check: fmt vet lint race bench-check fuzz vuln

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The domain analyzers: the syntactic tier (latlonbounds,
# durationseconds) and the flow-sensitive tier (nilfacade, exhaustenum,
# errflow), each one package at a time. Whether raw coordinates leave
# the process is tested at the exits instead (privlog.FindLeaks).
# Exit status 1 means findings.
lint:
	$(GO) run ./cmd/locwatchlint ./...

race:
	$(GO) test -race ./...

# bench/ is a nested module, so the root targets never compile the
# benchmark driver against the packages it imports. Vet it and run its
# tests under the race detector, building it against this tree.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -race ./...

# Statement coverage: the per-package summary is the `go test -cover`
# output itself, saved next to the merged profile. Informational (the
# CI coverage job uploads both without gating on a threshold);
# internal/obs is expected to stay ≥90%.
cover:
	$(GO) test -cover -covermode=atomic -coverprofile=coverage.out ./... | tee coverage-summary.txt
	$(GO) tool cover -func=coverage.out | tail -n 1

# Ten-second fuzz passes over the four untrusted-input boundaries
# (market page scraping, dumpsys battery output, PLT trace files and
# locwatchd's ingest endpoint, whose responses and log must also carry
# no fix the body sent) and the four exactness oracles: the geo batch
# kernels against their scalar forms, the PoI radius test's cosine
# bracket against the LocalDistance comparison it avoids, the
# merge-join histogram comparison against the union-map alignment it
# replaced, and zone suppression's latitude-gap skip against the
# haversine check it avoids. FuzzIngest starts an engine per input, so it tries one
# shrink per new input: with the default minimization budget, a
# 10-second pass spent most of its time shrinking inputs.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzExtractManifest -fuzztime $(FUZZTIME) ./internal/market
	$(GO) test -run '^$$' -fuzz FuzzParseDumpsys -fuzztime $(FUZZTIME) ./internal/android
	$(GO) test -run '^$$' -fuzz FuzzRead -fuzztime $(FUZZTIME) ./internal/trace/plt
	$(GO) test -run '^$$' -fuzz FuzzIngest -fuzztime $(FUZZTIME) -fuzzminimizetime 1x ./internal/stream
	$(GO) test -run '^$$' -fuzz FuzzBatchKernelsBitIdentical -fuzztime $(FUZZTIME) ./internal/geo
	$(GO) test -run '^$$' -fuzz FuzzLocalThresholdExact -fuzztime $(FUZZTIME) ./internal/geo
	$(GO) test -run '^$$' -fuzz FuzzCompareBitIdentical -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run '^$$' -fuzz FuzzSuppressExact -fuzztime $(FUZZTIME) ./internal/mitigation

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
