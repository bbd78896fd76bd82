# Tier-1 verify is `go build ./... && go test ./...` (ROADMAP.md);
# `make verify` runs that plus a gofmt check, vet, the repository's
# own static-analysis suite (cmd/cactid-lint) and the race detector
# over every package.

# Tool versions are pinned here so CI and local runs agree. The repo
# has no module dependencies, so there is no tools.go; external tools
# are fetched by version at the point of use (network required — CI
# only, see .github/workflows/ci.yml).
GOVULNCHECK_VERSION := v1.1.4

.PHONY: verify fmt build test vet lint race stress fuzz vulncheck bench bench-sweep fabric-test fabric-smoke test-tech

verify: fmt vet lint build test race

# fmt fails when any Go file is not gofmt-clean, naming the files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

# lint runs the in-repo analyzer suite: the per-function checks
# (floatdet, ctxflow, lockguard) plus the program-level detpure — see
# internal/analysis and DESIGN.md §1.3. It needs no network: the suite
# is built from this module's own source.
lint:
	go run ./cmd/cactid-lint ./...

race:
	go test -race ./...

# test-tech runs the technology-provider surface (DESIGN.md §1.9):
# provider resolution and overlay tables, per-kind mat models and
# bound-ladder admissibility, the pinned STT-RAM/gain-cell solves, the
# ITRS byte-identity goldens, the cross-technology mat-stage table
# (warm vs cold byte identity, key safety, /metrics counters), the
# per-slot precheck classification and off-grid probe builds against
# their per-organization references, bounded == exhaustive solves on
# generated specs of every provider, the tier-0/wire/store projection
# round trip on generated specs of every provider, and the
# cross-technology fabric/server integration tests. It is a local
# shortcut: `make test` runs all of it, and TestJSONMatchesReference
# (cmd/cactid) solves and renders a 4 MB 8-way 32 nm cache with every
# provider.
test-tech:
	go test -run 'Provider|Tech|Kind|GainCell|NVM|Overlay|Resolve|BoundTiers|BoundedEnumerate|MatTable|Classify|OffGrid|ExhaustiveGenerated|RoundTripGenerated' \
		./internal/tech/ ./internal/mat/ ./internal/array/ ./internal/core/ \
		./internal/explore/ ./internal/fabric/ ./cmd/cactid-serve/

# stress runs the chaos/overload suite under the race detector: the
# fault-injection tests in internal/chaos and internal/explore, the
# cactid-serve admission-control and load-shedding tests (the running
# sweep-job bound and finished-job eviction and read-back among them),
# concurrent solves through the solver's pooled scratch and concurrent
# walks and enumerations of one shared prescan, ten times each, and
# sweeps that share array sub-solves against per-point solves.
stress:
	go test -race ./internal/chaos/
	go test -race -count=10 -run TestConcurrentSolvesMatchSerial ./internal/core/
	go test -race -count=10 -run TestSharedPrescanConcurrentWalks ./internal/array/
	go test -race -run TestSweepMatchesPerPointGenerated ./internal/explore/
	go test -race -run 'Chaos|Stranded|Overload|Drain|QueueWait|Deadline|Evict|ReadBack|MissStorm|InFlight' \
		./internal/explore/ ./cmd/cactid-serve/

# fuzz gives each native fuzz target a short randomized smoke run on
# top of its checked-in corpus (`make test` replays the corpus only).
# Go allows one -fuzz pattern per invocation, hence one line each.
FUZZTIME ?= 20s
fuzz:
	go test -run '^$$' -fuzz FuzzParseSpec -fuzztime $(FUZZTIME) ./internal/explore/
	go test -run '^$$' -fuzz FuzzParseGrid -fuzztime $(FUZZTIME) ./internal/explore/
	go test -run '^$$' -fuzz FuzzRenderResult -fuzztime $(FUZZTIME) ./internal/explore/
	go test -run '^$$' -fuzz FuzzSolveBody -fuzztime $(FUZZTIME) ./cmd/cactid-serve/
	go test -run '^$$' -fuzz FuzzStoreRecover -fuzztime $(FUZZTIME) ./internal/store/
	go test -run '^$$' -fuzz FuzzLoadTrace -fuzztime $(FUZZTIME) ./internal/sim/workload/
	go test -run '^$$' -fuzz FuzzClassify -fuzztime $(FUZZTIME) ./internal/array/
	go test -run '^$$' -fuzz FuzzWireDecode -fuzztime $(FUZZTIME) ./internal/fabric/

# vulncheck scans the module against the Go vulnerability database.
# Requires network; run from CI or a connected workstation.
vulncheck:
	go run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# bench runs the single-solve hot-path micro-benchmark, the array
# layer with the mat-stage table warm and cold, and the spec-dependent
# prescan with its exact-minimum walks (compare runs with
# golang.org/x/perf/cmd/benchstat if available). The recorded, gated
# performance ledger is the end-to-end benchmark in bench/
# (`bash bench/run.sh`, see bench/README.md).
bench:
	go test -run '^$$' -bench BenchmarkSolve -benchmem -count=5 .
	go test -run '^$$' -bench 'BenchmarkMatTable|BenchmarkPrescan' -benchmem -count=5 ./internal/array/

# bench-sweep runs the exploration-engine rows: cold and warm 64-point
# sweeps (serial-cold and parallel-cold are the rows a solver change
# names), 16 cold dse-style tiles across providers and nodes
# (tiles-cold), the warm sweep rendered as JSON and as CSV, the per-point
# spec fingerprint, the durable tier's Lookup and Save of real
# solutions, and the fabric wire's decoding of a 16-point chunk
# (reply indented and compact, and request; typed decoder against
# encoding/json).
bench-sweep:
	go test -run '^$$' -bench BenchmarkExploreSweep -benchmem .
	go test -run '^$$' -bench BenchmarkFingerprint -benchmem ./internal/core/
	go test -run '^$$' -bench BenchmarkSolutions -benchmem ./internal/store/
	go test -run '^$$' -bench BenchmarkWire -benchmem ./internal/fabric/

# fabric-test runs the sweep-fabric suite under the race detector:
# the coordinator unit and chaos tests in internal/fabric (rendezvous
# ownership, one batch per owner, reroute, attempt budget, local
# fallback), the cluster stats-merge tests in internal/explore, and
# the cactid-serve cluster integration tests (HTTP byte-identity on
# cold and warm sweeps, owner routing, dead-worker reroute,
# registration).
fabric-test:
	go test -race ./internal/fabric/
	go test -race -run 'Fabric|Coordinator|Cluster|StatsEndpoint|StatsMerge' \
		./internal/explore/ ./cmd/cactid-serve/

# fabric-smoke builds the real binary and drives a loopback cluster
# (coordinator + 2 workers + a single-node reference): the distributed
# sweep must be byte-identical to the single-node one. Artifacts land
# in $$FABRIC_SMOKE_DIR for CI upload.
fabric-smoke:
	scripts/fabric_smoke.sh
