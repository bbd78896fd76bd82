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

# vet also checks the benchmark harness, its own module (bench/go.mod,
# which replaces cactid with this checkout), so a change to a type the
# harness builds fails here rather than in a benchmark run.
vet:
	go vet ./...
	cd bench && go vet ./...

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
# per-slot precheck classification, the key-sorted walk orders, the
# warm prescan's allocation count and off-grid probe builds against
# their per-organization references, the H-tree repeater against its
# one-function reference, bounded == exhaustive solves on
# generated specs of every provider, the tier-0/wire/store projection
# round trip on generated specs of every provider, the weight
# properties on generated specs, the dead-input check over every
# technology table input, the spec generator's coverage and its
# import guard (only test files may import internal/spectest), and the
# cross-technology fabric/server integration tests. It is a local
# shortcut: `make test` runs all of it, and TestJSONMatchesReference
# (cmd/cactid) solves and renders a 4 MB 8-way 32 nm cache with every
# provider.
test-tech:
	go test -run 'Provider|Tech|Kind|GainCell|NVM|Overlay|Resolve|BoundTiers|BoundedEnumerate|MatTable|Classify|WalkOrder|PrescanAllocs|OffGrid|Repeater|ExhaustiveGenerated|RoundTripGenerated|WeightProperties|EveryInputMoves|SpecCovers|OnlyTestsImport' \
		./internal/tech/ ./internal/circuit/ ./internal/mat/ ./internal/array/ ./internal/core/ \
		./internal/explore/ ./internal/fabric/ ./internal/spectest/ ./cmd/cactid-serve/

# stress runs the chaos/overload suite under the race detector: the
# fault-injection tests in internal/chaos and internal/explore, the
# cactid-serve admission-control and load-shedding tests (the running
# sweep-job bound, finished-job eviction and read-back, a read-back
# held to an admission slot, refusals answered as JSON, and a job that
# outlives another client's deadline on a shared point among them),
# and sweeps that share array sub-solves against per-point solves;
# and ten times each: concurrent solves through the solver's pooled
# scratch, concurrent fingerprints replacing the memoized float
# segment, concurrent walks and enumerations of one shared prescan,
# enumerations cancelled mid-grid through the pooled bank buffers, the
# tier-0 bound checked after every concurrent insert, callers that
# outlive a cancelled owner's in-flight solve, and concurrent renders
# of fresh tier-0 hits racing to build their value tables.
stress:
	go test -race ./internal/chaos/
	go test -race -count=10 -run 'TestConcurrentSolvesMatchSerial|TestFingerprintMemoConcurrent' ./internal/core/
	go test -race -count=10 -run 'TestSharedPrescanConcurrentWalks|TestEnumerateReleaseAfterCancel' ./internal/array/
	go test -race -count=10 -run 'TestCacheBoundUnderConcurrency|TestInFlightWaiterOutlivesOwnerCancel|TestConcurrentHitRendersMatchReference' ./internal/explore/
	go test -race -run TestSweepMatchesPerPointGenerated ./internal/explore/
	go test -race -run 'Chaos|Stranded|Overload|Drain|QueueWait|Deadline|Evict|ReadBack|MissStorm|InFlight|Refusal' \
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
	go test -run '^$$' -fuzz FuzzRecordDecode -fuzztime $(FUZZTIME) ./internal/store/
	go test -run '^$$' -fuzz FuzzLoadTrace -fuzztime $(FUZZTIME) ./internal/sim/workload/
	go test -run '^$$' -fuzz FuzzClassify -fuzztime $(FUZZTIME) ./internal/array/
	go test -run '^$$' -fuzz FuzzRepeater -fuzztime $(FUZZTIME) ./internal/circuit/
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
# (tiles-cold), the warm sweep rendered as JSON and as CSV (parallel-warm,
# parallel-warm-json and parallel-warm-csv are the rows a change to
# tier-0 hits, rendering or fingerprinting names), the per-point spec
# fingerprint over a grid and with alternating float fields (its grid
# and alternating legs), the durable tier's Get (the store read alone),
# Lookup (read, typed decode and rebuild) and Save of real solutions,
# and the fabric wire's decoding of a 16-point chunk (reply-indented,
# reply-compact and request; typed decoder against encoding/json, so
# -bench 'BenchmarkWire/.*/typed' selects the three typed rows). Two
# allocation budgets hold the solver rows down in normal builds:
# TestSolveAllocBudget (6 KB per warm solve of a BenchmarkSolve spec)
# and TestSweepAllocBudget (8 KB per point of the tiles-cold sweep).
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
