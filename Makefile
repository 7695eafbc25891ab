GO ?= go
FUZZTIME ?= 10s
BENCHSCALE ?= 0.05

.PHONY: build vet taqvet taqvet-sarif taqvet-roots taqvet-annotations test race fuzz bench check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# taqvet is the repo's own determinism & concurrency analyzer suite
# (docs/static-analysis.md). It exits non-zero on any finding.
taqvet:
	$(GO) run ./cmd/taqvet ./...

# taqvet-sarif is the CI form: SARIF 2.1.0 to taqvet.sarif for code
# scanning upload, with -audit so stale //taq:allow directives fail too.
taqvet-sarif:
	$(GO) run ./cmd/taqvet -audit -format sarif -out taqvet.sarif ./...

# taqvet-roots regenerates the committed hotpath-closure baseline.
# Run it after annotating (or retiring) a //taq:hotpath root and commit
# the result; CI diffs the live closure against this file, so a root
# that silently loses its annotation fails the build.
taqvet-roots:
	$(GO) run ./cmd/taqvet -roots ./... > docs/hotpath-closure.txt

# taqvet-annotations regenerates the committed contract-annotation
# inventory (//taq:shardowned, //taq:crossshard, //taq:atomic,
# //taq:layout). Run it after annotating (or un-annotating) a type,
# field, or function and commit the result; CI diffs the live
# inventory against this file, so a contract silently added or dropped
# fails the build.
taqvet-annotations:
	$(GO) run ./cmd/taqvet -annotations ./... > docs/taq-annotations.txt

test:
	$(GO) test ./...

# The race detector only matters where real goroutines run: the
# emulation layer (including the obs recorder + live endpoint under
# concurrent timers), the pcap-style capture pipeline, and the
# experiment sweep worker pool.
race:
	$(GO) test -race ./internal/emu/... ./internal/capture/... ./internal/obs/...
	$(GO) test -race -run 'TestRunPoints|TestParallelSweep' ./experiments

# fuzz runs every fuzz target, one go test -fuzz call each (the flag
# accepts a single target per package), each for FUZZTIME.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzTrackerTransitions$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzFlowIndex$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzParseDirectives$$' -fuzztime=$(FUZZTIME) ./internal/analysis
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/trace

# bench records the perf trajectory: engine/discipline micro-benchmarks
# to stderr, and the full experiment suite's metrics + wall times to
# BENCH_results.json (see EXPERIMENTS.md's benchmark section).
bench:
	$(GO) test -run='^$$' -bench 'Engine|Discipline' -benchmem ./internal/sim .
	$(GO) test -run='^$$' -bench 'TrackerScan|FlowLookup|FlowMemory|GaugeSample' -benchmem ./internal/core
	$(GO) test -run='^$$' -bench 'HistogramRecord|RegistrySnapshot' -benchmem ./internal/obs
	$(GO) test -run='^$$' -bench 'ShardDispatch' -benchmem ./internal/emu
	$(GO) run ./cmd/taqbench -json -scale $(BENCHSCALE) -out BENCH_results.json -report-out BENCH_report.txt

check: build vet taqvet-sarif test race
