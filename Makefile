# Developer entry points.  `make check` is the CI gate: vet (with a gofmt
# check) + build + tests
# (the farm soak, the telemetry smoke and the full-size FFT memory smoke run
# in plain `go test ./...`) + race on the protocol-critical packages + the
# repeated determinism tests at GOMAXPROCS 1 and 2 + the repository
# benchmark's own vet and short tests + docs lint + no fused multiply-add on
# any target + a profiler export smoke run.
GO ?= go

.PHONY: check vet build test race determinism benchmark bench docs fma profile-smoke

check: vet build test race determinism benchmark docs fma profile-smoke

# Documentation lint (cmd/doccheck; its package doc lists the rules):
# package doc comments, relative markdown links, no CatComm charge outside
# the wire plane, no float between a cost and a clock, no "unsafe" import
# outside internal/memsys/frame.go, and every inventory (stats events,
# profiler spans and marks, farm routes and metric families, coherence
# protocols, wire op kinds) as its owning package reports it, against the
# docs.
docs:
	$(GO) run ./cmd/doccheck

# A cell's bits must not depend on the GOARCH: every product that feeds an
# add is rounded explicitly (DESIGN.md §5b), so no compiler may fuse the two
# into one multiply-add.  Cross-compile internal/ for the targets whose
# compiler fuses x*y±z and fail on any F(N)MADD/F(N)MSUB in the listing
# (FMADDD on arm64 and riscv64, FMADD on ppc64le and s390x), and on any
# VFMADD-style instruction in a hand-written .s file.  The module pattern
# lists only this repository's packages; the toolchain builds every GOARCH
# locally.
FMA_ARCHS = arm64 ppc64le s390x riscv64

fma:
	@for a in $(FMA_ARCHS); do \
		out=$$(GOARCH=$$a $(GO) build -gcflags='cables/...=-S' ./internal/... 2>&1) || { echo "$$out"; exit 1; }; \
		hits=$$(echo "$$out" | grep -E '[[:space:]]F(N)?M(ADD|SUB)[A-Z]*[[:space:]]'); \
		if [ -n "$$hits" ]; then echo "fused multiply-add on $$a:"; echo "$$hits"; exit 1; fi; \
	done
	@hits=$$(grep -rnE 'VF(N)?M(ADD|SUB)' --include='*.s' internal cmd); \
	if [ -n "$$hits" ]; then echo "fused multiply-add in assembly:"; echo "$$hits"; exit 1; fi

vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/genima/... ./internal/memsys/... ./internal/core/... \
		./internal/m4/... ./internal/openmp/... \
		./internal/san/... ./internal/vmmc/... ./internal/nodeos/... ./internal/wire/... \
		./internal/sim/... ./internal/metrics/... ./internal/farm/... \
		./internal/stats/... ./internal/profile/... ./internal/coherence/... ./internal/fault/...
	$(GO) test -race -run 'TestFig5RaceSmoke|TestFig5RaceSmokeLU|TestFig5RaceSmokeVOLREND|TestFig5ContendedSyncRaceSmoke|TestFrameLeakBothSched|TestFig5ProtocolSmoke|TestDetachCompletesDegraded|TestTable4And5Reproducible' ./internal/bench/

# A cell is a pure function of its spec: the determinism tests compare
# repeated runs with ==, 20 times over, on one and on two host threads.
DETERMINISM_TESTS = TestHarnessDeterminism|TestSchedulerJobsDeterminism|TestTable4And5Reproducible|TestRepeatRunStableUnderGOMAXPROCS|TestProtocolDeterminism|TestProfilerInvariance|TestFaultDeterminismPinned|TestFaultsDisabledBitIdentical

determinism:
	GOMAXPROCS=1 $(GO) test -count=20 -run '$(DETERMINISM_TESTS)' ./internal/bench/
	GOMAXPROCS=2 $(GO) test -count=20 -run '$(DETERMINISM_TESTS)' ./internal/bench/

# The repository benchmark (benchmark/, its own Go module, recorded in
# BENCHMARK.json): vet it — which type-checks its probe against the
# internal packages it times — and run its short tests (statistics, the
# open-loop schedule, child supervision, BENCHMARK.json against the code).
benchmark:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark -short ./...

# Profiler export smoke: run one profiled cell, export the Perfetto
# timeline, and validate it (well-formed JSON, spans nest per thread).  The
# trace goes to a fresh temporary directory, so concurrent runs never share
# a file.
profile-smoke:
	@dir=$$(mktemp -d) && \
	$(GO) run ./cmd/cablesim profile -scale test -apps FFT -procs 4 -o $$dir/trace.json && \
	$(GO) run ./cmd/traceck $$dir/trace.json; \
	status=$$?; rm -rf $$dir; exit $$status

# The paper-reproduction benchmarks (virtual time).
bench:
	$(GO) test -bench=. -benchmem .
