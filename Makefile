# Developer entry points.  `make check` is the CI gate: vet + build + tests
# (the farm soak, the telemetry smoke and the full-size FFT memory smoke run
# in plain `go test ./...`) + race on the protocol-critical packages + the
# repository benchmark's own vet and short tests + docs lint + a profiler
# export smoke run.
GO ?= go

.PHONY: check vet build test race benchmark bench docs profile-smoke

check: vet build test race benchmark docs profile-smoke

# Documentation lint: package doc comments on every Go package, and every
# relative markdown link must resolve (cmd/doccheck, stdlib only).
docs:
	$(GO) run ./cmd/doccheck

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/genima/... ./internal/memsys/... ./internal/core/... \
		./internal/san/... ./internal/vmmc/... ./internal/nodeos/... ./internal/wire/... \
		./internal/sim/... ./internal/metrics/... ./internal/farm/...
	$(GO) test -race -run 'TestFig5RaceSmoke|TestFig5RaceSmokeEventSched|TestFig5ContendedSyncRaceSmoke|TestFrameLeakBothSched' ./internal/bench/

# The repository benchmark (benchmark/, its own Go module, recorded in
# BENCHMARK.json): vet it — which type-checks its probe against the
# internal packages it times — and run its short tests (statistics, the
# open-loop schedule, child supervision, BENCHMARK.json against the code).
benchmark:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark -short ./...

# Profiler export smoke: run one profiled cell, export the Perfetto
# timeline, and validate it (well-formed JSON, spans nest per thread).
profile-smoke:
	$(GO) run ./cmd/cablesim profile -scale test -apps FFT -procs 4 -o /tmp/cables-profile-smoke.json
	$(GO) run ./cmd/traceck /tmp/cables-profile-smoke.json

# The paper-reproduction benchmarks (virtual time).
bench:
	$(GO) test -bench=. -benchmem .
