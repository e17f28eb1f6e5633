GO ?= go

.PHONY: all build test bench-check portable-check verify fmt fmt-check vet staticcheck trace-verify cover-tcpip fuzz-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-check vets and tests the bench/ module. It is a separate module
# (repro/bench, replacing repro with ../), so the root `go vet ./...` and
# `go test ./...` never compile it, yet it imports internal packages.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# portable-check keeps the non-amd64 build compiled and tested: internal/crc
# has an amd64 assembly kernel and a portable twin (crc32_other.go). A 386
# test binary runs natively on an amd64 host, so the slicing fallback is
# exercised end to end; arm64 vet covers a 64-bit non-x86 target.
portable-check:
	GOARCH=386 $(GO) test ./internal/crc ./internal/aal
	GOARCH=arm64 $(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools when the binary is on PATH and skips
# gracefully when it is not, so local builds without it still `make verify`.
# CI installs it explicitly and therefore always gets the real check.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2023.1.7)"; \
	fi

# cover-tcpip gates line coverage of the internet-over-ATM packages: the
# profile is written to tcpip-cover.out (a CI artifact) and the combined
# total must clear 75%.
cover-tcpip:
	$(GO) test -coverprofile=tcpip-cover.out ./internal/ip ./internal/tcp
	@$(GO) tool cover -func=tcpip-cover.out | awk ' \
		/^total:/ { pct = $$3; sub(/%/, "", pct); \
			if (pct + 0 < 75) { printf "coverage %s%% is below the 75%% gate\n", pct; exit 1 } \
			printf "internal/ip + internal/tcp line coverage %s%% (gate 75%%)\n", pct }'

# fuzz-smoke runs each fuzz target for 15 s (`go test -fuzz` takes one
# target per run). New inputs are minimized for at most 2 s each, so
# minimizing the offspring of the 9180-byte and multi-frame seeds cannot eat
# the whole budget.
fuzz-smoke:
	$(GO) test ./internal/aal -run '^$$' -fuzz '^FuzzReassembler5$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/aal -run '^$$' -fuzz '^FuzzReassembler34$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/aal -run '^$$' -fuzz '^FuzzMIDReassembler34$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/aal -run '^$$' -fuzz '^FuzzAAL1Receiver$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/sonet -run '^$$' -fuzz '^FuzzDeframer$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/crc -run '^$$' -fuzz '^FuzzHECCheck$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/crc -run '^$$' -fuzz '^FuzzCRC32$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/atm -run '^$$' -fuzz '^FuzzCellDecode$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/atm -run '^$$' -fuzz '^FuzzRMDecode$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/oam -run '^$$' -fuzz '^FuzzOAMDecode$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/fec -run '^$$' -fuzz '^FuzzDecoder$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/ip -run '^$$' -fuzz '^FuzzIPDecode$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/ip -run '^$$' -fuzz '^FuzzChecksum$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/tcp -run '^$$' -fuzz '^FuzzParseSegment$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./cmd/cellview -run '^$$' -fuzz '^FuzzCellview$$' -fuzztime 15s -fuzzminimizetime 2s

# trace-verify exports flight-recorder traces from a short atmsim run and
# from E18's per-stage decomposition, and validates each against the
# Perfetto trace-event schema subset we emit.
trace-verify:
	$(GO) run ./cmd/atmsim -duration 2ms -size 9180 -trace /tmp/atmsim-trace.json >/dev/null
	$(GO) run ./cmd/traceverify /tmp/atmsim-trace.json
	$(GO) run ./cmd/atmbench -exp e18 -trace /tmp/atmbench-e18-trace.json >/dev/null
	$(GO) run ./cmd/traceverify /tmp/atmbench-e18-trace.json

# verify is the pre-PR gate: formatting, vet, staticcheck (when installed),
# a full build, the test suite under the race detector, the bench/ module's
# vet and tests, the trace schema gate, and the portable (non-amd64) build.
verify: fmt-check vet staticcheck
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) bench-check
	$(MAKE) trace-verify
	$(MAKE) portable-check
