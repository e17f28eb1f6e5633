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
# test binary runs natively on an amd64 host, so the whole suite runs with
# 32-bit words and the slicing fallback: every golden and digest then shows
# the simulator's results do not depend on word size. arm64 vet covers a
# 64-bit non-x86 target.
portable-check:
	GOARCH=386 $(GO) test ./...
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
# target per run), prints how many inputs it executed, and fails a target
# that executed fewer than FUZZ_MIN_EXECS. Minimizing a new input is capped
# at 100 executions, not at a time: with a 2 s cap, about ten new
# multi-frame inputs (offspring of the 9180-byte and multi-frame seeds)
# could spend a target's whole 15 s minimizing.
FUZZ_TARGETS = \
	./internal/aal:FuzzReassembler5 \
	./internal/aal:FuzzReassembler34 \
	./internal/aal:FuzzMIDReassembler34 \
	./internal/aal:FuzzAAL1Receiver \
	./internal/sonet:FuzzDeframer \
	./internal/sonet:FuzzFramer \
	./internal/crc:FuzzHECCheck \
	./internal/crc:FuzzCRC32 \
	./internal/crc:FuzzCRC10 \
	./internal/atm:FuzzCellDecode \
	./internal/atm:FuzzRMDecode \
	./internal/oam:FuzzOAMDecode \
	./internal/fec:FuzzDecoder \
	./internal/ip:FuzzIPDecode \
	./internal/ip:FuzzChecksum \
	./internal/tcp:FuzzParseSegment \
	./internal/vclookup:FuzzCAM \
	./cmd/cellview:FuzzCellview
FUZZ_MIN_EXECS = 10000

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; log=$$(mktemp); \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$name\$$" -fuzztime 15s -fuzzminimizetime 100x >$$log 2>&1; status=$$?; \
		cat $$log; \
		execs=$$(sed -n 's/.*execs: \([0-9][0-9]*\).*/\1/p' $$log | tail -n 1); rm -f $$log; \
		[ $$status -eq 0 ] || exit $$status; \
		echo "fuzz-smoke: $$name executed $${execs:-0} inputs"; \
		if [ "$${execs:-0}" -lt $(FUZZ_MIN_EXECS) ]; then \
			echo "fuzz-smoke: $$name is below the floor of $(FUZZ_MIN_EXECS)"; exit 1; \
		fi; \
	done

# trace-verify exports flight-recorder traces from a short atmsim run, from
# a framed run whose fiber is cut for 1 ms (so the trace carries drops and
# the spans around a loss) and from E18's per-stage decomposition, and
# validates each against the Perfetto trace-event schema subset we emit.
trace-verify:
	$(GO) run ./cmd/atmsim -duration 2ms -size 9180 -trace /tmp/atmsim-trace.json >/dev/null
	$(GO) run ./cmd/traceverify /tmp/atmsim-trace.json
	$(GO) run ./cmd/atmsim -framed -kill 2ms -restore 3ms -duration 8ms -size 9180 -trace /tmp/atmsim-cut-trace.json >/dev/null
	$(GO) run ./cmd/traceverify /tmp/atmsim-cut-trace.json
	$(GO) run ./cmd/atmbench -exp e18 -trace /tmp/atmbench-e18-trace.json >/dev/null
	$(GO) run ./cmd/traceverify /tmp/atmbench-e18-trace.json

# verify is the pre-PR gate: formatting, vet, staticcheck (when installed),
# a full build, the test suite under the race detector in shuffled order (so
# a test that leans on state another test left behind fails), the bench/
# module's vet and tests, the trace schema gate, and the portable
# (non-amd64) build.
verify: fmt-check vet staticcheck
	$(GO) build ./...
	$(GO) test -race -shuffle=on ./...
	$(MAKE) bench-check
	$(MAKE) trace-verify
	$(MAKE) portable-check
