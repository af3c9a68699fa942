# CI and humans run the same commands: the workflow in
# .github/workflows/ci.yml calls the same go invocations these targets do.

GO ?= go

.PHONY: all build vet vet-ck fmt fmt-check test race bench bench-json bench-smoke examples serve lint docs-check loadtest loadtest-restart loadtest-replica fuzz-smoke loadtest-race

all: build vet fmt-check test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## vet-ck runs the repo's own invariant analyzers (internal/tools/ckvet):
## maporder, errenvelope, atomicwrite, snapshotmut, poolleak. These
## enforce the contracts ordinary tests cannot economically cover —
## deterministic map-iteration output, envelope-only error responses,
## atomic snapshot publication, pinned immutability, and sync.Pool
## hygiene. Suppressions require a //ckvet:ignore <analyzer> <reason>
## comment; see `go run ./internal/tools/ckvet -list`.
vet-ck:
	$(GO) run ./internal/tools/ckvet ./...

## fmt rewrites files in place; fmt-check (used by CI) only reports.
fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## lint mirrors the CI lint job exactly: pinned tool versions fetched on
## demand by `go run` (no separate install step, no version drift between
## local runs and CI). staticcheck reads staticcheck.conf at the repo
## root, which enables the non-default ST and QF groups; the pins were
## last audited 2026-08 against that widened check set.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

## docs-check keeps the prose honest (mirrors the CI docs job): every
## relative markdown link in README.md + docs/ must resolve, every
## exported symbol of the public package and internal/server must carry a
## doc comment, every func Fuzz* outside bench/ must have a line in
## fuzz-smoke below, every row of ARCHITECTURE's "Production paths and
## their oracles" table must name parity tests that some _test.go
## defines, and every backticked repository file path in PAPER-MAP and
## ARCHITECTURE (a code span starting with internal/, cmd/, docs/,
## bench/, examples/ or .github/ and ending in a file extension) must
## name a file that exists; bare file names, package paths and symbols
## are not checked. The same tool output gates CI, so broken links, bare
## exported names, unlisted fuzz targets, oracle rows without tests and
## citations of deleted files fail the build, not a reviewer's patience.
docs-check:
	$(GO) run ./internal/tools/docscheck

## examples builds and smoke-runs every examples/* program (mirrors the CI
## examples job; sizes scaled down to stay fast).
examples:
	$(GO) build ./examples/...
	@set -eu; for d in examples/*/; do \
		name="$$(basename "$$d")"; \
		case "$$name" in \
			adult)     args="-n 2000" ;; \
			incognito) args="-n 1000" ;; \
			*)         args="" ;; \
		esac; \
		echo "==> go run ./$$d $$args"; \
		$(GO) run "./$$d" $$args > /dev/null; \
	done

## serve runs the resident disclosure-auditing daemon with the hospital
## example preloaded.
serve:
	$(GO) run ./cmd/ckprivacyd -preload hospital

## loadtest drives an in-process daemon with the mixed scale workload
## (register/append/disclosure/check/anonymize) and prints per-op p50/p99
## latency plus append rows/s. Point LOADTEST_ARGS at a live daemon with
## `-url http://host:8344`, or raise the scale with `-rows 1000000`.
LOADTEST_ARGS ?= -rows 100000 -ops 400 -clients 4

loadtest:
	$(GO) run ./cmd/ckprivacy loadtest $(LOADTEST_ARGS)

## loadtest-restart is the kill-and-restart durability smoke: the workload
## runs against an in-process daemon persisting to a scratch -data-dir,
## the daemon is hard-stopped without draining (the moral equivalent of
## kill -9), and a fresh daemon must recover the dataset and serve
## identical version/rows/releases and disclosure numbers.
LOADTEST_RESTART_ARGS ?= -rows 20000 -ops 100 -clients 2

loadtest-restart:
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/ckprivacy loadtest $(LOADTEST_RESTART_ARGS) -data-dir $$dir -restart; \
	status=$$?; rm -rf $$dir; exit $$status

## loadtest-replica is the replication smoke: the workload runs against a
## durable in-process leader while an in-process read-only follower tails
## its WAL over the replication endpoints; the read half of the mix
## (disclosure/check/info) is served by the follower live, and after the
## workload the follower must be caught up with zero record lag and
## answer identically to the leader.
LOADTEST_REPLICA_ARGS ?= -rows 20000 -ops 100 -clients 2

loadtest-replica:
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/ckprivacy loadtest $(LOADTEST_REPLICA_ARGS) -data-dir $$dir -replica; \
	status=$$?; rm -rf $$dir; exit $$status

## fuzz-smoke gives every fuzz target in the module a short budget (the
## CI fuzz job runs this list in full; docs-check fails on a target
## missing from it): the store decoders (snapshot/WAL
## hardening), the replication wire's record scanner (a WAL stream fed
## whole or in chunks), the logic parsers, the MINIMIZE2 kernel against its
## recursive oracle, the dataset-spec registration path, appends
## against a rebuild of the grown table, the /v1/datasets,
## /v1/disclosure, /v1/check, /v1/datasets/{name}/rows and /v1/estimate
## request bodies through the real mux, and /v1/anonymize bodies with
## their jobs polled (and cancelled) to a final state. Long enough to
## catch a regression, short enough for every push.
## Raise FUZZ_TIME for a real session.
FUZZ_TIME ?= 20s

fuzz-smoke:
	$(GO) test ./internal/store/ -run '^$$' -fuzz FuzzSnapshotOpen -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/store/ -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/store/ -run '^$$' -fuzz FuzzRecordScanner -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/logic/ -run '^$$' -fuzz FuzzParseImplication -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/logic/ -run '^$$' -fuzz FuzzParseConjunction -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/logic/ -run '^$$' -fuzz FuzzParseAtom -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzKernelMatchesOracle -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/dataload/ -run '^$$' -fuzz FuzzFromSpec -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/anonymize/ -run '^$$' -fuzz FuzzAppendMatchesRebuild -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzReadRequests -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzAppendRequests -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzEstimateRequests -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzRegisterDataset -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzAnonymizeRequests -fuzztime $(FUZZ_TIME)

## loadtest-race is the loadtest smoke under the race detector (mirrors
## the CI race job): small enough to stay fast, concurrent enough to
## give the detector real interleavings.
LOADTEST_RACE_ARGS ?= -rows 20000 -ops 100 -clients 4

loadtest-race:
	$(GO) run -race ./cmd/ckprivacy loadtest $(LOADTEST_RACE_ARGS)

bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

## bench-smoke vets and smoke-tests the ckbench benchmark (mirrors the CI
## test job). bench/ is a module of its own, so the root `go test ./...`
## never compiles it; run this after changing any internal API it
## imports. Its tests use tiny inputs (~5 s). Compare two builds with
## `bash bench/run.sh compare BASE_DIR NEW_DIR` (see bench/README.md).
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## bench-json mirrors the CI bench job: one iteration of everything,
## emitted as a test2json stream for the perf trajectory.
bench-json:
	$(GO) test -bench=. -benchtime=1x -run='^$$' -json ./... | tee BENCH_local.json
