GO ?= go

# Coverage floors (percent of statements) for the scheduling/runtime core.
# Ratchets, not aspirations: raise them when coverage grows, never lower
# them to make a build pass.
COVER_FLOOR_COLLECTIVE ?= 80
COVER_FLOOR_CORE ?= 78
COVER_FLOOR_DNN ?= 70
COVER_FLOOR_OBS ?= 85
COVER_FLOOR_GRAPH ?= 75
# Per-file floor for the async and multi-tenant QoS core (the scheduler,
# its lane configuration and tenant accounting), over and above the package
# floor.
COVER_FLOOR_QOS ?= 85

# Ceilings on net code size (`make loc`): the dispatch core and the whole
# repo outside bench/, both non-test code, and the test code outside bench/.
# Ratchets, not aspirations: lower them when a change shrinks the code,
# never raise them to make a build pass.
LOC_CEIL_CORE ?= 2506
LOC_CEIL_REPO ?= 11700
LOC_CEIL_TEST ?= 13509

.PHONY: all build test race vet fmt-check loc loc-check bench cover fuzz-smoke mutants ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Test suite under the race detector, with shuffled test order so
# accidental inter-test state dependencies surface instead of hiding
# behind file order. The experiment/figure suites are pure compute and
# very slow under -race, so target the public API plus every package with
# concurrent or data-moving paths. The striped-replay tests run again at
# GOMAXPROCS=4, so a data replay's stripes run on four Ps while the race
# detector watches their shared arena, and so do the scheduler's, so its
# workers, submitters and the handles they resolve race on four Ps.
race:
	$(GO) test -race -shuffle=on . ./internal/collective/... ./internal/core/... ./internal/simgpu/... ./internal/dnn/... ./internal/cluster/... ./internal/trace/... ./internal/topology/... ./internal/obs/...
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'StripedReplay' ./internal/core
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'Lane|Stream|Async|Tenant' ./internal/collective

# Statement-coverage gate for the scheduling/runtime core packages.
cover:
	@set -e; \
	for spec in "./internal/collective $(COVER_FLOOR_COLLECTIVE)" "./internal/core $(COVER_FLOOR_CORE)" "./internal/dnn $(COVER_FLOOR_DNN)" "./internal/obs $(COVER_FLOOR_OBS)" "./internal/graph $(COVER_FLOOR_GRAPH)"; do \
		set -- $$spec; pkg=$$1; floor=$$2; \
		out=$$($(GO) test -cover $$pkg) || { echo "$$out"; echo "tests of $$pkg failed"; exit 1; }; \
		line=$$(echo "$$out" | grep -o 'coverage: [0-9.]*%'); \
		pct=$${line#coverage: }; pct=$${pct%\%}; \
		echo "$$pkg: $$pct% (floor $$floor%)"; \
		ok=$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN { print (p+0 >= f+0) ? 1 : 0 }'); \
		if [ "$$ok" != 1 ]; then echo "coverage of $$pkg fell below the $$floor% floor"; exit 1; fi; \
	done; \
	profile=$$(mktemp); \
	$(GO) test -coverprofile=$$profile ./internal/collective >/dev/null || { rm -f $$profile; echo "coverage run of ./internal/collective failed"; exit 1; }; \
	for f in internal/collective/scheduler.go internal/collective/lanes.go internal/collective/tenant.go; do \
		pct=$$(awk -v file="$$f" '$$1 ~ file":" { stmts += $$2; if ($$3 > 0) cov += $$2 } END { printf "%.1f", (stmts ? 100 * cov / stmts : 0) }' $$profile); \
		echo "$$f: $$pct% (floor $(COVER_FLOOR_QOS)%)"; \
		ok=$$(awk -v p="$$pct" -v f="$(COVER_FLOOR_QOS)" 'BEGIN { print (p+0 >= f+0) ? 1 : 0 }'); \
		if [ "$$ok" != 1 ]; then rm -f $$profile; echo "coverage of $$f fell below the $(COVER_FLOOR_QOS)% per-file floor"; exit 1; fi; \
	done; \
	rm -f $$profile

# Short native-fuzz smoke over the topology parser, the point-to-point plan
# builders, the plan decoder and the engine's data path against its
# sequential reference (the checked-in corpora always run as seed cases in
# `make test`; this adds mutation time).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 15s ./internal/topology
	$(GO) test -run '^$$' -fuzz '^FuzzExchangePlanBuilders$$' -fuzztime 15s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePlan$$' -fuzztime 15s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzEngineData$$' -fuzztime 15s ./internal/collective

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Net code size, the numbers ROADMAP tracks and expects to fall: non-blank,
# non-comment lines of non-test .go files in (a) the dispatch core and (b)
# the whole repo outside bench/, and (c) of test .go files outside bench/.
LOC_COUNT = count() { cat "$$@" | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l; }
LOC_CORE = $$(count $$(ls internal/collective/*.go | grep -v _test.go) blink.go tenant.go)
LOC_REPO = $$(count $$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*'))
LOC_TEST = $$(count $$(find . -name '*_test.go' -not -path './bench/*'))

loc:
	@$(LOC_COUNT); \
	echo "internal/collective + blink.go + tenant.go: $(LOC_CORE)"; \
	echo "repo excluding bench/: $(LOC_REPO)"; \
	echo "tests excluding bench/: $(LOC_TEST)"

# Size gate: fail when any count grew past its ceiling.
loc-check:
	@$(LOC_COUNT); core=$(LOC_CORE); repo=$(LOC_REPO); tests=$(LOC_TEST); \
	echo "internal/collective + blink.go + tenant.go: $$core (ceiling $(LOC_CEIL_CORE))"; \
	echo "repo excluding bench/: $$repo (ceiling $(LOC_CEIL_REPO))"; \
	echo "tests excluding bench/: $$tests (ceiling $(LOC_CEIL_TEST))"; \
	if [ $$core -gt $(LOC_CEIL_CORE) ] || [ $$repo -gt $(LOC_CEIL_REPO) ] || [ $$tests -gt $(LOC_CEIL_TEST) ]; then echo "code grew past its ceiling"; exit 1; fi

# Every benchmark once. Four of them gate a wall-clock ratio and fail below
# its threshold (incremental repair >= 10x, warm-disk cold start >= 3x per
# shape, overlapped train step >= 1.25x, latency-critical drain through the
# lanes >= 4x sooner than through the FIFO streams); -p 1 keeps a gate from
# competing with another package's benchmarks for the CPUs. End-to-end
# numbers live in ./bench (go run ./bench run).
bench:
	$(GO) test -p 1 -bench . -benchtime 1x -run '^$$' ./...

# Mutation gate: applies each defect in testdata/mutants to a temporary git
# worktree and fails unless the test or benchmark the patch names catches it
# (and passes without it). See testdata/mutants/README.md.
mutants:
	sh testdata/mutants/run.sh

ci: fmt-check vet loc-check build test race cover fuzz-smoke bench mutants
