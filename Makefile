GO ?= go

.PHONY: build test vet race faults fuzz-smoke ci loc perf-check bench-scan bench-job bench-direction bench-read bench-write bench-decode direction serve ooc

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# go vet, and fail when gofmt would reformat any file.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

# Race-detector pass over the concurrency-heavy packages: the comm fabrics
# (async senders, routers, collectives), the engine core (workers, copiers
# stashing write frames into the backlog the drain replays — the one receive
# policy, so only a machine's own workers write its columns in the task phase —
# frontiers, mirrors and accumulators, job cancellation),
# the algorithms (adaptive direction switching, the ablation lattice), the varint codec,
# the partitioner (cuts and chunks), the observability registry, the serving
# layer (admission scheduler, engine pools, deadlines, memory budgeting),
# and the out-of-core store (streamed writer, residency window).
race:
	$(GO) test -race ./internal/codec/... ./internal/comm/... ./internal/core/... ./internal/algorithms/... ./internal/partition/... ./internal/obs/... ./internal/server/... ./internal/store/...

# Fault-injection suite under the race detector: every TestFault* case
# (injector semantics, job aborts over both fabrics, recovery, leak checks).
faults:
	$(GO) test -race -run Fault -count=1 ./internal/comm/... ./internal/core/... ./pgxd/...

# Short fuzz pass over the decode surfaces that take bytes from outside —
# the codec, store.Open (one target: both section spellings go through one
# validator), the copier's write-frame apply and read-request serve, and the
# server's request handler — each target gets a few seconds, enough to shake
# out torn-input and canonicality regressions. FuzzServeReads answers through
# the in-process fabric, whose poller makes coverage flicker, and
# FuzzServeRequest runs analyses on engine clusters: without a short minimize
# budget the fuzzer spends its seconds shrinking inputs that only look new.
fuzz-smoke:
	$(GO) test ./internal/codec -run '^$$' -fuzz FuzzUvarintRoundTrip -fuzztime 5s
	$(GO) test ./internal/codec -run '^$$' -fuzz FuzzUvarintDecode -fuzztime 5s
	$(GO) test ./internal/codec -run '^$$' -fuzz FuzzZigZagDeltaRow -fuzztime 5s
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzOpen -fuzztime 5s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzApplyWrites -fuzztime 5s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzServeReads -fuzztime 5s -fuzzminimizetime 1s
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzServeRequest -fuzztime 5s -fuzzminimizetime 1s

# Budget: 6 minutes of wall clock on the 2-vCPU reference box (race is most of
# it); the target prints what it took — 238 s there in the last recorded run
# (test cache cleared, build cache warm; a cold race build adds about 90 s).
ci:
	@start=$$(date +%s); $(MAKE) --no-print-directory test vet race faults fuzz-smoke && \
		echo "make ci: $$(( $$(date +%s) - start )) s of wall clock (budget 360 s)"

# ROADMAP item 10's line metric: non-test Go lines in the engine, store and
# server packages, then in the whole repository, so every change quotes the
# same two numbers. A tracked file deleted but not yet committed is skipped.
loc:
	@echo "core+store+server: $$(cat $$(ls internal/core/*.go internal/store/*.go internal/server/*.go | grep -v _test.go) | wc -l)"
	@echo "repository:        $$(git ls-files -co --exclude-standard '*.go' | grep -v _test.go | while read -r f; do [ -f "$$f" ] && cat "$$f"; done | wc -l)"

# Performance regression check: one fresh set of the six benchmark workloads
# compared against the last record in benchmark/history.jsonl (refused when
# the environment stamp differs from that record's).
perf-check:
	$(GO) run ./benchmark -check

# The budget of one remote read and of one remote write (ROADMAP item 3): ns a
# remote ref adds to a pull-sum (bench-read) or push-sum (bench-write) job on
# two machines, in process and over loopback TCP — reads requested on demand
# and prefetched into the mirror, plus what numbering adds to a load in ns/edge
# (section: store.SectionOf for both machines; raw-section: the same rows with
# packed refs, the test's oracle); writes buffered on demand and folded into the
# worker's accumulator. They are
# the rows that turn AblateRemoteSets. With AGAINST=<git-ref> that commit's test binary is
# built beside this tree's under SCRATCH and the two alternate three times, the
# way a claim about this path is to be measured (a ref from before the
# benchmark existed prints nothing).
#
# bench-decode is the budget of one decoded edge of a compressed store file
# (TWT16, p = 2), same recipe: ns per edge and minor faults per pass of Open's
# validation scan, of a cold pass — every block decoded — through a decode pool
# a quarter of the decoded size, and of a warm pass through a pool that holds
# everything (a cursor step per row and nothing else).
#
# bench-job, same recipe, is the per-job constant: ns per RunJob of the two
# smallest frontier-sourced jobs on two in-process machines (an empty frontier;
# a one-node node pass that rebuilds a frontier), with their allocation counts
# — the number a change to the job schedule diffs against.
#
# bench-scan, same recipe, is the isolated number behind one line of the
# superstep budget: ns/edge of the kernel dispatch — a pull row accumulating in
# a register, a push reducing by the row (Writer.WriteRow) and ref by ref,
# local and 20 % remote: all-local, a push row is the cost of one local
# reduction.
#
# bench-direction, same recipe, prices the push/pull rule's α: ns per charged
# edge of one push and one pull superstep of each traversal's real kernels
# (WCC and SSSP over a whole-graph frontier, BFS at its heaviest level) on
# RMAT(14,16), Workers 1 and 4, p = 1 and 2 in process; the push/pull column
# is the α at which the two directions break even.
SCRATCH ?= /tmp/pgxd-bench-remote
bench-job bench-scan bench-direction bench-read bench-write bench-decode: PKG = ./internal/core
bench-job bench-scan bench-direction bench-read bench-write bench-decode: BENCHTIME = 10x
bench-job: BENCH = JobFloor
bench-job: BENCHTIME = 20000x
bench-scan: BENCH = EdgeDispatch
bench-scan: BENCHTIME = 50x
bench-direction: BENCH = DirectionStep
bench-direction: BENCHTIME = 20x
bench-direction: PKG = ./internal/algorithms
bench-read: BENCH = RemoteRead
bench-write: BENCH = RemoteWrite
bench-decode: BENCH = Decode
bench-decode: PKG = ./internal/store
bench-job bench-scan bench-direction bench-read bench-write bench-decode:
ifdef AGAINST
	rm -rf $(SCRATCH) && mkdir -p $(SCRATCH)/ref
	git archive $(AGAINST) | tar -x -C $(SCRATCH)/ref
	cd $(SCRATCH)/ref && $(GO) test -c -o $(SCRATCH)/ref.test $(PKG)
	$(GO) test -c -o $(SCRATCH)/head.test $(PKG)
	cd $(PKG) && for i in 1 2 3; do for side in ref head; do echo "== $$side ($$i)"; $(SCRATCH)/$$side.test -test.run '^$$' -test.bench $(BENCH) -test.benchtime $(BENCHTIME) -test.timeout 10m | grep Benchmark; done; done
else
	$(GO) test -run '^$$' -bench $(BENCH) -benchtime $(BENCHTIME) -count 3 $(PKG)/
endif

# Frontier/direction/dispatch check: frontier representation and
# write-activation tests, the ablation lattice (adaptive vs pinned push/pull
# and the sparse-frontier fallback, exact against SA over both fabrics), the
# push/pull rule's table test and its step counts on each graph shape, and row
# kernels vs their per-edge forms and the row re-entrancy hazard (`race`, and
# so `ci`, runs the same tests under the race detector).
direction:
	$(GO) test -count=1 -run 'Frontier|ActivateInto|AblationLattice|DirectionRule|DirectionStepsByShape|RowDispatch|RowKernel' ./internal/core/... ./internal/algorithms/...

# Serving-layer check: scheduler/cancellation unit and regression tests under
# the race detector.
serve:
	$(GO) test -race -count=1 ./internal/server/...
	$(GO) test -race -count=1 -run 'Cancel' ./internal/core/...

# Out-of-core check: the store file format (one container, both section
# spellings) + claim/residency + decode pool and cursor + write-backlog overflow
# (SpillWrites: the backlog every job drains, bounded and spilled to a file)
# tests under the race detector — all of internal/store, and from the engine the
# mmap-vs-in-memory bit-identity suite (csr2 and csr3 encodings), the abort,
# per-job counter and sparse-claim tests.
ooc:
	$(GO) test -race -count=1 ./internal/store/...
	$(GO) test -race -count=1 -run 'Store|Spill|OOC|Compressed|DecodeCache|SparseFrontierClaims' ./internal/core/... ./internal/algorithms/...
