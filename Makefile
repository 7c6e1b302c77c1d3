# Pre-PR gate: `make check` runs everything CI expects to be green.

GOFILES := $(shell find . -name '*.go' -not -path './.git/*' -not -path './.bench_build/*')

.PHONY: check fmt vet test race bench-pairs identical hotpath chaos cover results soak loc

check: fmt vet hotpath race chaos cover

fmt:
	@out="$$(gofmt -l $(GOFILES))"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# Hot-path gate: vet plus race on the zero-allocation substrate (event
# scheduler, link layer, packet/buffer pools). Redundant with the full
# `make race` but fast enough to run on its own while iterating.
HOTPATH_PKGS := ./internal/sim ./internal/netem ./internal/metrics ./internal/obs ./internal/cc ./internal/profile ./internal/transport ./internal/tcp ./internal/quic
hotpath:
	go vet $(HOTPATH_PKGS)
	go test -race -count=1 $(HOTPATH_PKGS)

# Paired runs of the benchmark, a parent revision against this tree
# (benchmark/README.md, "Comparing a parent and a change"): the parent is
# unpacked and both sides are built once under .bench_build/pairs, pair i
# runs both at seed i with the side that goes first alternating, every run
# is appended to one JSONL a side, and -compare judges them.
#   make bench-pairs PARENT=<rev> [N=10] [SECONDS=15] [WORKLOADS=a,b]
N ?= 10
SECONDS ?= 15
PAIRS := .bench_build/pairs
bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs PARENT=<rev> [N=10] [SECONDS=15] [WORKLOADS=a,b]"; exit 2; }
	rm -rf $(PAIRS) && mkdir -p $(PAIRS)/parent
	git archive $(PARENT) | tar -x -C $(PAIRS)/parent
	cd $(PAIRS)/parent && go build -o ../bench.parent ./benchmark
	go build -o $(PAIRS)/bench.change ./benchmark
	@for i in $$(seq 1 $(N)); do \
		if [ $$((i % 2)) = 0 ]; then order="parent change"; else order="change parent"; fi; \
		for side in $$order; do \
			echo "pair $$i: $$side"; \
			$(PAIRS)/bench.$$side -seed $$i -seconds $(SECONDS) $(if $(WORKLOADS),-workload $(WORKLOADS)) \
				-o $(PAIRS)/$$side.jsonl > $(PAIRS)/last.out || { cat $(PAIRS)/last.out; exit 1; }; \
		done; \
	done
	$(PAIRS)/bench.change -compare $(PAIRS)/parent.jsonl $(PAIRS)/change.jsonl

# Byte-identity check of a change against a parent revision: the parent
# is unpacked as bench-pairs unpacks it, quicbench is built from each tree,
# and each binary runs the whole quick registry at one seed on one worker
# from its own output directory, so the relative paths the ledger records
# are the same on both sides. It then diffs stdout (minus the wall-clock
# "completed in" lines), the bundle tree, every .ckpt file and the ledger
# (minus its host-clock timing and sweep_stats records), and fails on the
# first difference. Last, the change's quicreport renders the change's
# checkpoints, which must print its filtered stdout: every experiment's
# restore-and-render path, with no cell simulated. About 1.1 GB of
# bundles under .bench_build/identical.
#   make identical PARENT=<rev>
IDENT := .bench_build/identical
IDENT_RUN := -exp all -quick -seed 3 -parallel 1 -ledger L -checkpoint C -bundle B
identical:
	@test -n "$(PARENT)" || { echo "usage: make identical PARENT=<rev>"; exit 2; }
	rm -rf $(IDENT) && mkdir -p $(IDENT)/parent $(IDENT)/parent.out $(IDENT)/change.out
	git archive $(PARENT) | tar -x -C $(IDENT)/parent
	cd $(IDENT)/parent && go build -o ../quicbench.parent ./cmd/quicbench
	go build -o $(IDENT)/quicbench.change ./cmd/quicbench
	go build -o $(IDENT)/quicreport.change ./cmd/quicreport
	@for side in parent change; do \
		echo "running $$side"; \
		(cd $(IDENT)/$$side.out && ../quicbench.$$side $(IDENT_RUN) > stdout.raw) || exit 1; \
		grep -v ' completed in ' $(IDENT)/$$side.out/stdout.raw > $(IDENT)/$$side.out/stdout; \
		grep -v '^{"type":"\(timing\|sweep_stats\)"' $(IDENT)/$$side.out/L > $(IDENT)/$$side.out/ledger; \
	done
	diff $(IDENT)/parent.out/stdout $(IDENT)/change.out/stdout
	diff -r $(IDENT)/parent.out/B $(IDENT)/change.out/B
	diff -r $(IDENT)/parent.out/C $(IDENT)/change.out/C
	diff $(IDENT)/parent.out/ledger $(IDENT)/change.out/ledger
	$(IDENT)/quicreport.change render $(IDENT)/change.out/C > $(IDENT)/change.out/render
	diff $(IDENT)/change.out/stdout $(IDENT)/change.out/render
	@echo "identical: stdout, bundles, checkpoints and ledger match $(PARENT); quicreport render matches stdout"

# Bounded-memory gate: a 10^5-cell synthetic sweep (nearly forty times
# the largest registered sweep) through the full crash-tolerant harness
# (per-cell timeouts, a run ledger) must finish inside a fixed heap and
# RSS ceiling.
soak:
	QUICLAB_SOAK=1 go test -run TestSoakMemoryCeiling -v -count=1 -timeout 20m ./internal/core

# Coverage gate: the statistical machinery, the experiment layer, the
# metrics pipeline and the congestion-control registry must hold >= 70%
# statement coverage — a regression here means new sweeps, stats paths
# or CC algorithms landed untested. Uses -short so the gate stays fast;
# the full matrices run under `make test` / `make race`.
COVER_FLOOR := 70
cover:
	@go test -short -coverprofile=/tmp/quiclab-cover.out ./internal/core ./internal/stats ./internal/metrics ./internal/obs ./internal/cc ./internal/profile > /dev/null
	@go tool cover -func=/tmp/quiclab-cover.out | awk -v floor=$(COVER_FLOOR) ' \
		/^total:/ { gsub(/%/, "", $$3); pct = $$3 } \
		END { \
			printf "coverage (internal/core + internal/stats + internal/metrics + internal/obs + internal/cc + internal/profile): %.1f%% (floor %d%%)\n", pct, floor; \
			if (pct + 0 < floor) { print "coverage below floor"; exit 1 } \
		}'

# Short chaos suite: 100 seeded fault schedules per transport, their 20
# most lossy and probe-heavy seeds replayed with WireEncode (every packet's
# wire image checked frame by frame on arrival), the resume gate over the whole experiment registry at 1 and 4 workers
# (asked for by name it runs every experiment; `make test` / `make race`
# resume a three-experiment subset), a quick fuzz smoke over both wire
# decoders, a fuzz smoke over the run-log reader (obs.Scan: the
# crash-recovery path must shrug off any torn or corrupt JSONL), one
# over the event queue's lanes against an event per entry (minimising a
# new input re-runs both twins, so that is capped), one over its timers
# (Schedule, Stop, Reschedule, Step, RunUntil) against a sorted slice,
# one over QUIC's ack processing — the false-loss watch and the sent
# ring — against the map model it replaced, one over scripted runs of
# every congestion-control fixture (cc's conformance contract and
# determinism), and one over the trace recorder's emit methods (what an
# undetailed recorder folds equals what the detailed log holds). The
# full 250-seed sweep runs as part of `make test` / `make race`.
chaos:
	go test -short -run 'TestChaos|TestOutage|TestPermanentOutage|TestDeadlineFailure' ./internal/core
	go test -count=1 -run TestEveryExperimentResumes ./internal/core
	go test -fuzz=FuzzDecodeQUICPacket -fuzztime=5s -run '^$$' ./internal/wire
	go test -fuzz=FuzzDecodeTCPSegment -fuzztime=5s -run '^$$' ./internal/wire
	go test -fuzz=FuzzLedgerRead -fuzztime=5s -run '^$$' ./internal/obs
	go test -fuzz=FuzzLaneOrder -fuzztime=10s -fuzzminimizetime=1s -run '^$$' ./internal/sim
	go test -fuzz=FuzzTimerOps -fuzztime=5s -fuzzminimizetime=1s -run '^$$' ./internal/sim
	go test -fuzz=FuzzAckWatch -fuzztime=5s -fuzzminimizetime=1s -run '^$$' ./internal/quic
	go test -fuzz=FuzzControllerScript -fuzztime=5s -fuzzminimizetime=1s -run '^$$' ./internal/cc
	go test -fuzz=FuzzFoldEqualsLog -fuzztime=5s -fuzzminimizetime=1s -run '^$$' ./internal/trace

# Full reproduction artifact: regenerate results_full.txt (every
# experiment at paper scale), checkpointed so an interrupted run
# resumes instead of starting over — re-run `make results` after a
# crash or Ctrl-C and it picks up where it left off. Remove
# /tmp/quiclab-results-ckpt to force a from-scratch run.
results:
	go run ./cmd/quicbench -exp all -checkpoint /tmp/quiclab-results-ckpt > results_full.txt
	@echo "wrote results_full.txt"

# Size ledger: non-test Go lines per package (all lines, and code lines —
# non-blank, non-comment) and the totals outside benchmark/, so the
# ROADMAP's "net-negative non-test LOC" is a number anyone can reprint.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './.git/*' -not -path './.bench_build/*' | sort | xargs awk ' \
		FNR == 1 { dir = FILENAME; sub(/\/[^\/]*$$/, "", dir); inblock = 0 } \
		{ lines[dir]++; line = $$0; sub(/^[ \t]+/, "", line) } \
		inblock { if (line ~ /\*\//) inblock = 0; next } \
		line ~ /^\/\*/ { if (line !~ /\*\//) inblock = 1; next } \
		line == "" || line ~ /^\/\// { next } \
		{ code[dir]++ } \
		END { \
			for (d in lines) { printf "%6d %6d  %s\n", lines[d], code[d], d | "sort -k3"; \
				if (d !~ /^\.\/benchmark/) { tl += lines[d]; tc += code[d] } } \
			close("sort -k3"); \
			printf "%6d %6d  total outside benchmark/ (lines, code lines)\n", tl, tc }'
