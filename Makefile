# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short bench-module race bench experiments experiments-full tables-check substrate-smoke explore-smoke obs-smoke e17-smoke aware-smoke examples-smoke serve-smoke trace-smoke fuzz fmt vet lint lint-static loc ci clean

# Smoke-test artifacts (metrics dumps, span streams, Chrome traces) land
# here; CI uploads the directory, .gitignore keeps it out of the tree.
ARTIFACTS ?= artifacts

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# bench-module vets and tests bench/, the benchmark's own module (root
# `./...` patterns do not reach it): an internal/ change that breaks what
# the benchmark compiles against fails here.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the root benchmarks for profiling; no numbers are committed.
# `go test` pins hot-path allocations (alloc_test.go), and bench/ with
# BENCHMARK.json is the performance trajectory.
bench:
	$(GO) test -bench=. -benchmem .

experiments:
	$(GO) run ./cmd/experiments

experiments-full:
	$(GO) run ./cmd/experiments -full -parallel 0 -json EXPERIMENTS.tables.json -o EXPERIMENTS.tables.md

# tables-check regenerates the quick-scale tables and diffs them against
# the pinned copy: "every table byte-identical" is a gate, not a hand
# check. The run itself fails on any claim failure. A PR that means to move
# a table regenerates the pin with
#   go run ./cmd/experiments -parallel 4 -o testdata/tables.quick.md
tables-check:
	mkdir -p $(ARTIFACTS)
	$(GO) run ./cmd/experiments -parallel 4 -json $(ARTIFACTS)/experiments.json -o $(ARTIFACTS)/tables.quick.md > /dev/null
	diff testdata/tables.quick.md $(ARTIFACTS)/tables.quick.md
	@echo "tables: quick-scale output byte-identical to testdata/tables.quick.md"

# substrate-smoke runs a small portable slice on the concurrent goroutine
# substrate under the race detector — the CI cross-substrate check.
substrate-smoke:
	$(GO) run -race ./cmd/experiments -e E1,Q1,Q2 -substrate async

# explore-smoke exhaustively verifies A_nuc safety at a small bound and
# checks the model checker's worker-count determinism by diffing stdout
# between -parallel 1 and -parallel 8 (it must be byte-identical). The
# full E6 counterexample hunt runs in CI's explore job and in the tests.
explore-smoke:
	mkdir -p $(ARTIFACTS)
	$(GO) run ./cmd/explore -target anuc -n 3 -f 1 -bound 6 -parallel 1 > $(ARTIFACTS)/explore-smoke.p1.txt
	$(GO) run ./cmd/explore -target anuc -n 3 -f 1 -bound 6 -parallel 8 > $(ARTIFACTS)/explore-smoke.p8.txt
	diff $(ARTIFACTS)/explore-smoke.p1.txt $(ARTIFACTS)/explore-smoke.p8.txt
	@echo "explore: verified, byte-identical at -parallel 1 and 8"

# obs-smoke exports E1's causal event stream on the sim substrate and
# checks the observability determinism contract (DESIGN.md §7): the JSONL
# event log and the metrics dump must be byte-identical at -parallel 1 and
# -parallel 8, and the Chrome trace must be well-formed JSON.
obs-smoke:
	mkdir -p $(ARTIFACTS)
	$(GO) run ./cmd/experiments -e E1 -parallel 1 -events $(ARTIFACTS)/obs-smoke.p1.jsonl \
		-trace $(ARTIFACTS)/obs-smoke.trace.json -metrics $(ARTIFACTS)/obs-smoke.p1.metrics > /dev/null
	$(GO) run ./cmd/experiments -e E1 -parallel 8 -events $(ARTIFACTS)/obs-smoke.p8.jsonl \
		-metrics $(ARTIFACTS)/obs-smoke.p8.metrics > /dev/null
	diff $(ARTIFACTS)/obs-smoke.p1.jsonl $(ARTIFACTS)/obs-smoke.p8.jsonl
	diff $(ARTIFACTS)/obs-smoke.p1.metrics $(ARTIFACTS)/obs-smoke.p8.metrics
	python3 -m json.tool $(ARTIFACTS)/obs-smoke.trace.json > /dev/null
	@echo "obs: event log and metrics byte-identical at -parallel 1 and 8; trace is valid JSON"

# serve-smoke checks the serving layer both ways it runs. First E18 on
# the sim substrate: the metrics dump (the serve.* counters fold
# commutatively) must be byte-identical at -parallel 1 and 8. Then the
# real thing: a 3-node cmd/nucd cluster over loopback TCP serves a short
# cmd/nucload run (writes + plain and read-index reads), both sides dump
# their metrics registries as JSONL (the CI artifact), and the dumps must
# actually carry the serving-path instruments. nucd itself fails the
# target if the replicas' machines diverge or the step budget runs out;
# nucload fails it if any write goes unacked.
serve-smoke:
	mkdir -p $(ARTIFACTS)
	$(GO) run ./cmd/experiments -e E18 -parallel 1 -metrics $(ARTIFACTS)/serve-smoke.p1.metrics > /dev/null
	$(GO) run ./cmd/experiments -e E18 -parallel 8 -metrics $(ARTIFACTS)/serve-smoke.p8.metrics > /dev/null
	diff $(ARTIFACTS)/serve-smoke.p1.metrics $(ARTIFACTS)/serve-smoke.p8.metrics
	$(GO) build -o nucd.smoke ./cmd/nucd
	$(GO) build -o nucload.smoke ./cmd/nucload
	rm -f $(ARTIFACTS)/serve-smoke.addrs
	./nucd.smoke -n 3 -ops 300 -batch 8 -addr-file $(ARTIFACTS)/serve-smoke.addrs \
	    -metrics $(ARTIFACTS)/nucd.metrics.jsonl & \
	pid=$$!; \
	./nucload.smoke -addr-file $(ARTIFACTS)/serve-smoke.addrs -ops 300 -clients 4 -window 4 \
	    -read-frac 0.3 -timeout 60s -metrics $(ARTIFACTS)/nucload.metrics.jsonl \
	    || { kill $$pid 2>/dev/null; exit 1; }; \
	wait $$pid
	grep -q '"name":"serve.apply.commands"' $(ARTIFACTS)/nucd.metrics.jsonl
	grep -q '"name":"load.write_us"' $(ARTIFACTS)/nucload.metrics.jsonl
	@rm -f nucd.smoke nucload.smoke
	@echo "serve: E18 metrics byte-identical at -parallel 1 and 8; nucd+nucload TCP run clean"

# trace-smoke is the end-to-end tracing gate: a 3-node cmd/nucd cluster
# with -trace and the telemetry listener serves a traced cmd/nucload run;
# /metrics, /healthz and /statusz are scraped over HTTP from the live
# daemon (the Prometheus rendering must carry the span counter and the
# quiet gate's held / released books, the status report the applier
# frontiers); then cmd/nuctrace joins the two
# span streams and -check demands a complete ingress→batch→decide→apply→
# reply chain, telescoping exactly to the end-to-end latency, for 100% of
# acked requests. The Chrome export must parse as JSON.
trace-smoke:
	mkdir -p $(ARTIFACTS)
	$(GO) build -o nucd.smoke ./cmd/nucd
	$(GO) build -o nucload.smoke ./cmd/nucload
	$(GO) build -o nuctrace.smoke ./cmd/nuctrace
	rm -f $(ARTIFACTS)/trace-smoke.addrs $(ARTIFACTS)/trace-smoke.addrs.debug
	./nucd.smoke -n 3 -ops 200 -batch 8 -addr-file $(ARTIFACTS)/trace-smoke.addrs \
	    -trace $(ARTIFACTS)/nucd.trace.jsonl -debug-addr 127.0.0.1:0 -slow 250ms & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -s $(ARTIFACTS)/trace-smoke.addrs.debug ] && break; sleep 0.1; done; \
	python3 -c "import urllib.request; \
	addr = open('$(ARTIFACTS)/trace-smoke.addrs.debug').read().strip(); \
	body = urllib.request.urlopen('http://%s/metrics' % addr).read().decode(); \
	assert '# TYPE obs_spans counter' in body, body[:400]; \
	assert '# TYPE rsm_quiet_held counter' in body and '# TYPE rsm_quiet_released counter' in body, body[:400]; \
	assert urllib.request.urlopen('http://%s/healthz' % addr).read().decode().strip() == 'ok'; \
	status = urllib.request.urlopen('http://%s/statusz' % addr).read(); \
	assert b'frontier' in status and b'live_instances' in status and b'quiet_instances' in status and b'"aware"' in status, status[:400]; \
	print('live scrape ok: /metrics /healthz /statusz')" \
	    || { kill $$pid 2>/dev/null; exit 1; }; \
	./nucload.smoke -addr-file $(ARTIFACTS)/trace-smoke.addrs -ops 200 -clients 4 -window 4 \
	    -timeout 60s -trace $(ARTIFACTS)/nucload.trace.jsonl \
	    || { kill $$pid 2>/dev/null; exit 1; }; \
	wait $$pid
	./nuctrace.smoke -check -chrome $(ARTIFACTS)/trace-smoke.chrome.json \
	    $(ARTIFACTS)/nucd.trace.jsonl $(ARTIFACTS)/nucload.trace.jsonl
	python3 -m json.tool $(ARTIFACTS)/trace-smoke.chrome.json > /dev/null
	@rm -f nucd.smoke nucload.smoke nuctrace.smoke
	@echo "trace: every acked request reconstructs a complete, telescoping span chain"

# e17-smoke runs the long-log scale experiment (E17) end to end and checks
# the shared-store transport contract on its obs metrics dump: byte-
# identical at -parallel 1 and 8 (the rsm.hist.* counters fold
# commutatively), zero delta gaps on FIFO substrates, and incremental
# delta hits dominating snapshot fallbacks — and, from the rendered table,
# that per-slot cost is flat in log length: msgs/slot at the longest grid
# point at most 1.1x the shortest (decided instances go quiet; before
# that rule the ratio was 3.04) and at most 95 in absolute terms (slots
# start with their quorum already acknowledged, decide in round 1 and hold
# the next round's LEAD until asked: 78.7 measured, 117 with that round
# sent, 267 when every slot also paid its own SAW/ACK round trip). The
# experiment run itself
# fails the target if E17's claim stops holding. The rendered table and
# both dumps stay under $(ARTIFACTS) for CI's e17-scale job to upload.
e17-smoke:
	mkdir -p $(ARTIFACTS)
	$(GO) run ./cmd/experiments -e E17 -parallel 1 -metrics $(ARTIFACTS)/e17-smoke.p1.metrics > $(ARTIFACTS)/e17-smoke.tables.md
	$(GO) run ./cmd/experiments -e E17 -parallel 8 -metrics $(ARTIFACTS)/e17-smoke.p8.metrics > /dev/null
	diff $(ARTIFACTS)/e17-smoke.p1.metrics $(ARTIFACTS)/e17-smoke.p8.metrics
	grep -q '^rsm.hist.delta_gaps counter 0$$' $(ARTIFACTS)/e17-smoke.p1.metrics
	awk '$$1 == "rsm.hist.delta_hits" { hits = $$3 } \
	     $$1 == "rsm.hist.full_fallbacks" { falls = $$3 } \
	     END { exit !(hits > 10 * falls) }' $(ARTIFACTS)/e17-smoke.p1.metrics
	awk -F'|' '$$2 ~ /shared/ { if (!rows++) first = $$6; last = $$6 } \
	     END { if (rows < 4) exit 1; \
	           if (last > 1.1 * first) { print "e17: msgs/slot grows with the log:", first, "->", last; exit 1 } \
	           if (last > 95) { print "e17: msgs/slot at the longest log above 95 (slots no longer decide in round 1, or announce the next round unasked):", last; exit 1 } }' \
	     $(ARTIFACTS)/e17-smoke.tables.md
	@echo "e17: metrics byte-identical at -parallel 1 and 8; delta transport healthy; msgs/slot flat in log length and under 95"

# aware-smoke runs the quorum-awareness auditor (internal/rsm
# aware_internal_test.go, DESIGN.md §10) at reduced seeds: on every decision
# of every slot instance, each member of the deciding quorum held (p, Q)
# before it sent the PROP consumed — and the same sweep with the stamp
# comparison defeated by a test wrapper must fail the audit. `go test ./...`
# runs the full 200-seed sweep.
aware-smoke:
	$(GO) test -short -count=1 -run 'TestAwarenessAudit|TestAcknowledgedBefore|TestRecordAckKeepsEarliestStamp' ./internal/rsm
	@echo "aware: every audited decision consumed PROPs sent after the quorum was known; zeroed stamps are caught"

# examples-smoke builds every examples/* program into $(ARTIFACTS) and runs
# it; each exits non-zero when its property check fails. The sim-only
# examples are functions of their seeds, so every run must print the same
# bytes; quickstart's concurrent sections are not, so only its simulator
# section (everything before "== goroutine runtime ==") is compared. A small
# map iterates in the same order most of the time (≈ 3 runs in 4 for the
# examples' decision maps), so one rerun rarely catches output that leaks
# map order: each example runs 16 times and every run is compared with the
# first, which misses such a leak about 1 time in 100.
examples-smoke:
	mkdir -p $(ARTIFACTS)/examples
	@for d in examples/*; do \
	    e=$$(basename $$d); bin=$(ARTIFACTS)/examples/$$e; \
	    $(GO) build -o $$bin ./$$d || exit 1; \
	    for i in $$(seq 1 16); do \
	        $$bin > $$bin.out || { echo "examples: $$e exited non-zero"; exit 1; }; \
	        sed '/^== goroutine runtime ==$$/q' $$bin.out > $$bin.$$i.det; \
	        cmp -s $$bin.1.det $$bin.$$i.det || { echo "examples: $$e printed different output on run $$i"; diff $$bin.1.det $$bin.$$i.det; exit 1; }; \
	    done; \
	    echo "examples: $$e ok (16 identical runs)"; \
	done

fuzz:
	$(GO) test ./internal/wire -fuzz FuzzDecodePayload -fuzztime 30s
	$(GO) test ./internal/wire -fuzz FuzzDecodeValue -fuzztime 30s

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# lint runs the repo's own go/analysis suite (all four analyzers; see
# `go run ./cmd/nuclint -list`, and `-only a,b` to run a subset).
lint:
	$(GO) run ./cmd/nuclint ./...

# lint-static is the one static-check entry point every CI job shares:
# gofmt cleanliness, go vet, and the repo's nuclint suite.
lint-static: vet lint
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# loc prints non-test, non-blank, non-comment Go lines per package (root,
# cmd/*, internal/* with sub-packages folded in) — the "LOC per package
# before/after" figure ROADMAP item 11 asks every deletion PR to record.
# The tree has no block comments, so a leading // is the whole test.
loc:
	@for d in . cmd/* internal/*; do \
	    depth=; [ $$d = . ] && depth='-maxdepth 1'; \
	    printf '%-24s %6d\n' $$d $$(find $$d $$depth -name '*.go' ! -name '*_test.go' | xargs cat | grep -v -e '^[[:space:]]*$$' -e '^[[:space:]]*//' | wc -l); \
	done

# ci mirrors .github/workflows/ci.yml: static checks, build, tests, race
# detector, and a parallel experiments run that fails on any claim failure
# or any byte of table drift.
ci: lint-static
	$(GO) build ./...
	$(GO) test ./...
	$(MAKE) bench-module
	$(MAKE) examples-smoke
	$(GO) test -race ./...
	$(MAKE) tables-check
	$(GO) run -race ./cmd/experiments -e E1,Q1,Q2 -substrate async
	$(MAKE) explore-smoke
	$(MAKE) obs-smoke
	$(MAKE) e17-smoke
	$(MAKE) aware-smoke
	$(MAKE) serve-smoke
	$(MAKE) trace-smoke

clean:
	$(GO) clean ./...
