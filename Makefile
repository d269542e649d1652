# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short bench-module race bench experiments experiments-full tables-check counts counts-check trajectory substrate-smoke examples-smoke serve-smoke trace-smoke fuzz fmt vet lint lint-static loc ci clean

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

# counts pins the sim workloads' exact counts the way tables-check pins the
# tables: bench/run.sh runs sim_steady (seeds 7 and 23) and sim_crash (seed
# 7) at --seconds 0, which is exactly three executions, in both passes
# (--trace 0 prints the end-to-end rows, --trace 1 the per-layer ones), and
# the rows named in COUNT_ROWS go to testdata/counts.sim.txt. The list is
# explicit because several of bench's sim rows are wall time. A PR that
# moves a count regenerates the file with `make counts` and the diff is its
# claim; counts-check fails on any byte of drift.
COUNT_ROWS = steps_per_slot bytes_per_slot sim_cmds_per_kstep crash_stall_steps fail_frac \
	serve.noop_slot_frac serve.cmds_per_slot serve.dup_batch_frac rsm.steps_per_slot \
	rsm.parked_per_kslot rsm.delta_hit_frac consensus.msgs_per_slot \
	consensus.single_shot_steps consensus.single_shot_msgs fd.epochs_per_kslot wire.bytes_per_slot
COUNTS_OUT ?= testdata/counts.sim.txt

counts:
	mkdir -p $(ARTIFACTS)
	rm -f $(ARTIFACTS)/counts.jsonl
	@for run in sim_steady:7 sim_steady:23 sim_crash:7; do \
	    for trace in 0 1; do \
	        bash bench/run.sh --workload $${run%%:*} --seed $${run##*:} --seconds 0 --trace $$trace \
	            > $(ARTIFACTS)/counts.run.txt || { cat $(ARTIFACTS)/counts.run.txt; exit 1; }; \
	        printf '%s %s ' $${run%%:*} $${run##*:} >> $(ARTIFACTS)/counts.jsonl; \
	        tail -n 1 $(ARTIFACTS)/counts.run.txt >> $(ARTIFACTS)/counts.jsonl; \
	    done; \
	done
	python3 -c "import json, sys; \
	rows, names, out = {}, sys.argv[1].split(), open(sys.argv[2], 'w'); \
	lines = [l.split(' ', 2) for l in open('$(ARTIFACTS)/counts.jsonl')]; \
	[rows.setdefault((w, int(s)), {}).update(json.loads(j)['metrics']) for w, s, j in lines]; \
	[out.write('%-10s %3d  %-28s %.9g\\n' % (w, s, k, rows[w, s][k]['value'])) for w, s in rows for k in names]" \
	    "$(COUNT_ROWS)" $(COUNTS_OUT)
	@echo "counts: wrote $(COUNTS_OUT)"

counts-check:
	$(MAKE) counts COUNTS_OUT=$(ARTIFACTS)/counts.sim.txt
	diff testdata/counts.sim.txt $(ARTIFACTS)/counts.sim.txt
	@echo "counts: sim counts byte-identical to testdata/counts.sim.txt"

# trajectory is the served benchmark's record (cmd/trajectory): it builds
# BASE from `git archive` into a temp dir, runs bench/run.sh in PAIRS
# alternating pairs on BASE and on the work tree plus two traced passes
# each (base, change, change, base), and appends a row per metric to
# testdata/trajectory.tsv — every end-to-end metric from the pairs and every
# per-layer one from the traced passes, with both sides' median and
# quartiles, the change's wins and bench's host line. A perf
# change's claim is its rows. Nothing here gates a wall-clock number:
# `go test ./cmd/trajectory` checks the file's format only.
BASE ?= HEAD~1
WORKLOAD ?= steady_mix
SEED ?= 1
PAIRS ?= 10
SECONDS ?= 24
TRAJECTORY_OUT ?= testdata/trajectory.tsv

trajectory:
	$(GO) run ./cmd/trajectory -base $(BASE) -workload $(WORKLOAD) -seed $(SEED) -pairs $(PAIRS) \
	    -seconds $(SECONDS) -out $(TRAJECTORY_OUT)

# substrate-smoke runs a small portable slice on the concurrent goroutine
# substrate under the race detector — the CI cross-substrate check.
substrate-smoke:
	$(GO) run -race ./cmd/experiments -e E1,Q1,Q2,E18 -substrate async

# serve-smoke runs the serving layer for real: a 3-node cmd/nucd cluster
# over loopback TCP serves a short cmd/nucload run (writes + plain and
# read-index reads), both sides dump their metrics registries as JSONL
# (the CI artifact), and the dumps must actually carry the serving-path
# instruments — among them the frontier announcements and the batch bodies,
# of which no more may leave bare than ride other traffic, and the held
# round-1 LEADs, of which no more may be released than were held (the
# leader announcements are printed). A process steps
# because something arrived, not at CPU speed: nucd's steps per log entry
# applied (its done line's steps= over node 0's applied=) must stay within
# SMOKE_STEPS_PER_SLOT_CAP — 5.6–6.1 here now that a take joins its
# sender's pending run and a process holds its sends over the backlog it
# found (substrate.takes_merged and sends_merged, printed), 6.5–6.9 before
# that with a slot starting round 1 in the step that opens it, 7.6–7.9
# before that with RunCluster skipping
# the λ-steps the replica says are stutters (substrate.idle_skips, printed with
# the wait counters), about 14 with the wait on the inbox alone, 74–79 with
# the spin it replaced. Its peer bytes per log entry applied (the done
# line's bytes_sent= over node 0's applied=) must stay within
# SMOKE_BYTES_PER_ENTRY_CAP: the ratio carries the run's batch bodies, so
# it swings with how many no-op slots a run decides — 41–82 over twelve
# runs with every slot item announcing its sender's frontier, 51–92 before
# (≈ 45 and ≈ 53 at ≈ 420 entries) — and the cap, 110, catches a gross
# regression only: a link whose frames stopped inheriting from the frames
# before them read 60–93 on a scratch copy. The sim counts code every
# message as a fresh link, so this is the one gate on the link's run.
# nucd itself
# fails the target if the replicas' machines diverge or the step budget
# runs out; nucload fails it if any write goes unacked. (E18's sim-substrate metrics determinism is
# TestEventsByteIdenticalAcrossParallel in cmd/experiments.)
SMOKE_STEPS_PER_SLOT_CAP = 10
SMOKE_BYTES_PER_ENTRY_CAP = 110

serve-smoke:
	mkdir -p $(ARTIFACTS)
	$(GO) build -o nucd.smoke ./cmd/nucd
	$(GO) build -o nucload.smoke ./cmd/nucload
	rm -f $(ARTIFACTS)/serve-smoke.addrs
	./nucd.smoke -n 3 -ops 300 -batch 8 -addr-file $(ARTIFACTS)/serve-smoke.addrs \
	    -metrics $(ARTIFACTS)/nucd.metrics.jsonl > $(ARTIFACTS)/nucd.out & \
	pid=$$!; \
	./nucload.smoke -addr-file $(ARTIFACTS)/serve-smoke.addrs -ops 300 -clients 4 -window 4 \
	    -read-frac 0.3 -timeout 60s -metrics $(ARTIFACTS)/nucload.metrics.jsonl \
	    || { kill $$pid 2>/dev/null; cat $(ARTIFACTS)/nucd.out; exit 1; }; \
	wait $$pid; st=$$?; cat $(ARTIFACTS)/nucd.out; exit $$st
	grep -q '"name":"serve.apply.commands"' $(ARTIFACTS)/nucd.metrics.jsonl
	grep -q '"name":"load.write_us"' $(ARTIFACTS)/nucload.metrics.jsonl
	python3 -c "import json; \
	m = {r['name']: r['value'] for r in map(json.loads, open('$(ARTIFACTS)/nucd.metrics.jsonl'))}; \
	carried, implied, bare = m['rsm.progress_carried'], m['rsm.progress_implied'], m['rsm.progress_bare']; \
	assert bare <= carried + implied, (carried, implied, bare); \
	print('progress: %d announcements carried, %d implied by slot items, %d bare' % (carried, implied, bare)); \
	carried, bare = m['rsm.owed_carried'], m['rsm.owed_bare']; \
	assert bare <= carried, (carried, bare); \
	print('bodies: %d carried, %d bare' % (carried, bare)); \
	lent, released = m['rsm.lead_lent'], m['rsm.lead_released']; \
	assert released <= lent, (lent, released); \
	print('round-1 LEADs: %d held, %d released' % (lent, released)); \
	print('leaders: %d announcements carried, %d bare' % (m['rsm.follow_carried'], m['rsm.follow_bare'])); \
	print('waits: %d woken, %d timed out; %d idle λ-steps skipped' % (m['substrate.waits_woken'], m['substrate.waits_timed_out'], m['substrate.idle_skips'])); \
	print('link runs: %d messages joined into earlier takes, %d sends into held ones' % (m['substrate.takes_merged'], m['substrate.sends_merged']))"
	python3 -c "import re; \
	out = open('$(ARTIFACTS)/nucd.out').read(); \
	steps = int(re.search(r'^done decided=\S+ steps=(\d+)', out, re.M).group(1)); \
	applied = int(re.search(r'^node=0 applied=(\d+)', out, re.M).group(1)); \
	print('steps: %d over %d log entries, %.1f per entry (cap $(SMOKE_STEPS_PER_SLOT_CAP))' % (steps, applied, steps / applied)); \
	assert steps <= $(SMOKE_STEPS_PER_SLOT_CAP) * applied, 'idle processes are spinning'; \
	sent = int(re.search(r'^done decided=.* bytes_sent=(\d+)', out, re.M).group(1)); \
	print('bytes: %d over %d log entries, %.1f per entry (cap $(SMOKE_BYTES_PER_ENTRY_CAP))' % (sent, applied, sent / applied)); \
	assert sent <= $(SMOKE_BYTES_PER_ENTRY_CAP) * applied, 'peer frames grew'"
	@rm -f nucd.smoke nucload.smoke
	@echo "serve: nucd+nucload TCP run clean"

# trace-smoke is the end-to-end tracing gate: a 3-node cmd/nucd cluster
# with -trace and the telemetry listener serves a traced cmd/nucload run;
# /metrics, /healthz, /statusz, /debug/pprof/, its heap profile and a 1 s
# CPU profile are scraped over HTTP from the live daemon (the Prometheus
# rendering must carry the span counter and the quiet gate's held /
# released books, the status report the applier frontiers and the ingress
# queue depths, both profiles the gzip magic); then cmd/nuctrace joins the two
# span streams and -check demands a complete ingress→batch→decide→apply→
# reply chain, telescoping exactly to the end-to-end latency, for 100% of
# acked requests. The per-stage report is kept as
# $(ARTIFACTS)/trace-smoke.report.txt; the Chrome export must parse as JSON.
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
	assert b'frontier' in status and b'live_instances' in status and b'quiet_instances' in status and b'"aware"' in status and b'"ingress_len"' in status, status[:400]; \
	assert urllib.request.urlopen('http://%s/debug/pprof/' % addr).status == 200; \
	heap = urllib.request.urlopen('http://%s/debug/pprof/heap' % addr).read(); \
	assert heap[:2] == b'\x1f\x8b', heap[:40]; \
	cpu = urllib.request.urlopen('http://%s/debug/pprof/profile?seconds=1' % addr).read(); \
	assert cpu[:2] == b'\x1f\x8b', cpu[:40]; \
	print('live scrape ok: /metrics /healthz /statusz /debug/pprof/ heap profile')" \
	    || { kill $$pid 2>/dev/null; exit 1; }; \
	./nucload.smoke -addr-file $(ARTIFACTS)/trace-smoke.addrs -ops 200 -clients 4 -window 4 \
	    -timeout 60s -trace $(ARTIFACTS)/nucload.trace.jsonl \
	    || { kill $$pid 2>/dev/null; exit 1; }; \
	wait $$pid
	./nuctrace.smoke -check -chrome $(ARTIFACTS)/trace-smoke.chrome.json \
	    $(ARTIFACTS)/nucd.trace.jsonl $(ARTIFACTS)/nucload.trace.jsonl \
	    > $(ARTIFACTS)/trace-smoke.report.txt; \
	st=$$?; cat $(ARTIFACTS)/trace-smoke.report.txt; exit $$st
	python3 -m json.tool $(ARTIFACTS)/trace-smoke.chrome.json > /dev/null
	@rm -f nucd.smoke nucload.smoke nuctrace.smoke
	@echo "trace: every acked request reconstructs a complete, telescoping span chain"

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

# fuzz runs each wire and link fuzzer for FUZZTIME (CI's fuzz-smoke job
# and `make ci` pass 15s).
FUZZTIME ?= 30s

fuzz:
	$(GO) test ./internal/wire -fuzz FuzzDecodePayload -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -fuzz FuzzDecodeMessage -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -fuzz FuzzDecodeLink -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netrun -fuzz FuzzReadLink -fuzztime $(FUZZTIME)

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# lint runs the repo's own go/analysis suite (all three analyzers; see
# `go run ./cmd/nuclint -list`, and `-only a,b` to run a subset).
lint:
	$(GO) run ./cmd/nuclint ./...

# lint-static is the one static-check entry point every CI job shares:
# gofmt cleanliness, go vet, and the repo's nuclint suite.
lint-static: vet lint
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# loc prints non-test, non-blank, non-comment Go lines per package (root,
# cmd/*, internal/* with sub-packages folded in; testdata fixtures are not
# code and are left out) and their total — the "LOC per package
# before/after" figure every deletion PR records.
# The tree has no block comments, so a leading // is the whole test.
loc:
	@total=0; for d in . cmd/* internal/*; do \
	    depth=; [ $$d = . ] && depth='-maxdepth 1'; \
	    n=$$(find $$d $$depth -name '*.go' ! -name '*_test.go' -not -path '*/testdata/*' | xargs cat | grep -v -e '^[[:space:]]*$$' -e '^[[:space:]]*//' | wc -l); \
	    printf '%-24s %6d\n' $$d $$n; total=$$((total + n)); \
	done; printf '%-24s %6d\n' total $$total

# ci mirrors .github/workflows/ci.yml (its header maps each job to these
# lines; only the obs job's exports are left out): static checks, build,
# tests, race detector, a parallel experiments run that fails on any claim
# failure or any byte of table drift, the full-scale E16 model check, the
# smokes and the fuzz smoke.
ci: lint-static
	$(GO) build ./...
	$(GO) test ./...
	$(MAKE) bench-module
	$(MAKE) examples-smoke
	$(GO) test -race ./...
	$(MAKE) tables-check
	$(MAKE) counts-check
	$(MAKE) substrate-smoke
	$(GO) run ./cmd/experiments -full -e E16 -parallel 2 -json $(ARTIFACTS)/explore.json -o $(ARTIFACTS)/explore.tables.md > /dev/null
	$(MAKE) serve-smoke
	$(MAKE) trace-smoke
	$(MAKE) fuzz FUZZTIME=15s

clean:
	$(GO) clean ./...
