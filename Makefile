# Convenience targets; everything is plain dune underneath.

.PHONY: all check build test bench perf perf-smoke perf-gate perf-gate-selftest perf-reference trace-smoke report-smoke chaos-smoke mc-smoke vm-smoke cache-smoke rpc-smoke locks-smoke smoke-all clean

all: build

build:
	dune build

test:
	dune runtest

# The tier-1 gate: build everything, run every test suite.
check:
	dune build
	dune runtest

bench:
	dune exec bench/main.exe

# Perf regression harness: engine steps/sec + domain-parallel sweep
# speedup, written to BENCH_sim_perf.json.
perf:
	dune exec bench/perf.exe

# Reduced-size variant for CI: same scenarios, fewer repeats/seeds.
perf-smoke:
	dune exec bench/perf.exe -- --fast

# Perf-regression gate: re-measure engine throughput (engine-only, fast)
# and fail if engine.vs_baseline drops below 0.9x the committed
# reference (bench/perf_reference.json).
# Full repeats even in CI: the gated statistic is best-of-N steps/sec
# (noise only slows a run), and --engine-only keeps 10 repeats ~2s —
# best-of-3 under --fast was inside the noise floor of the 3% check.
perf-gate:
	dune exec bench/perf.exe -- --engine-only
	dune exec bench/perf_gate.exe

# Prove the gate trips: inject a 2x slowdown into the measured values and
# require exit code 1 (a gate that cannot fail gates nothing).  Every
# row the gate lists (--list-rows) is additionally injected on its own
# so a row the gate silently stopped reading cannot pass the selftest.
# The injection goes into the committed measurement (BENCH_sim_perf.json
# as of HEAD), not into the file `make perf-gate` has just rewritten: a
# host-time row measured in a fast window can stay above its floor when
# halved, so a fresh measurement would make the selftest fail on noise.
PERF_COMMITTED = /tmp/perf-gate-committed.json

perf-gate-selftest:
	git show HEAD:BENCH_sim_perf.json > $(PERF_COMMITTED)
	dune exec bench/perf_gate.exe -- --perf $(PERF_COMMITTED) --inject-slowdown; \
		test $$? -eq 1
	for row in $$(dune exec bench/perf_gate.exe -- --list-rows); do \
		dune exec bench/perf_gate.exe -- --perf $(PERF_COMMITTED) --inject-row $$row; \
		test $$? -eq 1 || { echo "row $$row did not trip"; exit 1; }; \
	done
	@echo "perf-gate-selftest passed (gate trips on injected 2x slowdown, every row)"

# Regenerate the committed gate reference after an INTENTIONAL perf
# change: run the full engine measurement, then edit
# bench/perf_reference.json's engine.vs_baseline to the new value
# (rounded down to absorb runner jitter).  After an intentional change
# to the simulated timing model, also copy the vm, cache and rpc
# makespans (vm.coarse_makespan -> vm.exact_coarse_makespan, and so on
# for every exact_* field) from BENCH_sim_perf.json: they are exact, so
# any other move of them is a regression.
perf-reference:
	dune exec bench/perf.exe -- --engine-only
	@echo "update bench/perf_reference.json from BENCH_sim_perf.json's engine.vs_baseline"
	@echo "and, after a timing-model change, each exact_* field from the makespan it names"

# Run the shootdown scenario with tracing, export Chrome trace-event
# JSON, and verify it parses and contains the shootdown events (machsim
# re-reads and validates its own output; the greps double-check from the
# outside).  The text trace names events as the export does and ends
# with the overflow accounting.
trace-smoke:
	dune exec bin/machsim.exe -- trace shootdown --cpus 4 --out /tmp/machsim-trace.json \
		| grep "trace JSON ok"
	grep -q "Tlb_shootdown_start" /tmp/machsim-trace.json
	grep -q "Tlb_shootdown_done" /tmp/machsim-trace.json
	grep -q "Span_close" /tmp/machsim-trace.json
	grep -q '"span:' /tmp/machsim-trace.json
	dune exec bin/machsim.exe -- trace shootdown --cpus 4 > /tmp/machsim-trace.txt
	grep -q "Tlb_shootdown_start" /tmp/machsim-trace.txt
	grep -q "^drops: overflow spans=" /tmp/machsim-trace.txt
	@echo "trace-smoke passed"

# Causal-observability smoke: the report subcommand must attribute the
# contention workload's critical path to the contended lock class and
# print the blocked-by table, a chaos-detected hang must carry the
# flight-recorder dump (closed-span tails + each thread's still-open
# spans — the section 7 cycle's evidence), the profile of the section 7
# same-spl deadlock must name it from the learned lock order (the
# handler's self-loop on the lock) and the same-spl finding, and a plain
# run of the section 7 interrupt deadlock, in the default configuration,
# must name its waits-for cycle.
report-smoke:
	dune exec bin/machsim.exe -- report contention --cpus 16 \
		| tee /tmp/machsim-report.out
	grep -q "blocked-by edges" /tmp/machsim-report.out
	grep -q "dominant: contended" /tmp/machsim-report.out
	grep -q "flight recorder" /tmp/machsim-report.out
	dune exec bin/machsim.exe -- chaos --seeds 5 > /tmp/machsim-chaos-flight.out
	grep -q "open spans at the hang" /tmp/machsim-chaos-flight.out
	grep -q "lock:the-lock" /tmp/machsim-chaos-flight.out
	dune exec bin/machsim.exe -- profile same-spl-buggy --cpus 2 > /tmp/machsim-order.out; \
		test $$? -eq 1
	grep -q "order cycle: vm-lock -> vm-lock (holder held vm-lock" /tmp/machsim-order.out
	grep -q "simple lock vm-lock: acquired at splvm but pinned/first acquired at spl0" \
		/tmp/machsim-order.out
	dune exec bin/machsim.exe -- run interrupt-deadlock --cpus 3 > /tmp/machsim-cycle.out; \
		test $$? -eq 1
	grep -q "waits-for cycle" /tmp/machsim-cycle.out
	@echo "report-smoke passed"

# Regenerate a committed BENCH file with one bench experiment and fail,
# with a diff, if it moved, or if the experiment's section of
# BENCH_observability.json moved (the run keeps every other section):
# their deterministic fields pin the experiment.  $(1) is the file, $(2)
# the experiment id; the run's output is left in /tmp/bench-$(2).out.
define bench_regen_check
	cp $(1) /tmp/$(1).committed
	cp BENCH_observability.json /tmp/BENCH_observability.json.committed
	dune exec bench/main.exe -- $(2) | tee /tmp/bench-$(2).out
	grep -q "All requested experiments completed" /tmp/bench-$(2).out
	cmp -s /tmp/$(1).committed $(1) || { diff /tmp/$(1).committed $(1); exit 1; }
	cmp -s /tmp/BENCH_observability.json.committed BENCH_observability.json \
		|| { echo "BENCH_observability.json: the $(2) section moved"; exit 1; }
endef

# Fault-injection smoke: reproduce and detect the section 7 interrupt
# deadlock (waits-for cycle) and the section 6 lost wakeup (orphaned
# waiter) under seeded injection, then regenerate the E13 detection
# table and check it is unchanged.  The greps verify the detector
# actually named each hazard.
chaos-smoke:
	dune exec bin/machsim.exe -- chaos --seeds 10 | tee /tmp/machsim-chaos.out
	grep -q "waits-for cycle" /tmp/machsim-chaos.out
	grep -q "never arrived" /tmp/machsim-chaos.out
	grep -q "lost handoff" /tmp/machsim-chaos.out
	grep -q "scache lost writer handoff" /tmp/machsim-chaos.out
	$(call bench_regen_check,BENCH_chaos.json,E13)
	@echo "chaos-smoke passed"

# Model-checking smoke (<60s on one core): exhaustively verify the
# section 7 same-spl rule, find the section 7 deadlocks WITHOUT fault
# injection (two-cpu handler-vs-holder and the three-processor barrier
# cycle), then regenerate the E14 exploration table.  Exit codes: mc
# returns 0 verified / 1 failure found / 2 incomplete.  The seeded
# same-spl-buggy sweep must print the same verdict on one domain and on
# two: a switch one domain's run (or its teardown) flips must not reach
# another domain's runs.
mc-smoke:
	dune exec bin/machsim.exe -- mc same-spl --no-baseline | grep -q "VERIFIED"
	dune exec bin/machsim.exe -- mc same-spl-buggy --no-baseline > /tmp/machsim-mc.out; \
		test $$? -eq 1
	grep -q "0 preemption" /tmp/machsim-mc.out
	dune exec bin/machsim.exe -- mc interrupt-deadlock --cpus 3 --no-baseline \
		| grep -q "waits-for cycle"
	dune exec bin/machsim.exe -- explore same-spl-buggy --cpus 2 --seeds 200 \
		--domains 1 > /tmp/machsim-explore-1.out; test $$? -eq 1
	dune exec bin/machsim.exe -- explore same-spl-buggy --cpus 2 --seeds 200 \
		--domains 2 > /tmp/machsim-explore-2.out; test $$? -eq 1
	cmp /tmp/machsim-explore-1.out /tmp/machsim-explore-2.out
	dune exec bench/main.exe -- E14
	test -f BENCH_mc.json
	@echo "mc-smoke passed"

# Range-lock smoke (<60s): model-check the 2-cpu range matrix (an
# overlapping pair serializes on every schedule, a disjoint pair
# completes on every schedule), prove the ABBA deadlock report names
# the exact ranges, then regenerate the E16 storm sweep and check it is
# unchanged.
vm-smoke:
	dune exec bin/machsim.exe -- mc range-overlap --cpus 2 --no-baseline | grep -q "VERIFIED"
	dune exec bin/machsim.exe -- mc range-disjoint --cpus 2 --no-baseline | grep -q "VERIFIED"
	dune exec bin/machsim.exe -- report range-deadlock | grep -q "range lock abba.range"
	$(call bench_regen_check,BENCH_vm.json,E16)
	@echo "vm-smoke passed"

# Page-cache smoke (<90s): model-check the scache handoff matrix — the
# 2-cpu cells (reader-vs-writer and writer-vs-writer serialize on every
# schedule, two readers overlap on some schedule) plus the 3-cpu
# two-readers-vs-one-writer cell — reproduce the lost writer handoff
# under drop-handoff injection, then regenerate the E19 read-mostly
# lookup sweep and check it is unchanged.
cache-smoke:
	dune exec bin/machsim.exe -- mc scache-rw --cpus 2 --no-baseline | grep -q "VERIFIED"
	dune exec bin/machsim.exe -- mc scache-ww --cpus 2 --no-baseline | grep -q "VERIFIED"
	dune exec bin/machsim.exe -- mc scache-rr --cpus 2 --no-baseline | grep -q "VERIFIED"
	dune exec bin/machsim.exe -- mc scache-rrw --cpus 3 --no-baseline | grep -q "VERIFIED"
	dune exec bin/machsim.exe -- chaos --seeds 10 | grep -q "scache lost writer handoff"
	$(call bench_regen_check,BENCH_cache.json,E19)
	@echo "cache-smoke passed"

# RPC-serving smoke (<60s): regenerate the full E20 sweep (2-64 cpus,
# all four configs, the sustained and drain legs) and check it is
# unchanged; it must sustain a nonzero RPCs/sec, record zero refcount
# panics, and drain cleanly on shutdown under load.
rpc-smoke:
	$(call bench_regen_check,BENCH_rpc.json,E20)
	grep -qE "sustained: [0-9]+ RPCs in [0-9]+ cycles = [1-9][0-9]* RPCs/sec" /tmp/bench-E20.out
	grep -q "refcount panics: 0" /tmp/bench-E20.out
	grep -q "shutdown drain: clean" /tmp/bench-E20.out
	@echo "rpc-smoke passed"

# Lock-protocol smoke (~40s): regenerate the E15 protocol sweep (the
# section 2 family and the queue locks, 2-64 cpus, plus the read-mostly
# rows) and check BENCH_locks.json is unchanged, then the E12 lock-order
# sweep, whose backout rows run the library's section 5 protocol.  E12
# writes no BENCH file of its own: its BENCH_observability.json section
# (per-class acquisitions, contention and wait cycles) pins it.
locks-smoke:
	$(call bench_regen_check,BENCH_locks.json,E15)
	$(call bench_regen_check,BENCH_observability.json,E12)
	@echo "locks-smoke passed"

# Every *-smoke target, so a local `make smoke-all` runs exactly what CI
# runs.  Each smoke's log goes to /tmp/smoke-<target>.log; a pass/fail
# table is printed and, when $GITHUB_STEP_SUMMARY is set (CI), appended
# to the job's step summary.  Exits nonzero if any smoke failed.
SMOKE_TARGETS = trace-smoke report-smoke chaos-smoke mc-smoke vm-smoke cache-smoke rpc-smoke locks-smoke perf-smoke

smoke-all:
	@status=0; summary=/tmp/smoke-summary.md; \
	printf "| smoke | result |\n|---|---|\n" > $$summary; \
	for t in $(SMOKE_TARGETS); do \
		if $(MAKE) --no-print-directory $$t > /tmp/smoke-$$t.log 2>&1; \
		then r=pass; else r=FAIL; status=1; fi; \
		printf "%-14s %s\n" "$$t" "$$r"; \
		printf "| %s | %s |\n" "$$t" "$$r" >> $$summary; \
		if [ "$$r" = FAIL ]; then \
			echo "--- $$t log tail ---"; tail -40 /tmp/smoke-$$t.log; \
		fi; \
	done; \
	if [ -n "$$GITHUB_STEP_SUMMARY" ]; then \
		{ printf "### Smoke results\n\n"; cat $$summary; printf "\n"; } \
			>> "$$GITHUB_STEP_SUMMARY"; \
	fi; \
	test $$status -eq 0
	@echo "smoke-all passed"

clean:
	dune clean
