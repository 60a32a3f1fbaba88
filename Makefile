.PHONY: all build test check bench wallclock chaos audit attack fleet profile perfdiff journal shards clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe -- quick

# Wall-clock throughput + allocation profile of the simulator itself
# (writes BENCH_wallclock.json; exits non-zero when the ff_write fast
# path blows its minor-allocation budget).
wallclock:
	dune exec bench/main.exe -- wallclock

# $(call gated,NAME,ARGS): run `netrepro ARGS` into /tmp/netrepro-NAME.txt.
# A non-zero exit (a failed gate) prints the report and fails.
define gated
dune exec bin/netrepro.exe -- $(2) > /tmp/netrepro-$(1).txt \
  || { cat /tmp/netrepro-$(1).txt; echo "$(1): run failed its gates"; exit 1; }
endef

# $(call expect,NAME,PATTERN): fail unless /tmp/netrepro-NAME.txt has PATTERN.
define expect
@grep -q "$(2)" /tmp/netrepro-$(1).txt \
  || { echo "$(1): report lacks \"$(2)\""; exit 1; }
endef

# $(call twin_run,NAME,ARGS): a gated run of `netrepro ARGS --json`,
# twice, into /tmp/netrepro-NAME.{1,2}.{txt,json}. The two reports must
# be byte-identical: text (JSON path normalised) and JSON.
define twin_run
for i in 1 2; do \
  $(call gated,$(1).$$i,$(2) --json /tmp/netrepro-$(1).$$i.json); \
  sed 's|/tmp/netrepro-$(1).[12].json|JSON|' /tmp/netrepro-$(1).$$i.txt \
    > /tmp/netrepro-$(1).$$i.norm.txt; \
done
cmp /tmp/netrepro-$(1).1.norm.txt /tmp/netrepro-$(1).2.norm.txt
cmp /tmp/netrepro-$(1).1.json /tmp/netrepro-$(1).2.json
@echo "$(1): report byte-identical across two runs"
endef

# Chaos blast radius: every injected fault recovered or attributed.
chaos:
	$(call gated,chaos,chaos --seed 42 --quick)
	$(call expect,chaos,fault attribution: 100.0%)
	$(call expect,chaos,unrecovered faults: 0)

# Capability provenance audit: zero invariant violations on the stock
# scenarios, verdict PASS (Scenario 2 app surface below Scenario 1's
# replicated stack, seeded cap fault attributed) and a JSON report.
audit:
	rm -f /tmp/netrepro-audit.json
	$(call gated,audit,audit --quick --seed 42 --json /tmp/netrepro-audit.json)
	$(call expect,audit,invariant violations (stock scenarios): 0)
	$(call expect,audit,verdict: PASS)
	test -s /tmp/netrepro-audit.json

# Red-team smoke: the seeded hostile-packet corpus against all three
# scenarios, deterministic, every CHERI-scenario attack caught and
# attributed, containment verdict PASS (baseline leak recorded, sibling
# goodput >= 0.9x, mutex free, pool recovered).
attack:
	$(call twin_run,attack,attack net --seed 42 --quick)
	$(call expect,attack.1,caught-and-attributed (CHERI scenarios): 100.0%)
	$(call expect,attack.1,verdict: PASS)

# Fleet tenancy smoke: the 64-tenant churn observatory, deterministic,
# with all four SLO gates — completion-ratio fairness, FCT p99.9
# budget, 100% drop attribution, telescoping stage decomposition.
fleet:
	$(call twin_run,fleet,fleet --seed 42 --quick)
	$(call expect,fleet.1,verdict: PASS)
	@grep -c "\[PASS\]" /tmp/netrepro-fleet.1.txt | grep -q "^4$$" \
	  || { echo "fleet: expected 4 passing SLO gates"; exit 1; }

# Wall-clock profile of the Fig. 4 run: hotspot table, capacity
# watermarks and backpressure stalls on stdout, flamegraph-ready
# PROFILE_fig4.folded and machine-readable PROFILE_fig4.profile.json
# on disk. Three runs, keeping the per-hotspot median wall time, so
# scheduler noise on a shared host cannot fail the perfdiff gate; the
# run must attribute its wall time.
profile:
	$(call gated,profile,profile fig4 --quick --runs 3)
	@cat /tmp/netrepro-profile.txt
	$(call expect,profile,attributed:)

# Compare the current Fig. 4 profile against the checked-in baseline;
# exits non-zero when any hotspot regressed past 10% (event-count
# drift is deterministic and flags on any machine; wall-time drift is
# gated by noise floors).
perfdiff: profile
	dune exec bin/netrepro.exe -- perfdiff \
	  baseline/fig4.profile.json PROFILE_fig4.profile.json --max-regress 10

# Flight-recorder smoke: record a Fig. 4 journal, replay it (every
# dispatch re-verified against the recording), and jdiff it against
# itself (must report equivalence). Exercises the full record ->
# verify -> diff loop end to end.
journal:
	dune exec bin/netrepro.exe -- fig4 --quick --iterations 300 \
	  --journal /tmp/netrepro-check.journal.jsonl > /dev/null
	dune exec bin/netrepro.exe -- replay /tmp/netrepro-check.journal.jsonl
	dune exec bin/netrepro.exe -- jdiff \
	  /tmp/netrepro-check.journal.jsonl /tmp/netrepro-check.journal.jsonl
	@echo "journal: record/replay/jdiff round-trip OK"

# Sharding smoke: Fig. 4 at --shards 1 must be byte-identical to the
# default run (sharding is opt-in and invisible at one shard), Fig. 4
# at --shards 4 interleaved must also be byte-identical (the shared
# schedule-seq counter makes the dispatch order independent of shard
# placement), and the seeded chaos run at --shards 4 interleaved must
# still attribute every injected fault.
shards:
	dune exec bin/netrepro.exe -- fig4 --quick \
	  > /tmp/netrepro-shards.base.txt
	dune exec bin/netrepro.exe -- fig4 --quick --shards 1 \
	  > /tmp/netrepro-shards.s1.txt
	cmp /tmp/netrepro-shards.base.txt /tmp/netrepro-shards.s1.txt
	@echo "shards: fig4 --shards 1 byte-identical to default"
	dune exec bin/netrepro.exe -- fig4 --quick --shards 4 \
	  > /tmp/netrepro-shards.s4.txt
	cmp /tmp/netrepro-shards.base.txt /tmp/netrepro-shards.s4.txt
	@echo "shards: fig4 --shards 4 interleaved byte-identical to default"
	$(call gated,shards.chaos,chaos --seed 42 --quick --shards 4)
	$(call expect,shards.chaos,fault attribution: 100.0%)

# Full gate: build, unit/property tests, then five smoke runs —
# Table II with metrics enabled must expose the cross-layer instrument
# families in the Prometheus dump, Fig. 5 with flow tracing enabled
# must produce an analyzable trace covering the measurement stages
# and a Chrome trace rendered from it,
# the seeded chaos run must attribute or recover every injected fault,
# the capability audit must find zero invariant violations on the
# stock scenarios and end PASS, the red-team packet corpus and the
# fleet must be deterministic twin runs with every gate holding, the
# wall-clock bench must keep the ff_write
# fast path within its minor-allocation budget (the zero-copy
# regression gate), a recorded Fig. 4 journal must replay clean and
# jdiff equivalent against itself, the sharded runs must match, and the
# profiled Fig. 4 run must attribute its wall time and hold against the
# checked-in perf baseline (last: that wall-time gate is host-bound).
check:
	dune build
	dune runtest
	dune exec bin/netrepro.exe -- table2 --quick --metrics /tmp/netrepro-check.prom > /dev/null
	@for m in trampoline_crossings_total capability_faults_total \
	          dpdk_bursts_total nic_dma_bytes_total \
	          netstack_rx_frames_total syscalls_total; do \
	  grep -q "$$m" /tmp/netrepro-check.prom \
	    || { echo "check: $$m missing from metrics dump"; exit 1; }; \
	  echo "check: $$m present"; \
	done
	dune exec bin/netrepro.exe -- fig5 --quick --iterations 500 \
	  --flow-trace /tmp/netrepro-check.trace.json --sample-every 8 \
	  --trace-json /tmp/netrepro-check.chrome.json > /dev/null
	@for s in traceEvents '"name":"ff_write"'; do \
	  grep -q "$$s" /tmp/netrepro-check.chrome.json \
	    || { echo "check: $$s missing from Chrome trace"; exit 1; }; \
	  echo "check: Chrome trace has $$s"; \
	done
	dune exec bin/netrepro.exe -- analyze /tmp/netrepro-check.trace.json \
	  > /tmp/netrepro-check.analyze.txt
	@for s in tramp_in umtx_wait ff_write clock_ret wire; do \
	  grep -q "$$s" /tmp/netrepro-check.analyze.txt \
	    || { echo "check: stage $$s missing from flow-trace analysis"; exit 1; }; \
	  echo "check: stage $$s present"; \
	done
	$(MAKE) chaos audit attack fleet
	dune exec bench/main.exe -- wallclock quick
	$(MAKE) journal shards perfdiff
	@echo "check: OK"

clean:
	dune clean
