# SwiShmem reproduction — developer entry points.

PYTHON ?= python

.PHONY: install test bench tables examples chaos scrub advisor critpath relevel gate perf perf-selftest perf-same perf-pairs perf-tax obs-split dead-surface all clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate every experiment table from EXPERIMENTS.md on stdout.
tables:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

# Seeded chaos soak (experiment F3): faults + nemesis vs SRO and EWO,
# with invariant monitors and a determinism replay check.
chaos:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_chaos_soak.py --quick

# Anti-entropy scrub-and-repair bench (experiment F5): silent
# divergence under compound chaos, detected and healed online.
scrub:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_scrub_repair.py --quick

# Access-pattern profiler + consistency advisor (experiment T2):
# re-derive Table 1 from live traffic, zero hand labels.
advisor:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_access_advisor.py

# Critical-path tail attribution + live SLOs (experiment T3): why the
# p99 is slow, cause by cause, with a digest-neutrality replay check.
critpath:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_critpath_tails.py

# Runtime re-leveling handoff (experiment T4): advisor-driven SRO→EWO
# demotion on the live deployment, under nemesis + leader kill.
relevel:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_releveling.py

# The sidecar gate: regenerate all eleven gated sidecars (S1 P3 P5 P6 C2
# F3 F4 F5 T2 T3 T4) into a scratch directory and diff them against the
# committed baselines in bench_results/, then the count gate: calls/op
# and events/op of the six perf/ workloads against
# bench_results/PERF_COUNTS.json (tools/check_counts.py; skipped on
# another interpreter version).  A refactor that claims "nothing moves"
# proves it with this one command; CI's bench-json job runs exactly this
# target.
SWISHMEM_BENCH_DIR ?= fresh_bench
gate: export SWISHMEM_BENCH_DIR := $(SWISHMEM_BENCH_DIR)
gate: export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
gate:
	mkdir -p $(SWISHMEM_BENCH_DIR)
	$(PYTHON) benchmarks/bench_simulator_performance.py
	$(PYTHON) benchmarks/bench_ewo_convergence.py
	$(PYTHON) benchmarks/bench_sro_write_throughput.py
	$(PYTHON) benchmarks/bench_dataplane_writes.py
	$(PYTHON) benchmarks/bench_sync_bandwidth.py
	$(PYTHON) benchmarks/bench_chaos_soak.py --quick --seeds 1 \
		--metrics-jsonl $(SWISHMEM_BENCH_DIR)/chaos_metrics.jsonl
	$(PYTHON) benchmarks/bench_controller_failover.py
	$(PYTHON) benchmarks/bench_scrub_repair.py --quick --seeds 1 2 3
	$(PYTHON) benchmarks/bench_access_advisor.py
	$(PYTHON) benchmarks/bench_critpath_tails.py
	$(PYTHON) benchmarks/bench_releveling.py
	$(PYTHON) tools/check_bench.py --fresh $(SWISHMEM_BENCH_DIR)
	$(PYTHON) tools/check_counts.py

# The frozen two-clock benchmark (perf/README.md): all six workloads,
# host throughput + sim-time latencies; compare two runs with
# `python3 perf/compare.py A.json B.json`.
perf:
	python3 perf/run.py --workload all --out perf/out/latest.json

# ~20 s: every workload at 1/20 scale with its invariants asserted.
perf-selftest:
	python3 perf/run.py --selftest

# Before perf-pairs (~4 min against ~25): does the change simulate the same
# thing?  Each checkout's own perf/worker.py once per workload at seeds 11
# and 23 — sim_digest, sim metrics, ledger, attempted and delivered must be
# bit-identical and every run correct — plus calls/op and events/op side by
# side at seed 11.  Exits 1 on any difference.  MOVED names workloads the
# change moves by design (tools/perf_same.py --moved, space-separated):
# their differences print as a table, and they fail only on an incorrect
# run, a failed operation or an end-to-end sim metric worse than the
# parent's by BENCHMARK.json's "better"; every other workload must match.
#   make perf-same PARENT=../parent-checkout [MOVED=ewo_sketch]
MOVED ?=
perf-same:
	@test -n "$(PARENT)" || { echo "usage: make perf-same PARENT=<checkout of the parent commit> [MOVED=<workload ...>]"; exit 2; }
	python3 tools/perf_same.py $(PARENT) . $(foreach w,$(MOVED),--moved $(w))

# How a claimed gain is judged: alternating pairs of each checkout's own
# perf/run.py, per-pair winners, medians, quartiles and the verdict
# (>= 9/10 pairs and a median gap beyond the parent's IQR) per metric.
#   make perf-pairs PARENT=/root/scratch/parent WORKLOAD=ewo_sketch
PARENT ?=
WORKLOAD ?= nf_mix
PAIRS ?= 10
SEED ?= 11
perf-pairs:
	@test -n "$(PARENT)" || { echo "usage: make perf-pairs PARENT=<checkout of the parent commit> [WORKLOAD=nf_mix] [PAIRS=10] [SEED=11]"; exit 2; }
	python3 tools/perf_pairs.py $(PARENT) . --workload $(WORKLOAD) --pairs $(PAIRS) --seed $(SEED)

# The observability tax (ROADMAP item 8(a)) as one judged row: nf_mix_obs
# and nf_mix run back to back on each side of each pair, and
# ops_per_host_s(nf_mix_obs) / ops_per_host_s(nf_mix) per checkout goes
# through the same verdict.
#   make perf-tax PARENT=/root/scratch/parent
perf-tax:
	@test -n "$(PARENT)" || { echo "usage: make perf-tax PARENT=<checkout of the parent commit> [PAIRS=10] [SEED=11]"; exit 2; }
	python3 tools/perf_pairs.py $(PARENT) . --workload nf_mix_obs --relative-to nf_mix --pairs $(PAIRS) --seed $(SEED)

# The observability tax split by sink (~2 min): nf_mix_obs with no sink,
# each of the four sinks alone and all four, one fresh process per run;
# calls/op, calibrated run seconds and peak_rss_mb (medians of 3 runs),
# each sink's share of the watched run's seconds and bytes per recorded
# span (tools/obs_split.py).
obs-split:
	python3 tools/obs_split.py --seed $(SEED)

# The dead-surface gate (~8 min): every function of src/repro is reached
# by a driver (benchmark, `make gate`, example, full-scale perf/ workload)
# or is a line of tools/dead_surface_allow.txt with its reason; fails on an
# unlisted function and on a stale allow line.  CI's dead-surface job.
dead-surface:
	$(PYTHON) tools/dead_surface.py

# The two artifacts EXPERIMENTS.md points reviewers at.
all:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
