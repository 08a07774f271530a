# Convenience targets; everything is plain pytest underneath.

.PHONY: install test test-fast check bench bench-quick perf-smoke perf-pair perf-gate chaos-quick examples experiments clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

test-fast:
	pytest tests/ -m "not slow"

# Static-analysis gate: determinism (DET1xx call sites + DET2xx RNG
# dataflow), layering (LAY) and stale suppressions (SUP) over
# src/repro, stdlib-only — 12 rules.  Exit 1 on findings;
# the JSON report is the CI artifact (CI also asserts it counts zero
# suppressions).  See docs/static-analysis.md for the rule catalogue
# and suppression syntax.
check:
	PYTHONPATH=src python -m repro check --json check-report.json

# The paper's claims, regenerated and asserted (tables and figures on
# stdout; FIG-FAULT rewrites BENCH_faults.json).  Times nothing.
bench:
	pytest benchmarks/ -s

# Fast engine sanity sweep (correctness and observability, no stopwatch:
# speeds are perfbench's job, see perf-pair / perf-gate below).  The
# first line runs the error sweep on a 2-worker pool (clamped to the
# CPUs present) on the vector backend — exit 2 if a supported spec falls
# back to the object simulator — then again under AdaptiveRunner
# (early-stopping verdicts checked against the fixed run), with
# telemetry streamed to bench-telemetry/telemetry.jsonl and
# cross-checked against wall time, the repro-metrics/1 artifact and
# per-chunk profiles all collected from that one run.  The second line
# is the real-backend smoke: one tiny threshold-RSA sweep (small
# modulus) exercising pre-dealt key broadcast end to end; the third
# runs the paper-claims suite, which rewrites BENCH_faults.json (CI
# then fails if it differs from the committed file).  `check` runs
# first: numbers from a tree that violates the determinism rules are
# not comparable run to run, so don't produce them.  The final step
# fuses the artifacts into bench-report.md via `repro report --check`,
# which exits 2 if any artifact fails its schema gate or the telemetry
# spans are inconsistent.
bench-quick: check
	PYTHONPATH=src python -m repro error-sweep --protocol both \
		--kappas 1,2 --trials 40 \
		--workers 2 --adaptive --vector \
		--telemetry bench-telemetry --metrics bench-metrics.json \
		--profile bench-profile
	PYTHONPATH=src python -m repro error-sweep --backend real --rsa-bits 64 \
		--kappas 1 --trials 3 --protocol one_third --workers 2
	PYTHONPATH=src pytest benchmarks/ -q
	PYTHONPATH=src python -m repro report --metrics bench-metrics.json \
		--telemetry bench-telemetry \
		--profile bench-profile --check --out bench-report.md

# The reference benchmark's <30 s self-test: all four workloads, the
# per-layer trace, output checks and harness self-checks (see
# perfbench/README.md; BENCHMARK.json declares what the driver measures).
perf-smoke:
	PYTHONPATH=src python -m perfbench run --smoke

# Before/after on perfbench workloads: REF in one temporary worktree
# against the working tree, PAIRS alternating pairs, a fresh seed each
# (`make perf-pair REF=HEAD~1 WORKLOAD=object-sweep`; WORKLOAD also takes
# a comma-separated list or `all`, and prints one row per workload x
# metric at the end).  A gain needs the tree to win nine tenths of the
# pairs and the medians to differ by more than the distance between
# REF's quartiles.
perf-pair:
	scripts/perf_pair.sh $${REF:?set REF} $${WORKLOAD:?set WORKLOAD} $${PAIRS:-10}

# The perf-regression gate: three pairs of every workload against REF
# (CI passes the PR's base commit) — the three sweeps (object, vector,
# and observed: the vector path with metrics and telemetry on, the only
# one that defends the obs layer) and pooled-campaign, the only workload
# that runs the pool, the fault layer and threshold RSA.  perf_pair.sh
# exits 1, naming each `REGRESSION <workload> <metric> x<ratio>`, when
# the tree's median is worse than REF's by more than the metric's bound
# in BENCHMARK.json and the tree lost every pair, and naming each
# `DIGEST <workload> pair N <ref> != <tree>` when the two sides of a pair
# (same workload, same seed) report different `result_digest`s.
perf-gate:
	scripts/perf_pair.sh $${REF:?set REF} vector-sweep,observed-sweep,object-sweep,pooled-campaign 3

# Bounded chaos pass: hypothesis-drawn Byzantine schedules and network
# fault plans at a few examples per property (the full depth runs in
# `make test`).  REPRO_CHAOS_EXAMPLES overrides the bound.
chaos-quick:
	REPRO_CHAOS_EXAMPLES=$${REPRO_CHAOS_EXAMPLES:-10} PYTHONPATH=src \
		pytest tests/chaos/ -q

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

# Regenerate the captured outputs referenced by EXPERIMENTS.md.
experiments:
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ -s 2>&1 | tee bench_output.txt

clean:
	rm -rf .pytest_cache src/repro.egg-info bench-telemetry bench-profile
	rm -f bench-metrics.json bench-report.md
	find . -name __pycache__ -type d -exec rm -rf {} +
