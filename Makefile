PYTHON ?= python
PYTHONPATH := src

.PHONY: test test-no-numpy test-mpp test-verify bench bench-e2e \
	bench-e2e-out bench-e2e-x10 bench-e2e-compare profile lint lint-conc loc

# Tier-1 suite: serial executors only (the `mpp` marker is excluded
# via addopts in pyproject.toml).
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# Tier-1 again with numpy fast paths forced off: the columnar engine's
# pure-Python fallback must stay bit-identical (the no-numpy CI lane).
test-no-numpy:
	PROBKB_NO_NUMPY=1 PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# Multi-process tests: spawn real worker processes (the MPP executor's
# worker pool).
test-mpp:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests -m mpp -q

# The serial suites with every distinct plan verified before and after
# it runs (the CI verify lane); the env var is the gate's only switch.
test-verify:
	PROBKB_VERIFY_PLANS=1 PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		tests/mpp tests/relational tests/core tests/delta tests/api \
		tests/serve tests/quality -q

# Modelled-cost paper figures (benchmarks/results/*.txt) and the
# reporting helpers' own tests (benchmarks/test_reporting.py).
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -m "not mpp" -q

# The benchmark BENCHMARK.json declares: end-to-end wall-clock of the
# four workloads, each in a fresh process (benchmarks/e2e/README.md).
bench-e2e:
	$(PYTHON) benchmarks/e2e/run.py

# The same run, written to the results file a PR checks in at the repo
# root: `make bench-e2e-out OUT=BENCH_<pr>.json`, then judge it against
# the previous one with bench-e2e-compare.
bench-e2e-out:
	$(PYTHON) benchmarks/e2e/run.py --out $(OUT)

# The four workloads at 10x their pinned size, one second of serving
# each, where the costs that grow with the KB show: `make bench-e2e-x10
# OUT=BENCH_<pr>_x10.json`, judged against the previous 10x file.  The
# golden counts are pinned at 1x and 1/4 only, so a 10x run relies on
# its own checks ("correct": true); about 18 minutes on 2 cores.
bench-e2e-x10:
	$(PYTHON) benchmarks/e2e/run.py --scale 10 --seconds 1 --out $(OUT)

# Judge results file B against A, per (workload, end-to-end metric);
# exits non-zero on a regression beyond the metric's bound.
bench-e2e-compare:
	$(PYTHON) benchmarks/e2e/run.py --compare $(A) $(B)

# Where the time goes, by hand: cProfile over one short run of a
# benchmark workload (`make profile W=serve_mixed [SEED=4]`), then the
# top 25 functions by cumulative time.  Read the shares, not the
# absolutes: the profiler inflates per-call Python.
SEED ?= 4
profile:
	$(PYTHON) -m cProfile -o profile.out benchmarks/e2e/run.py \
		--workload $(W) --seed $(SEED) --seconds 1 --trace 0
	$(PYTHON) -c "import pstats; pstats.Stats('profile.out').sort_stats('cumulative').print_stats(25)"

# Size of the library: non-blank, non-comment lines under src/repro
# (the number the simplicity PRs quote).
loc:
	@find src/repro -name '*.py' | xargs cat | grep -v '^\s*$$' | grep -v '^\s*#' | wc -l

# Concurrency & determinism linter over the repo's own source
# (RC001-009, see docs/devtools.md).  Pure stdlib: runs everywhere,
# fails on ANY finding.
lint-conc:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli devtools lint src/repro

# Static checks: ruff (style/imports) + mypy (strict on repro.analyze,
# repro.core, repro.quality, repro.serve — see pyproject.toml).  Each
# tool is skipped with a notice when not installed, so `make lint` is
# safe in minimal environments; CI installs both and runs them for real.
lint: lint-conc
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "lint: ruff not installed, skipping (pip install ruff)"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "lint: mypy not installed, skipping (pip install mypy)"; \
	fi
