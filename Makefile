PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: lint lint-flow lint-sarif baseline test check bench-history bench-pairs scenarios obs-store

lint:
	$(PYTHON) -m repro.lint src/ tests/ benchmarks/ examples/

# Flow-sensitive dimensional + determinism rules only (fast feedback).
lint-flow:
	$(PYTHON) -m repro.lint --select dim-mix,dim-arg,dim-return,det-seed,det-clock,det-iter,det-env \
		src/ tests/ benchmarks/ examples/

lint-sarif:
	$(PYTHON) -m repro.lint --format sarif src/ tests/ benchmarks/ examples/ > repro-lint.sarif || true

baseline:
	$(PYTHON) -m repro.lint --baseline write src/ tests/ benchmarks/ examples/

test:
	$(PYTHON) -m pytest -x -q

# Quick bench: gate against the trajectory ledger, then append the new row.
bench-history:
	$(PYTHON) -m repro bench history --quick --check --append

# Alternating pairs of end-to-end benchmark runs of one workload, BASE (a git
# revision, checked out in a detached worktree) against this checkout, one
# pair per seed from SEED on; which side runs first alternates.  `compare`
# then gives the verdicts on the runs' medians and checks the exact counts.
BASE ?= HEAD
WORKLOAD ?= sweep-cache
PAIRS ?= 10
SEED ?= 0
PAIRS_OUT = $(CURDIR)/out/pairs/$(WORKLOAD)
bench-pairs:
	@git worktree remove --force .bench_base 2>/dev/null || true
	rm -rf $(PAIRS_OUT)
	git worktree add --detach .bench_base $(BASE)
	@status=0; \
	for i in $$(seq 0 $$(($(PAIRS) - 1))); do \
	  seed=$$(($(SEED) + i)); \
	  if [ $$((i % 2)) -eq 0 ]; then sides="base change"; else sides="change base"; fi; \
	  for side in $$sides; do \
	    if [ $$side = base ]; then dir=.bench_base; else dir=.; fi; \
	    echo "bench-pairs: $(WORKLOAD) seed $$seed $$side"; \
	    mkdir -p $(PAIRS_OUT)/$$side; \
	    (cd $$dir && $(PYTHON) -m benchmarks.e2e run --workload $(WORKLOAD) --seed $$seed \
	      --trace 1 --out $(PAIRS_OUT)/$$side/$$seed > $(PAIRS_OUT)/$$side/$$seed.log) \
	      || status=1; \
	  done; \
	done; \
	git worktree remove --force .bench_base; \
	exit $$status
	$(PYTHON) -m benchmarks.e2e compare $(PAIRS_OUT)/base $(PAIRS_OUT)/change

# Validate the scenario template gallery against its pinned digests.
scenarios:
	$(PYTHON) -m repro scenario gallery

# Run registry demo: three instrumented runs ingested into .repro/store,
# then cross-run query + trend gate + HTML dashboard over them.
STORE ?= .repro/store
obs-store:
	$(PYTHON) -m repro characterize --intervals 8 --telemetry .repro/runs/char-8h --store $(STORE) >/dev/null
	$(PYTHON) -m repro characterize --intervals 24 --telemetry .repro/runs/char-24h --store $(STORE) >/dev/null
	$(PYTHON) -m repro characterize --intervals 72 --telemetry .repro/runs/char-72h --store $(STORE) >/dev/null
	$(PYTHON) -m repro obs query --store $(STORE) --runs
	$(PYTHON) -m repro obs trend --store $(STORE) --check repro_pipeline_phase_seconds
	$(PYTHON) -m repro obs report --store $(STORE)

check: lint test scenarios
