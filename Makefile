PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test test-sanitize sanitize profile bench-analysis serve-bench bench-dynamic bench-cluster bench-e2e construct-layers cluster-layers serve-layers dynamic-layers sanitize-reports profile-reports ab-pairs

## check: the CI gate — tests, the sanitize gate, profiler selftest, analysis + serve + dynamic + cluster benches, end-to-end benchmark self-test, the suite under the race detector
check: test sanitize profile bench-analysis serve-bench bench-dynamic bench-cluster bench-e2e test-sanitize

test:
	$(PYTHON) -m pytest -x -q --durations=15

## test-sanitize: the whole suite under the race detector (pytest --sanitize), CI's last check step
test-sanitize:
	$(PYTHON) -m pytest -x -q --sanitize

## sanitize: the one sanitize gate — races + memcheck over every kernel, lint, flow, prove and dist over src/ + benchmarks/, the SAN002 dead-marker audit, manifest drift and the seeded selftests; warnings gate
sanitize:
	$(PYTHON) -m repro sanitize

## sanitize-reports: write the sanitize --report JSON to OUT/sanitize.json (default OUT sanitize-reports), checkout root stripped, and its exit code to OUT/exit_codes.txt; `diff -r` two trees' outputs to check an analyzer refactor
sanitize-reports: OUT ?= sanitize-reports
sanitize-reports:
	@mkdir -p $(OUT); \
	$(PYTHON) -m repro sanitize --report $(OUT)/sanitize.json > /dev/null; \
	echo "sanitize $$?" > $(OUT)/exit_codes.txt; \
	sed -i 's|$(CURDIR)/||g' $(OUT)/sanitize.json; cat $(OUT)/exit_codes.txt

## profile-reports: write `repro profile --dataset AS --threads 8` (profile.json, trace.json) and `repro cluster --dataset AS --shards 4 --serve 64 --build --json` (cluster.json, catalog in a temporary directory) to OUT (default profile-reports); `diff -r` two trees' outputs to check a cost-model refactor
profile-reports: OUT ?= profile-reports
profile-reports:
	@mkdir -p $(OUT); catalog=$$(mktemp -d); \
	$(PYTHON) -m repro profile --dataset AS --threads 8 --out $(OUT) > /dev/null && \
	$(PYTHON) -m repro cluster --dataset AS --shards 4 --serve 64 --build \
		--catalog $$catalog --json $(OUT)/cluster.json > /dev/null; \
	status=$$?; rm -rf $$catalog; ls $(OUT); exit $$status

## profile: SimProf zero-perturbation selftest
profile:
	$(PYTHON) -m repro profile --selftest

## bench-analysis: refresh benchmarks/results/BENCH_analysis.json (observer overhead + zero perturbation, static analysis wall time + coverage)
bench-analysis:
	$(PYTHON) benchmarks/bench_analysis.py

## serve-bench: refresh benchmarks/results/BENCH_serve.json (HCDServe replay)
serve-bench:
	$(PYTHON) benchmarks/bench_serve.py

## bench-dynamic: refresh benchmarks/results/BENCH_dynamic.json (batched maintenance + delta publishing)
bench-dynamic:
	$(PYTHON) benchmarks/bench_dynamic.py

## bench-cluster: refresh benchmarks/results/BENCH_cluster.json (distributed decomposition + fault-tolerant sharded serving)
bench-cluster:
	$(PYTHON) benchmarks/bench_cluster.py

## bench-e2e: quick self-test of the end-to-end benchmark (all five workloads on small graphs, ~11 s)
bench-e2e:
	$(PYTHON) -m pytest -q benchmarks/e2e

## construct-layers: per-layer two-clock breakdown of the construct workload on seed SEED (default 41); writes nothing
SEED ?= 41
construct-layers:
	$(PYTHON) benchmarks/construct_layers.py --seed $(SEED)

## cluster-layers: the same breakdown of the cluster workload (sharding, snapshot build, decomposition, serving) on seed SEED; writes nothing
cluster-layers:
	$(PYTHON) benchmarks/construct_layers.py --workload cluster --seed $(SEED)

## serve-layers: the same breakdown of the serve workload (snapshot build, publish, open, warm, hit and miss calls, request-stage sim times) on seed SEED; writes nothing
serve-layers:
	$(PYTHON) benchmarks/construct_layers.py --workload serve --seed $(SEED)

## dynamic-layers: the same breakdown of the dynamic workload (batched repair, delta publish, reader refresh, time to visibility) on seed SEED; writes nothing
dynamic-layers:
	$(PYTHON) benchmarks/construct_layers.py --workload dynamic --seed $(SEED)

## ab-pairs: PAIRS (default 10) alternating pairs of `run.py --workload WORKLOAD` (default serve) on seed SEED (required: a claim needs a seed not used while developing, so the layer targets' default 41 does not apply), the parent checkout PARENT (a `git archive` copy) against this one; prints each end-to-end metric's medians, quartiles, pairs won, compare.py's verdict and the claim rule; writes nothing
ab-pairs: WORKLOAD ?= serve
ab-pairs: PAIRS ?= 10
ab-pairs:
	@test -n "$(PARENT)" -a "$(origin SEED)" != file || { echo "usage: make ab-pairs PARENT=dir SEED=s [WORKLOAD=serve] [PAIRS=10]"; exit 2; }
	$(PYTHON) benchmarks/ab_pairs.py --parent $(PARENT) --workload $(WORKLOAD) --seed $(SEED) --pairs $(PAIRS)
