PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test sanitize memcheck lint flow prove dist profile bench-analysis serve-bench bench-dynamic bench-cluster bench-e2e construct-layers cluster-layers serve-layers dynamic-layers sanitize-reports

## check: the CI gate — tests, every sanitize family with its selftest (strict), kernel race+memcheck sweep, profiler selftest, analysis + serve + dynamic + cluster benches, end-to-end benchmark self-test
check: test sanitize memcheck profile bench-analysis serve-bench bench-dynamic bench-cluster bench-e2e

test:
	$(PYTHON) -m pytest -x -q

## sanitize: every family (races, lint, flow, prove, dist), the SAN002 dead-marker audit and the seeded selftests, warnings gating
sanitize:
	$(PYTHON) -m repro sanitize --strict

## memcheck: SimCheck sweep — kernels + seeded selftests under the memory sanitizer
memcheck:
	$(PYTHON) -m repro sanitize --memcheck --all-kernels
	$(PYTHON) -m repro sanitize --memcheck --selftest

## lint: the full static SAN1xx-SAN3xx lint over src/ + benchmarks/, warnings gating
lint:
	$(PYTHON) -m repro sanitize --strict --lint

## flow: SimFlow SAN4xx analysis — divergent sync, disjoint-write proofs, drift of the inferred kernel effects against flow_manifest.json
flow:
	$(PYTHON) -m repro sanitize --strict --flow --all-kernels
	$(PYTHON) -m repro sanitize --flow --selftest

## prove: SimProve SAN5xx certification — bounds proofs, determinism, manifest drift
prove:
	$(PYTHON) -m repro sanitize --strict --prove
	$(PYTHON) -m repro sanitize --prove --selftest

## dist: SimDist SAN6xx certification — monotonicity, BSP phases, ownership, derived wire shapes, replay safety, manifest drift
dist:
	$(PYTHON) -m repro sanitize --strict --dist
	$(PYTHON) -m repro sanitize --dist --selftest

## sanitize-reports: write the --report JSON of the seven CI sanitize families plus the flow and prove selftests into OUT (default sanitize-reports), checkout root stripped, exit codes in exit_codes.txt; `diff -r` two trees' outputs to check an analyzer refactor
OUT ?= sanitize-reports
SANITIZE_REPORTS := lint:--strict --lint|races:--strict --all-kernels|memcheck:--strict --memcheck --all-kernels|flow:--strict --flow --all-kernels|prove:--strict --prove|dist:--strict --dist|full:--strict|flow-selftest:--flow --selftest|prove-selftest:--prove --selftest
sanitize-reports:
	@mkdir -p $(OUT); rm -f $(OUT)/exit_codes.txt; \
	runs='$(SANITIZE_REPORTS)'; IFS='|'; for run in $$runs; do \
	  name=$${run%%:*}; args=$${run#*:}; IFS=' '; \
	  $(PYTHON) -m repro sanitize $$args --report $(OUT)/$$name.json > /dev/null; \
	  echo "$$name $$?" >> $(OUT)/exit_codes.txt; \
	  sed -i 's|$(CURDIR)/||g' $(OUT)/$$name.json; IFS='|'; \
	done; cat $(OUT)/exit_codes.txt

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
