"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``stats``      graph statistics + Table-II-style row
``decompose``  coreness histogram and the HCD forest
``search``     best k-core under a community metric
``bestk``      best k for whole k-core sets (Section VI)
``report``     full analysis report (profile, hierarchy, best cores)
``datasets``   list the built-in dataset stand-ins
``sanitize``   SimTSan races + SimCheck memcheck + SAN lint over kernels
``profile``    SimProf: span-trace a run, flame summary + trace exports
``serve``      HCDServe: replay a query trace against a snapshot catalog
``cluster``    SimCluster: sharded decomposition / fault-tolerant serving

Graphs come either from an edge-list file (``--input``) or a built-in
stand-in (``--dataset AS|LJ|...``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from repro.analysis.datasets import dataset_names, get_spec, load
from repro.analysis.visualization import ascii_tree, hierarchy_summary
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list
from repro.parallel.scheduler import SimulatedPool
from repro.pipeline import decompose, search_best_core
from repro.search.best_k import find_best_k
from repro.search.metrics import metric_names

__all__ = ["main", "build_parser"]


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="edge-list file (u v per line)")
    group.add_argument(
        "--dataset", help="built-in stand-in name or abbreviation (e.g. AS)"
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=4,
        help="simulated thread count (default 4)",
    )


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.input:
        return read_edge_list(args.input, relabel=True)
    return load(args.dataset).graph


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="parallel hierarchical core decomposition (ICDE 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="graph statistics")
    _add_graph_source(p_stats)

    p_deco = sub.add_parser("decompose", help="coreness + HCD forest")
    _add_graph_source(p_deco)
    p_deco.add_argument(
        "--tree", action="store_true", help="print the full ASCII forest"
    )

    p_search = sub.add_parser("search", help="best k-core under a metric")
    _add_graph_source(p_search)
    p_search.add_argument(
        "--metric",
        default="average_degree",
        choices=metric_names(),
    )

    p_bestk = sub.add_parser("bestk", help="best k over k-core sets")
    _add_graph_source(p_bestk)
    p_bestk.add_argument(
        "--metric",
        default="average_degree",
        choices=metric_names(),
    )

    p_report = sub.add_parser(
        "report", help="full analysis report for a graph"
    )
    _add_graph_source(p_report)

    sub.add_parser("datasets", help="list built-in dataset stand-ins")

    p_san = sub.add_parser(
        "sanitize",
        help="race detection + memory sanitizer + lint + flow analysis",
        description=(
            "Run the sanitizer families over the substrate: the "
            "SimTSan race detector over the named parallel kernels, "
            "the SimCheck memory & numeric sanitizer (--memcheck), "
            "the static SAN1xx-SAN3xx lint pass over source trees, "
            "the SimFlow SAN4xx CFG/dataflow analysis (--flow), the "
            "SimProve SAN5xx static bounds/determinism certification "
            "(--prove), the SimDist SAN6xx distributed-protocol "
            "certification (--dist), and the seeded-bug selftests.  "
            "With no options: all kernels, lint + flow + prove + dist "
            "over src/ and benchmarks/, and the selftests."
        ),
        epilog=(
            "Exit status: 0 when every family that ran is clean; "
            "1 when ANY family reports (a race, a memcheck finding, "
            "a lint or flow error, a SAN501 provable OOB, a SAN6xx "
            "protocol violation, flow-, prove- or dist-manifest "
            "drift, any warning under --strict, or a failed "
            "selftest); 2 on usage errors.  One summary "
            "line is printed per family."
        ),
    )
    p_san.add_argument(
        "--all-kernels",
        action="store_true",
        help="race-check every registered kernel",
    )
    p_san.add_argument(
        "--kernel",
        action="append",
        default=[],
        metavar="NAME",
        help="race-check one kernel (repeatable; see --list)",
    )
    p_san.add_argument(
        "--lint",
        nargs="*",
        metavar="PATH",
        help="lint parallel workers under PATH(s) (default: src/)",
    )
    p_san.add_argument(
        "--selftest",
        action="store_true",
        help=(
            "only verify the seeded-bug kernels are flagged (the racy "
            "kernel; with --memcheck also the uninit/OOB/overflow/NaN "
            "kernel)"
        ),
    )
    p_san.add_argument(
        "--memcheck",
        action="store_true",
        help=(
            "attach the SimCheck memory sanitizer to kernel runs: "
            "poisoned-allocation uninit reads, out-of-bounds indices, "
            "overflowing casts, NaN origins"
        ),
    )
    p_san.add_argument(
        "--flow",
        action="store_true",
        help=(
            "run the SimFlow SAN4xx analysis: divergent-sync taint "
            "over worker CFGs (SAN401/402), disjoint-write interval "
            "proofs (SAN403 + SAN201 downgrades), and drift of the "
            "selected kernels' inferred effects against the committed "
            "flow_manifest.json"
        ),
    )
    p_san.add_argument(
        "--prove",
        action="store_true",
        help=(
            "run the SimProve SAN5xx static certification: fixpoint "
            "interval bounds proofs for every recorded access "
            "(SAN501 provable OOB, SAN502 unproven), determinism "
            "classification of combining atomics (SAN503 order-"
            "sensitive float reductions), and drift detection "
            "against the committed prove_manifest.json"
        ),
    )
    p_san.add_argument(
        "--dist",
        action="store_true",
        help=(
            "run the SimDist SAN6xx analysis over the cluster layer: "
            "monotonicity certification of cross-shard estimate "
            "updates (SAN601), BSP phase discipline (SAN602), shard-"
            "ownership disjoint-write proofs (SAN603), derivable "
            "wire effects of every Network.send site (SAN604), "
            "replay safety of failover-reachable handlers "
            "(SAN606), and drift "
            "detection against the committed dist_manifest.json"
        ),
    )
    p_san.add_argument(
        "--write-manifest",
        action="store_true",
        help=(
            "re-infer every kernel's effects, re-prove every kernel "
            "and re-certify every protocol, refreshing the committed "
            "flow_manifest.json, prove_manifest.json and "
            "dist_manifest.json instead of failing on drift"
        ),
    )
    p_san.add_argument(
        "--strict",
        action="store_true",
        help="treat lint/flow warnings as failures (CI gate mode)",
    )
    p_san.add_argument(
        "--report",
        metavar="FILE",
        help="write a JSON report of every family's findings to FILE",
    )
    p_san.add_argument(
        "--list", action="store_true", help="list registered kernels"
    )
    p_san.add_argument(
        "--threads",
        type=int,
        default=4,
        help="virtual threads for kernel runs (default 4)",
    )

    p_prof = sub.add_parser(
        "profile",
        help="SimProf span tracing: flame summary + Chrome trace export",
        description=(
            "Run the end-to-end pipeline under the SimProf span tracer "
            "and print a terminal flame summary with per-phase cost "
            "decomposition.  With --out, also write profile.json and a "
            "Chrome trace_event JSON (chrome://tracing / Perfetto).  "
            "With --selftest, verify instead that attaching the tracer "
            "perturbs the simulated clock of every registered kernel "
            "by exactly zero."
        ),
    )
    source = p_prof.add_mutually_exclusive_group()
    source.add_argument("--input", help="edge-list file (u v per line)")
    source.add_argument(
        "--dataset",
        help="built-in stand-in name or abbreviation (default AS)",
    )
    p_prof.add_argument(
        "--threads",
        type=int,
        default=4,
        help="simulated thread count (default 4)",
    )
    p_prof.add_argument(
        "--metric",
        default="average_degree",
        choices=metric_names(),
        help="community metric for the search stage",
    )
    p_prof.add_argument(
        "--out",
        metavar="DIR",
        help="write profile.json + trace.json under DIR",
    )
    p_prof.add_argument(
        "--top",
        type=int,
        default=8,
        help="hottest contended cache lines to report per phase",
    )
    p_prof.add_argument(
        "--selftest",
        action="store_true",
        help="verify the zero-perturbation guarantee on every kernel",
    )

    p_serve = sub.add_parser(
        "serve",
        help="replay a query trace against a served snapshot (HCDServe)",
        description=(
            "Build-once/query-many serving: open a snapshot from a "
            "versioned catalog (optionally building and publishing it "
            "first from a graph source) and replay a request trace "
            "through admission control, batched planning, the LRU "
            "result cache, and shared-pass execution.  Reports latency "
            "percentiles (in deterministic work units — identical "
            "across thread counts), throughput, and cache statistics."
        ),
    )
    serve_source = p_serve.add_mutually_exclusive_group()
    serve_source.add_argument("--input", help="edge-list file (u v per line)")
    serve_source.add_argument(
        "--dataset", help="built-in stand-in name or abbreviation (e.g. AS)"
    )
    p_serve.add_argument(
        "--catalog",
        default=".hcdserve",
        metavar="DIR",
        help="snapshot catalog directory (default .hcdserve)",
    )
    p_serve.add_argument(
        "--snapshot",
        default="default",
        metavar="NAME",
        help="snapshot name to serve (default 'default')",
    )
    p_serve.add_argument(
        "--build",
        action="store_true",
        help=(
            "build a snapshot from --input/--dataset and publish it to "
            "the catalog before serving"
        ),
    )
    p_serve.add_argument(
        "--trace",
        metavar="FILE",
        help="JSON-lines request trace to replay",
    )
    p_serve.add_argument(
        "--synthetic",
        type=int,
        default=64,
        metavar="N",
        help="without --trace: replay N synthetic requests (default 64)",
    )
    p_serve.add_argument(
        "--seed", type=int, default=0, help="synthetic-trace seed"
    )
    p_serve.add_argument(
        "--threads",
        type=int,
        default=4,
        help="simulated thread count (default 4)",
    )
    p_serve.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="max queries per execution batch (default 16)",
    )
    p_serve.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        help="admission queue bound; overflow is shed (default 64)",
    )
    p_serve.add_argument(
        "--cache-capacity",
        type=int,
        default=256,
        help="LRU result-cache entries, 0 disables (default 256)",
    )
    p_serve.add_argument(
        "--per-query",
        action="store_true",
        help=(
            "baseline mode: batch size 1, no shared-pass memoization, "
            "no result cache (what the serving benchmark compares "
            "batched execution against)"
        ),
    )
    p_serve.add_argument(
        "--profile",
        action="store_true",
        help="trace the replay with SimProf and print the serve.* phases",
    )
    p_serve.add_argument(
        "--json",
        metavar="FILE",
        help="write the full report as JSON to FILE",
    )

    p_cluster = sub.add_parser(
        "cluster",
        help="sharded multi-node decomposition / serving (SimCluster)",
        description=(
            "Run on the deterministic simulated cluster: shard a graph "
            "across nodes (contiguous ranges or label propagation), run "
            "the distributed shard-grained MPM decomposition — bit-"
            "identical to single-node decomposition at every shard "
            "count — and report the compute/comms clock split.  With "
            "--serve N, instead route a synthetic query trace through "
            "the sharded ClusterService (per-shard replicas, hedging, "
            "deterministic crash/slow fault injection, catalog "
            "recovery).  With --mpm, also run the single-node MPM "
            "baseline and report its rounds next to the cluster's "
            "supersteps."
        ),
    )
    cluster_source = p_cluster.add_mutually_exclusive_group(required=True)
    cluster_source.add_argument(
        "--input", help="edge-list file (u v per line)"
    )
    cluster_source.add_argument(
        "--dataset", help="built-in stand-in name or abbreviation (e.g. AS)"
    )
    p_cluster.add_argument(
        "--shards",
        type=int,
        default=2,
        help="number of shards / nodes (default 2)",
    )
    p_cluster.add_argument(
        "--threads",
        type=int,
        default=4,
        help="simulated threads per node (default 4)",
    )
    p_cluster.add_argument(
        "--partition",
        choices=("range", "lp"),
        default="range",
        help="sharding strategy: contiguous ranges or label propagation",
    )
    p_cluster.add_argument(
        "--mpm",
        action="store_true",
        help="also run the single-node MPM baseline (rounds vs supersteps)",
    )
    p_cluster.add_argument(
        "--serve",
        type=int,
        default=0,
        metavar="N",
        help="route N synthetic requests through the sharded service",
    )
    p_cluster.add_argument(
        "--replicas",
        type=int,
        default=2,
        help="replicas per shard for --serve (default 2)",
    )
    p_cluster.add_argument(
        "--catalog",
        default=".hcdserve",
        metavar="DIR",
        help="snapshot catalog directory for --serve (default .hcdserve)",
    )
    p_cluster.add_argument(
        "--snapshot",
        default="default",
        metavar="NAME",
        help="snapshot name for --serve (default 'default')",
    )
    p_cluster.add_argument(
        "--build",
        action="store_true",
        help="build + publish the snapshot from the graph source first",
    )
    p_cluster.add_argument(
        "--crash",
        action="append",
        default=[],
        metavar="NODE:T[:RECOVER]",
        help=(
            "crash NODE at work-unit time T (repeatable); with "
            ":RECOVER it re-registers from the catalog at that time"
        ),
    )
    p_cluster.add_argument(
        "--slow",
        action="append",
        default=[],
        metavar="NODE:FACTOR",
        help="slow NODE down by FACTOR >= 1 (repeatable)",
    )
    p_cluster.add_argument(
        "--hedge-timeout",
        type=float,
        default=0.0,
        metavar="T",
        help="hedge requests slower than T work units (0 disables)",
    )
    p_cluster.add_argument(
        "--seed", type=int, default=0, help="synthetic-trace seed"
    )
    p_cluster.add_argument(
        "--profile-out",
        metavar="DIR",
        help="write cluster_profile.json + cluster_trace.json under DIR",
    )
    p_cluster.add_argument(
        "--json",
        metavar="FILE",
        help="write the full report as JSON to FILE",
    )
    return parser


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    deco = decompose(graph, threads=args.threads)
    stats = deco.hcd.stats()
    print(f"vertices : {graph.num_vertices}")
    print(f"edges    : {graph.num_edges}")
    print(f"avg deg  : {graph.average_degree():.2f}")
    print(f"kmax     : {stats.kmax}")
    print(f"|T|      : {stats.num_nodes}")
    print(f"forest depth: {stats.max_depth}")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    deco = decompose(graph, threads=args.threads)
    hist = np.bincount(deco.coreness)
    print("coreness histogram (k: count):")
    for k, count in enumerate(hist):
        if count:
            print(f"  {k:4d}: {count}")
    print()
    if args.tree:
        print(ascii_tree(deco.hcd))
    else:
        print(hierarchy_summary(deco.hcd))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    result, deco = search_best_core(
        graph, args.metric, threads=args.threads
    )
    members = result.best_members()
    print(f"metric     : {args.metric}")
    print(f"best k     : {result.best_k}")
    print(f"score      : {result.best_score:.6f}")
    print(f"|S|        : {members.size}")
    shown = ", ".join(str(int(v)) for v in members[:20])
    suffix = ", ..." if members.size > 20 else ""
    print(f"members    : [{shown}{suffix}]")
    print("phase times (simulated):")
    for phase, elapsed in deco.phase_times.items():
        print(f"  {phase:20} {elapsed:12.0f}")
    return 0


def _cmd_bestk(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    deco = decompose(graph, threads=args.threads)
    pool = SimulatedPool(threads=args.threads)
    result = find_best_k(graph, deco.coreness, args.metric, pool)
    print(f"metric : {args.metric}")
    print(f"best k : {result.best_k} (score {result.best_score:.6f})")
    print("score per k:")
    for k, score in enumerate(result.scores):
        marker = "  <== best" if k == result.best_k else ""
        print(f"  k={k:4d}: {score:12.6f}{marker}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import analysis_report

    graph = _load_graph(args)
    print(analysis_report(graph, threads=args.threads))
    return 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from dataclasses import replace
    from importlib import import_module
    from pathlib import Path

    from repro.sanitizer import (
        KERNELS,
        Report,
        lint_paths,
        manifest,
        memcheck_selftest,
        run_kernel,
        selftest,
    )

    if args.list:
        for name in KERNELS:
            print(name)
        return 0

    # default mode: everything
    explicit = bool(
        args.all_kernels
        or args.kernel
        or args.lint is not None
        or args.selftest
        or args.flow
        or args.prove
        or args.dist
        or args.write_manifest
    )
    default_scope = [p for p in ("src", "benchmarks") if Path(p).exists()]
    do_kernels = list(args.kernel)
    if args.all_kernels or not explicit:
        do_kernels = list(KERNELS)
    do_lint = None
    if args.lint is not None or not explicit:
        do_lint = args.lint or list(default_scope)
    do_selftest = args.selftest or not explicit
    do_flow = args.flow or args.write_manifest or not explicit
    do_prove = args.prove or args.write_manifest or not explicit
    do_dist = args.dist or args.write_manifest or not explicit
    # SimFlow analyzes the lint scope (or the default scope when only
    # --flow was given); effect signatures cover the selected kernels
    flow_paths = do_lint or list(default_scope)
    # a --kernel subset infers, proves and compares only its own
    # kernels; --write-manifest always covers the full registry so a
    # committed manifest never shrinks to a subset
    subset = (
        None
        if args.write_manifest
        or not do_kernels
        or set(do_kernels) == set(KERNELS)
        else do_kernels
    )

    if args.threads < 1:
        print(
            f"--threads must be >= 1, got {args.threads}", file=sys.stderr
        )
        return 2

    unknown = [name for name in do_kernels if name not in KERNELS]
    if unknown:
        names = ", ".join(sorted(unknown))
        print(f"unknown kernel(s): {names}", file=sys.stderr)
        print(f"available: {', '.join(KERNELS)}", file=sys.stderr)
        return 2

    missing = [p for p in do_lint or [] if not Path(p).exists()]
    if missing:
        for p in missing:
            print(f"no such lint path: {p}", file=sys.stderr)
        return 2

    # per-family results: family -> (failure_count, summary_suffix)
    families: dict[str, tuple[int, str]] = {}
    report_json: dict[str, object] = {
        "schema": "sanitize-report/v2",
        "threads": args.threads,
    }
    strict = " [strict]" if args.strict else ""

    def failures(errors: int, warnings: int = 0) -> int:
        # warnings gate only under --strict
        return errors + (warnings if args.strict else 0)

    def listing(lines: list) -> None:
        for line in lines:
            print(f"  {line}")
        if not lines:
            print("  clean")

    def manifest_step(
        payload: dict, path: Path, flag: str, kernels: list | None = None
    ) -> list[str]:
        # refresh the committed manifest, or report every drift line
        if args.write_manifest:
            manifest.write(payload, path)
            print(f"  manifest refreshed: {path}")
            return []
        drift = manifest.drift(payload, path, flag, kernels)
        for line in drift:
            print(f"  manifest drift: {line}")
        return drift

    if do_kernels:
        mode = "races + memcheck" if args.memcheck else "race detection"
        print(f"== {mode} ({args.threads} virtual threads) ==")
        kernel_rows = []
        for name in do_kernels:
            report = run_kernel(
                name, threads=args.threads, memcheck=args.memcheck
            )
            problems = len(report.races) + len(report.memcheck_findings)
            status = "ok" if problems == 0 else f"{problems} FINDING(S)"
            print(
                f"  {name:22s} {report.regions:5d} regions "
                f"{report.events:8d} events  {status}"
            )
            for race in report.races:
                print(f"    {race}")
            for finding in report.memcheck_findings:
                print(f"    {finding}")
            kernel_rows.append(
                {
                    "name": name,
                    "regions": report.regions,
                    "events": report.events,
                    "races": [str(r) for r in report.races],
                    "memcheck": [str(f) for f in report.memcheck_findings],
                    "nan_origins": [str(o) for o in report.nan_origins],
                }
            )
        races, mem, nans = (
            sum(len(row[key]) for row in kernel_rows)
            for key in ("races", "memcheck", "nan_origins")
        )
        families["races"] = (
            races,
            f"{races} finding(s) over {len(do_kernels)} kernel(s)",
        )
        if args.memcheck:
            families["memcheck"] = (
                mem,
                f"{mem} finding(s), {nans} NaN origin(s)",
            )
        report_json["kernels"] = kernel_rows

    # SimFlow runs before the lint report so its disjoint-write proofs
    # can downgrade SAN201 warnings at verified sites
    flow_report = None
    downgrade_lines: set[tuple[str, int]] = set()
    if do_flow:
        from repro.sanitizer.flow import (
            DEFAULT_FLOW_MANIFEST_PATH,
            analyze_paths,
            flow_manifest_payload,
            infer_kernel_effects,
        )

        flow_report = analyze_paths(flow_paths)
        flow_effects = infer_kernel_effects(subset)
        downgrade_lines = {
            (str(Path(p).resolve()), line)
            for p, line in flow_report.verified_lines()
        }

    if do_lint:
        print(f"== lint ({', '.join(str(p) for p in do_lint)}) ==")
        findings = lint_paths(do_lint)
        # a disjointness *proof* trumps the pattern checks: SAN201
        # (bare item-derived store) and SAN101 (index the lint cannot
        # relate to the item, e.g. the chunk-loop idiom) both downgrade
        downgraded = [
            f
            for f in findings
            if f.code in ("SAN101", "SAN201")
            and (str(Path(f.path).resolve()), f.line) in downgrade_lines
        ]
        lint = Report([f for f in findings if f not in downgraded])
        listing(
            lint.findings
            + [f"{f} [downgraded: verified-disjoint]" for f in downgraded]
        )
        errors, warnings = len(lint.errors), len(lint.warnings)
        suffix = f"{errors} error(s), {warnings} warning(s)"
        if downgraded:
            suffix += f", {len(downgraded)} downgraded"
        families["lint"] = (failures(errors, warnings), suffix + strict)
        report_json["lint"] = [str(f) for f in lint.findings]
        report_json["lint_downgraded"] = [str(f) for f in downgraded]

    if flow_report is not None:
        print(f"== flow ({', '.join(str(p) for p in flow_paths)}) ==")
        cwd = Path.cwd()

        def rel(path: str) -> str:
            try:
                return str(Path(path).resolve().relative_to(cwd))
            except ValueError:
                return path

        listing([replace(f, path=rel(f.path)) for f in flow_report.findings])
        payload = flow_manifest_payload(flow_effects)
        flow_drift = manifest_step(
            payload, DEFAULT_FLOW_MANIFEST_PATH, "--flow", subset
        )
        errors = len(flow_report.errors)
        warnings = len(flow_report.warnings)
        families["flow"] = (
            failures(errors + len(flow_drift), warnings),
            f"{errors} error(s), {warnings} warning(s), "
            f"{len(flow_report.verified)} verified-disjoint, "
            f"effects over {len(flow_effects)} kernel(s), "
            f"{len(flow_drift)} drift line(s)" + strict,
        )
        report_json["flow"] = {
            "findings": [str(f) for f in flow_report.findings],
            "drift": flow_drift,
            "verified_disjoint": [str(v) for v in flow_report.verified],
            "effects": payload["kernels"],
            "workers": flow_report.workers,
            "files": flow_report.files,
        }

    prove_report = None
    prove_full = False
    if do_prove:
        from repro.sanitizer.prove import (
            DEFAULT_MANIFEST_PATH,
            manifest_payload,
            prove_kernels,
        )

        print("== prove (SimProve SAN5xx static certification) ==")
        prove_full = subset is None
        prove_report = prove_kernels(subset)
        for name, cert in sorted(prove_report.certificates.items()):
            bounds = cert.bounds
            tag = "fully-proven" if cert.fully_proven else cert.status
            print(
                f"  {name:22s} {tag:15s} {cert.determinism:15s} "
                f"{bounds['proven']:3d} proven "
                f"{bounds['unproven']:3d} unproven "
                f"{bounds['violations']} violation(s)"
            )
        for finding in prove_report.errors:
            print(f"  {finding}")
        codes = [f.code for f in prove_report.findings]
        payload = manifest_payload(prove_report)
        drift: list[str] = []
        if prove_full:
            drift = manifest_step(payload, DEFAULT_MANIFEST_PATH, "--prove")
        else:
            print(
                "  (subset proven — manifest drift check skipped; "
                "run without --kernel to check drift)"
            )
        # SAN502/SAN503 are acknowledged by the committed manifest —
        # the manifest IS the prove baseline — so --strict does not
        # promote them; only provable OOB and unacknowledged drift gate
        families["prove"] = (
            len(prove_report.errors) + len(drift),
            f"{len(prove_report.certified)} certified / "
            f"{len(prove_report.certificates)} kernel(s), "
            f"{len(prove_report.errors)} SAN501, "
            f"{codes.count('SAN502')} SAN502, "
            f"{codes.count('SAN503')} SAN503, {len(drift)} drift line(s)",
        )
        report_json["prove"] = {
            "certificates": payload["kernels"],
            "findings": [str(f) for f in prove_report.findings],
            "drift": drift,
        }

    if do_dist:
        from repro.sanitizer.dist import (
            DEFAULT_DIST_MANIFEST_PATH,
            analyze_dist,
            dist_manifest_payload,
        )

        print("== dist (SimDist SAN6xx protocol certification) ==")
        dist_report = analyze_dist()
        for name, cert in sorted(dist_report.certificates.items()):
            print(
                f"  {name:22s} {cert.status:12s} "
                f"{len(cert.obligations):2d} obligation(s) "
                f"{len(cert.sends)} send site(s) "
                f"{len(cert.handlers)} handler(s)"
            )
        for finding in dist_report.findings:
            print(f"  {finding}")
        payload = dist_manifest_payload(dist_report)
        dist_drift = manifest_step(
            payload, DEFAULT_DIST_MANIFEST_PATH, "--dist"
        )
        errors = len(dist_report.errors)
        warnings = len(dist_report.warnings)
        classified = sum(
            v != "unclassified" for v in dist_report.kernels.values()
        )
        families["dist"] = (
            failures(errors + len(dist_drift), warnings),
            f"{len(dist_report.certified)} certified / "
            f"{len(dist_report.certificates)} protocol(s), "
            f"{classified}/{len(dist_report.kernels)} kernel(s) classified, "
            f"{errors} error(s), {warnings} warning(s), "
            f"{len(dist_drift)} drift line(s)" + strict,
        )
        report_json["dist"] = {
            "certificates": payload["protocols"],
            "findings": [str(f) for f in dist_report.findings],
            "kernels": payload["kernels"],
            "drift": dist_drift,
        }

    # SAN002 dead-suppression audit: a sani-ok / prove-assume marker
    # is only provably dead when every family that might consume it has
    # run — lint (unsuppressed pass), flow (suppressed_hits), and a
    # full prove (used_marker_lines) — so the audit only fires in
    # default/full mode, never on a single-family invocation
    if do_lint and flow_report is not None and prove_full:
        from repro.sanitizer.lint import (
            ASSUME_MARKER,
            SUPPRESS_MARKER,
            dead_suppressions,
            source_files,
        )

        used_by_file: dict[str, set[int]] = {}
        hits = flow_report.suppressed_hits | prove_report.used_marker_lines
        for p, ln in hits:
            used_by_file.setdefault(str(Path(p).resolve()), set()).add(ln)
        dead: list = []
        for fp in source_files(do_lint):
            try:
                source = fp.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError):
                continue
            if SUPPRESS_MARKER not in source and ASSUME_MARKER not in source:
                continue
            used = used_by_file.get(str(fp.resolve()), set())
            dead.extend(
                dead_suppressions(
                    source, path=str(fp), used_lines=frozenset(used)
                )
            )
        print("== suppressions (SAN002 dead-marker audit) ==")
        listing(dead)
        families["suppress"] = (
            failures(0, len(dead)),
            f"{len(dead)} dead suppression(s)" + strict,
        )
        report_json["suppressions"] = [str(f) for f in dead]

    if do_selftest:
        print("== selftest (seeded-bug kernels) ==")
        checks = [("", lambda: selftest(threads=max(args.threads, 2)))]
        if args.memcheck:
            checks.append(
                ("", lambda: memcheck_selftest(threads=max(args.threads, 4)))
            )
        for family, on in (
            ("flow", do_flow),
            ("prove", do_prove),
            ("dist", do_dist),
        ):
            if on:
                module = import_module(f"repro.sanitizer.{family}")
                checks.append(
                    (f"[{family}] ", getattr(module, f"{family}_selftest"))
                )
        failed_checks = 0
        for tag, check in checks:
            ok, message = check()
            print(f"  {tag}{message}")
            failed_checks += not ok
        families["selftest"] = (
            failed_checks,
            "ok" if failed_checks == 0 else f"{failed_checks} FAILED",
        )
        report_json["selftest"] = failed_checks == 0

    failed = any(count for count, _ in families.values())

    print("-- family summary --")
    for family, (count, suffix) in families.items():
        verdict = "ok    " if count == 0 else "FAILED"
        print(f"  {family:9s} {verdict} {suffix}")

    if args.report:
        import json

        report_json["families"] = {
            family: {"failures": count, "summary": suffix}
            for family, (count, suffix) in families.items()
        }
        report_json["ok"] = not failed
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report_json, handle, indent=2, sort_keys=True)
        print(f"report written to {args.report}")

    print("== FAILED ==" if failed else "== OK ==")
    return 1 if failed else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.profiler import (
        SpanTracer,
        flame_summary,
        profile_report,
        selftest,
        write_artifacts,
    )

    if args.threads < 1:
        print(
            f"--threads must be >= 1, got {args.threads}", file=sys.stderr
        )
        return 2

    if args.selftest:
        print("== SimProf selftest (zero-perturbation guarantee) ==")
        ok, message = selftest(threads=max(args.threads, 2))
        print(f"  {message}")
        print("== OK ==" if ok else "== FAILED ==")
        return 0 if ok else 1

    if args.input:
        graph = read_edge_list(args.input, relabel=True)
        source = args.input
    else:
        name = args.dataset or "AS"
        graph = load(name).graph
        source = name

    pool = SimulatedPool(threads=args.threads)
    tracer = SpanTracer()
    tracer.attach(pool)
    result, deco = search_best_core(
        graph, args.metric, pool=pool, parallel=True
    )
    tracer.detach()

    # the invariant the exports rely on: span coverage is exact
    if tracer.total_elapsed() != pool.clock:
        print(
            "profile does not cover the clock: "
            f"{tracer.total_elapsed()!r} != {pool.clock!r}",
            file=sys.stderr,
        )
        return 1

    report = profile_report(tracer, pool, top=args.top)
    print(f"graph      : {source} (n={graph.num_vertices}, m={graph.num_edges})")
    print(f"metric     : {args.metric}  best k={result.best_k}")
    print()
    print(flame_summary(report))
    if args.out:
        paths = write_artifacts(tracer, pool, args.out)
        for kind, path in paths.items():
            print(f"wrote {kind:8s} {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ServeError, WorkloadError
    from repro.serve import (
        HCDService,
        ServiceConfig,
        SnapshotCatalog,
        build_snapshot,
        load_trace,
        synthetic_trace,
    )

    if args.threads < 1:
        print(f"--threads must be >= 1, got {args.threads}", file=sys.stderr)
        return 2

    catalog = SnapshotCatalog(args.catalog)

    if args.build:
        if not (args.input or args.dataset):
            print(
                "--build needs a graph source (--input or --dataset)",
                file=sys.stderr,
            )
            return 2
        graph = _load_graph(args)
        snapshot = build_snapshot(
            graph,
            threads=args.threads,
            name=args.snapshot,
            source=args.input or args.dataset,
        )
        version = catalog.publish(snapshot)
        print(
            f"published {args.snapshot!r} v{version} "
            f"(n={graph.num_vertices}, m={graph.num_edges})"
        )
    elif args.input or args.dataset:
        print(
            "--input/--dataset only apply with --build; the serve path "
            "reads the snapshot from the catalog",
            file=sys.stderr,
        )
        return 2

    try:
        trace = (
            load_trace(args.trace)
            if args.trace
            else synthetic_trace(args.synthetic, seed=args.seed)
        )
    except WorkloadError as exc:
        print(f"bad trace: {exc}", file=sys.stderr)
        return 2

    if args.per_query:
        config = ServiceConfig(
            queue_capacity=args.queue_capacity,
            max_batch=1,
            cache_capacity=0,
            share_passes=False,
        )
    else:
        config = ServiceConfig(
            queue_capacity=args.queue_capacity,
            max_batch=args.max_batch,
            cache_capacity=args.cache_capacity,
        )

    pool = SimulatedPool(threads=args.threads)
    tracer = None
    if args.profile:
        from repro.profiler import SpanTracer

        tracer = SpanTracer()
        tracer.attach(pool)

    try:
        service = HCDService(
            catalog, args.snapshot, config=config, pool=pool
        )
        report = service.serve(trace)
    except (ServeError, WorkloadError) as exc:
        print(f"serve failed: {exc}", file=sys.stderr)
        return 1

    name, version = report.snapshot
    print(f"snapshot   : {name} v{version}")
    print(f"requests   : {len(report.records)} "
          f"(admitted {report.admitted}, shed {report.shed}, "
          f"invalid {report.invalid})")
    print(f"answers    : {report.computed} computed, {report.hits} cached, "
          f"{report.shared} shared, {report.coalesced} coalesced, "
          f"{report.batches} batch(es)")
    print(f"latency    : p50={report.p50:.0f} p95={report.p95:.0f} "
          f"p99={report.p99:.0f} work units")
    print(f"throughput : {report.throughput:.3f} answers / 1k work units")
    print(f"clocks     : work_units={report.work_units:.0f} "
          f"sim_clock={report.sim_clock:.0f} ({args.threads} threads)")
    cache = report.cache
    print(f"cache      : {cache['hits']} hit / {cache['misses']} miss "
          f"(rate {cache['hit_rate']:.2f}), {cache['evictions']} evicted, "
          f"{cache['size']}/{cache['capacity']} used")
    histogram = report.histogram()
    if histogram:
        print("latency histogram (work units):")
        for label, count in histogram.items():
            print(f"  {label:8s} {count}")

    if tracer is not None:
        from repro.profiler import phase_totals, profile_report

        tracer.detach()
        totals = phase_totals(
            profile_report(tracer, pool), prefix="serve."
        )
        print("serve phases (simulated elapsed):")
        for path, elapsed in totals.items():
            print(f"  {path:24s} {elapsed:12.0f}")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
        print(f"report written to {args.json}")
    return 0


def _parse_fault(spec: str, what: str, parts: int) -> list[float]:
    fields = spec.split(":")
    if not 2 <= len(fields) <= parts:
        raise ValueError(f"bad --{what} spec {spec!r}")
    try:
        return [float(f) for f in fields]
    except ValueError:
        raise ValueError(f"bad --{what} spec {spec!r}") from None


def _cmd_cluster(args: argparse.Namespace) -> int:
    import json

    from repro.cluster import (
        ClusterProfiler,
        SimCluster,
        distributed_core_decomposition,
        shard_graph,
    )
    from repro.errors import ServeError, WorkloadError

    if args.shards < 1 or args.threads < 1 or args.replicas < 1:
        print(
            "--shards, --threads and --replicas must be >= 1",
            file=sys.stderr,
        )
        return 2
    try:
        crashes = [_parse_fault(s, "crash", 3) for s in args.crash]
        slows = [_parse_fault(s, "slow", 2) for s in args.slow]
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    graph = _load_graph(args)
    source = args.input or args.dataset
    payload: dict = {
        "source": source,
        "shards": args.shards,
        "threads": args.threads,
        "partition": args.partition,
    }

    if args.serve:
        from repro.cluster import ClusterService, ClusterServiceConfig
        from repro.serve import (
            SnapshotCatalog,
            build_snapshot,
            synthetic_trace,
        )

        catalog = SnapshotCatalog(args.catalog)
        if args.build:
            snapshot = build_snapshot(
                graph,
                threads=args.threads,
                name=args.snapshot,
                source=source,
            )
            version = catalog.publish(snapshot)
            print(f"published {args.snapshot!r} v{version}")
        config = ClusterServiceConfig(
            num_shards=args.shards,
            replicas=args.replicas,
            hedge_timeout=(
                args.hedge_timeout if args.hedge_timeout > 0 else float("inf")
            ),
        )
        try:
            service = ClusterService(
                catalog, args.snapshot, config=config, threads=args.threads
            )
        except (ServeError, WorkloadError) as exc:
            print(f"cluster serve failed: {exc}", file=sys.stderr)
            return 1
        for fields in crashes:
            service.crash(
                int(fields[0]),
                fields[1],
                fields[2] if len(fields) > 2 else None,
            )
        for node_id, factor in slows:
            service.slow(int(node_id), factor)
        trace = synthetic_trace(args.serve, seed=args.seed)
        profiler = ClusterProfiler(service.cluster)
        try:
            with profiler:
                report = service.serve(trace)
        except (ServeError, WorkloadError) as exc:
            print(f"cluster serve failed: {exc}", file=sys.stderr)
            return 1
        name, version = report.snapshot
        print(f"snapshot   : {name} v{version}")
        print(
            f"topology   : {args.shards} shard(s) x "
            f"{args.replicas} replica(s), {args.threads} threads/node"
        )
        print(
            f"requests   : {len(report.records)} "
            f"(admitted {report.admitted}, shed {report.shed}, "
            f"failed {report.failed})"
        )
        print(
            f"answers    : {report.computed} computed, {report.hits} cached, "
            f"{report.shared} shared, {report.batches} batch(es)"
        )
        print(
            f"faults     : {report.failovers} failover(s), "
            f"{report.hedges} hedge(s), {report.recoveries} recover(ies)"
        )
        print(
            f"latency    : p50={report.p50:.0f} p95={report.p95:.0f} "
            f"p99={report.p99:.0f} work units"
        )
        network = report.network
        print(
            f"network    : {network['messages']} message(s), "
            f"{network['bytes']} byte(s), cost {network['cost']:.0f}"
        )
        print(f"digest     : {report.answers_digest()[:16]}...")
        payload["serve"] = report.as_dict()
    else:
        cluster = SimCluster(args.shards, threads=args.threads)
        for node_id, factor in slows:
            cluster.slow(int(node_id), factor)
        sharded = shard_graph(graph, args.shards, strategy=args.partition)
        profiler = ClusterProfiler(cluster)
        with profiler:
            report = distributed_core_decomposition(graph, cluster, sharded)
        from repro.core.decomposition import core_decomposition

        reference = core_decomposition(graph)
        identical = bool((report.coreness == reference).all())
        print(
            f"graph      : {source} (n={graph.num_vertices}, "
            f"m={graph.num_edges})"
        )
        print(
            f"sharding   : {args.shards} x {args.partition}, "
            f"edge cut {sharded.edge_cut} "
            f"({100 * sharded.cut_fraction:.1f}%)"
        )
        print(
            f"supersteps : {report.supersteps} "
            f"({report.local_rounds} local rounds)"
        )
        print(
            f"clock      : compute={report.compute_clock:.0f} "
            f"comms={report.comms_clock:.0f} "
            f"(ratio {report.as_dict()['comms_compute_ratio']:.3f})"
        )
        print(
            f"network    : {report.messages} message(s), "
            f"{report.bytes_sent} byte(s)"
        )
        print(f"bit-identical to single-node decomposition: {identical}")
        payload["decompose"] = report.as_dict()
        payload["bit_identical"] = identical
        if args.mpm:
            mpm_pool = SimulatedPool(threads=args.threads)
            from repro.core.distributed import mpm_core_decomposition

            mpm_coreness, mpm_rounds = mpm_core_decomposition(
                graph, mpm_pool
            )
            mpm_identical = bool((mpm_coreness == reference).all())
            print(
                f"mpm        : {mpm_rounds} rounds single-node "
                f"(vs {report.supersteps} cluster supersteps), "
                f"identical={mpm_identical}"
            )
            payload["mpm"] = {
                "rounds": mpm_rounds,
                "bit_identical": mpm_identical,
                "sim_clock": mpm_pool.clock,
            }
        if not identical:
            return 1

    if args.profile_out:
        paths = profiler.write_artifacts(args.profile_out)
        for kind, path in paths.items():
            print(f"wrote {kind:8s} {path}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"report written to {args.json}")
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    print(f"{'name':16}{'abbrev':8}description")
    for name in dataset_names():
        spec = get_spec(name)
        print(f"{spec.name:16}{spec.abbrev:8}{spec.description}")
    return 0


_COMMANDS = {
    "stats": _cmd_stats,
    "report": _cmd_report,
    "decompose": _cmd_decompose,
    "search": _cmd_search,
    "bestk": _cmd_bestk,
    "datasets": _cmd_datasets,
    "sanitize": _cmd_sanitize,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
    "cluster": _cmd_cluster,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
