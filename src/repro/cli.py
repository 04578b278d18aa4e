"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``stats``      graph statistics + Table-II-style row
``decompose``  coreness histogram and the HCD forest
``search``     best k-core under a community metric
``bestk``      best k for whole k-core sets (Section VI)
``report``     full analysis report (profile, hierarchy, best cores)
``datasets``   list the built-in dataset stand-ins
``sanitize``   every sanitizer family over every kernel and src/ + benchmarks/
``profile``    SimProf: span-trace a run, flame summary + trace exports
``serve``      HCDServe: replay a query trace against a snapshot catalog
``cluster``    SimCluster: sharded decomposition / fault-tolerant serving

Graphs come either from an edge-list file (``--input``) or a built-in
stand-in (``--dataset AS|LJ|...``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
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
            "Run every sanitizer family over the substrate: the SimTSan "
            "race detector and the SimCheck memory & numeric sanitizer "
            "over every registered parallel kernel (4 virtual threads), "
            "the static SAN1xx-SAN3xx lint, the SimFlow SAN4xx "
            "CFG/dataflow analysis, the SimProve SAN5xx static "
            "bounds/determinism certification and the SimDist SAN6xx "
            "distributed-protocol certification over src/ and "
            "benchmarks/ (relative to the working directory), the "
            "SAN002 dead-marker audit, drift of the three committed "
            "manifests, and the seeded-bug selftests."
        ),
        epilog=(
            "Exit status: 0 when every family is clean; 1 when ANY "
            "family reports (a race, a memcheck finding, a lint, flow "
            "or dist error or warning, a dead marker, a SAN501 "
            "provable OOB, flow-, prove- or dist-manifest drift, or a "
            "failed selftest); 2 on usage errors.  One summary line is "
            "printed per family."
        ),
    )
    p_san.add_argument(
        "--write-manifest",
        action="store_true",
        help=(
            "refresh the committed flow_manifest.json, "
            "prove_manifest.json and dist_manifest.json from this run "
            "instead of failing on drift"
        ),
    )
    p_san.add_argument(
        "--report",
        metavar="FILE",
        help="write a JSON report of every family's findings to FILE",
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
    from functools import cache
    from importlib import import_module

    from repro.sanitizer import KERNELS, manifest

    # the static families analyze src/ and benchmarks/ of the working
    # directory; kernels, manifests and selftests come from the package
    scope = [p for p in ("src", "benchmarks") if Path(p).exists()]
    if not scope:
        print(
            f"nothing to analyze: neither src/ nor benchmarks/ exists in "
            f"{Path.cwd()}; run repro sanitize from the checkout root",
            file=sys.stderr,
        )
        return 2
    threads = 4  # every kernel run and seeded selftest
    report_json: dict[str, object] = {
        "schema": "sanitize-report/v2",
        "threads": threads,
    }

    def listing(lines: list) -> None:
        for line in lines or ["clean"]:
            print(f"  {line}")

    # Each family step prints its section, stores its report_json
    # entry and returns (errors, warnings, summary); flow, prove and
    # dist add (committed manifest path, fresh payload).
    kernel_rows: list[dict] = []

    def races():
        from repro.sanitizer import run_kernel

        print(f"== races + memcheck ({threads} virtual threads) ==")
        for name in KERNELS:
            report = run_kernel(name, threads=threads, memcheck=True)
            problems = report.races + report.memcheck_findings
            status = f"{len(problems)} FINDING(S)" if problems else "ok"
            print(
                f"  {name:22s} {report.regions:5d} regions "
                f"{report.events:8d} events  {status}"
            )
            for problem in problems:
                print(f"    {problem}")
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
        report_json["kernels"] = kernel_rows
        found = sum(len(row["races"]) for row in kernel_rows)
        return found, 0, f"{found} finding(s) over {len(KERNELS)} kernel(s)"

    def memcheck():
        mem, nans = (
            sum(len(row[key]) for row in kernel_rows)
            for key in ("memcheck", "nan_origins")
        )
        return mem, 0, f"{mem} finding(s), {nans} NaN origin(s)"

    @cache
    def flow_run():
        module = import_module("repro.sanitizer.flow")
        return module.analyze_paths(scope), module.infer_kernel_effects()

    @cache
    def prove_run():
        return import_module("repro.sanitizer.prove").prove_kernels()

    def lint():
        from repro.sanitizer import Report, lint_paths

        # a disjointness *proof* trumps the pattern checks: SAN201
        # (bare item-derived store) and SAN101 (index the lint cannot
        # relate to the item, e.g. the chunk-loop idiom) both downgrade
        # where SimFlow verified the store
        verified = {
            (str(Path(p).resolve()), ln)
            for p, ln in flow_run()[0].verified_lines()
        }
        print(f"== lint ({', '.join(scope)}) ==")
        findings = lint_paths(scope)
        downgraded = [
            f
            for f in findings
            if f.code in ("SAN101", "SAN201")
            and (str(Path(f.path).resolve()), f.line) in verified
        ]
        kept = Report([f for f in findings if f not in downgraded])
        listing(
            kept.findings
            + [f"{f} [downgraded: verified-disjoint]" for f in downgraded]
        )
        report_json["lint"] = [str(f) for f in kept.findings]
        report_json["lint_downgraded"] = [str(f) for f in downgraded]
        errors, warnings = len(kept.errors), len(kept.warnings)
        summary = f"{errors} error(s), {warnings} warning(s)"
        if downgraded:
            summary += f", {len(downgraded)} downgraded"
        return errors, warnings, summary

    def flow():
        module = import_module("repro.sanitizer.flow")
        report, effects = flow_run()
        print(f"== flow ({', '.join(scope)}) ==")
        cwd = Path.cwd()

        def rel(path: str) -> str:
            try:
                return str(Path(path).resolve().relative_to(cwd))
            except ValueError:
                return path

        listing([replace(f, path=rel(f.path)) for f in report.findings])
        payload = manifest.payload(
            module.FLOW_MANIFEST_SCHEMA, kernels=effects
        )
        report_json["flow"] = {
            "findings": [str(f) for f in report.findings],
            "verified_disjoint": [str(v) for v in report.verified],
            "effects": payload["kernels"],
            "workers": report.workers,
            "files": report.files,
        }
        errors, warnings = len(report.errors), len(report.warnings)
        return (
            errors,
            warnings,
            f"{errors} error(s), {warnings} warning(s), "
            f"{len(report.verified)} verified-disjoint, "
            f"effects over {len(effects)} kernel(s)",
            (module.DEFAULT_FLOW_MANIFEST_PATH, payload),
        )

    def prove():
        module = import_module("repro.sanitizer.prove")
        print("== prove (SimProve SAN5xx static certification) ==")
        report = prove_run()
        for name, cert in sorted(report.certificates.items()):
            bounds = cert.bounds
            tag = "fully-proven" if cert.fully_proven else cert.status
            print(
                f"  {name:22s} {tag:15s} {cert.determinism:15s} "
                f"{bounds['proven']:3d} proven "
                f"{bounds['unproven']:3d} unproven "
                f"{bounds['violations']} violation(s)"
            )
        for finding in report.errors:
            print(f"  {finding}")
        payload = manifest.payload(
            module.MANIFEST_SCHEMA, kernels=report.certificates
        )
        report_json["prove"] = {
            "certificates": payload["kernels"],
            "findings": [str(f) for f in report.findings],
        }
        codes = [f.code for f in report.findings]
        # SAN502/SAN503 are acknowledged by the committed manifest —
        # the manifest IS the prove baseline — so they are not
        # warnings that gate; only provable OOB and drift do
        return (
            len(report.errors),
            0,
            f"{len(report.certified)} certified / "
            f"{len(report.certificates)} kernel(s), "
            f"{len(report.errors)} SAN501, "
            f"{codes.count('SAN502')} SAN502, "
            f"{codes.count('SAN503')} SAN503",
            (module.DEFAULT_MANIFEST_PATH, payload),
        )

    def dist():
        module = import_module("repro.sanitizer.dist")
        print("== dist (SimDist SAN6xx protocol certification) ==")
        report = module.analyze_dist()
        for name, cert in sorted(report.certificates.items()):
            print(
                f"  {name:22s} {cert.status:12s} "
                f"{len(cert.obligations):2d} obligation(s) "
                f"{len(cert.sends)} send site(s) "
                f"{len(cert.handlers)} handler(s)"
            )
        for finding in report.findings:
            print(f"  {finding}")
        payload = manifest.payload(
            module.DIST_MANIFEST_SCHEMA,
            protocols=report.certificates,
            kernels=report.kernels,
        )
        report_json["dist"] = {
            "certificates": payload["protocols"],
            "findings": [str(f) for f in report.findings],
            "kernels": payload["kernels"],
        }
        errors, warnings = len(report.errors), len(report.warnings)
        classified = sum(v != "unclassified" for v in report.kernels.values())
        return (
            errors,
            warnings,
            f"{len(report.certified)} certified / "
            f"{len(report.certificates)} protocol(s), "
            f"{classified}/{len(report.kernels)} kernel(s) classified, "
            f"{errors} error(s), {warnings} warning(s)",
            (module.DEFAULT_DIST_MANIFEST_PATH, payload),
        )

    def suppress():
        from repro.sanitizer.lint import (
            ASSUME_MARKER,
            SUPPRESS_MARKER,
            dead_suppressions,
            source_files,
        )

        # every family that might consume a sani-ok / prove-assume
        # marker (lint, flow, prove) has run, so an unused one is dead
        used_by_file: dict[str, set[int]] = {}
        hits = flow_run()[0].suppressed_hits | prove_run().used_marker_lines
        for p, ln in hits:
            used_by_file.setdefault(str(Path(p).resolve()), set()).add(ln)
        dead: list = []
        for fp in source_files(scope):
            try:
                source = fp.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError):
                continue
            if SUPPRESS_MARKER not in source and ASSUME_MARKER not in source:
                continue
            used = frozenset(used_by_file.get(str(fp.resolve()), ()))
            dead.extend(dead_suppressions(source, str(fp), used))
        print("== suppressions (SAN002 dead-marker audit) ==")
        listing(dead)
        report_json["suppressions"] = [str(f) for f in dead]
        return 0, len(dead), f"{len(dead)} dead suppression(s)"

    def selftest():
        from repro.sanitizer import memcheck_selftest, selftest

        print("== selftest (seeded-bug kernels) ==")
        checks = [
            ("", lambda: selftest(threads=threads)),
            ("", lambda: memcheck_selftest(threads=threads)),
        ]
        for family in ("flow", "prove", "dist"):
            module = import_module(f"repro.sanitizer.{family}")
            checks.append(
                (f"[{family}] ", getattr(module, f"{family}_selftest"))
            )
        failed = 0
        for tag, check in checks:
            ok, message = check()
            print(f"  {tag}{message}")
            failed += not ok
        report_json["selftest"] = failed == 0
        return failed, 0, f"{failed} FAILED" if failed else "ok"

    # every family in run, print and summary order, and whether its
    # warnings gate (and its summary says so); lint reads SimFlow's
    # proofs, so flow's analysis runs first
    table = (
        ("races", races, False),
        ("memcheck", memcheck, False),
        ("lint", lint, True),
        ("flow", flow, True),
        ("prove", prove, False),
        ("dist", dist, True),
        ("suppress", suppress, True),
        ("selftest", selftest, False),
    )
    # per-family results: family -> (failure_count, summary_suffix)
    families: dict[str, tuple[int, str]] = {}
    for family, step, strict in table:
        errors, warnings, summary, *checked = step()
        if checked:
            # refresh the committed manifest, or report every drift line
            path, payload = checked[0]
            drift: list[str] = []
            if args.write_manifest:
                manifest.write(payload, path)
                print(f"  manifest refreshed: {path}")
            else:
                drift = manifest.drift(payload, path, family)
                for line in drift:
                    print(f"  manifest drift: {line}")
            errors += len(drift)
            summary += f", {len(drift)} drift line(s)"
            report_json[family]["drift"] = drift
        if strict:
            errors += warnings
            summary += " [strict]"
        families[family] = (errors, summary)

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
    # sanitize --report, serve --json and cluster --json: a missing
    # output directory is a usage error before any work, not a
    # traceback after all of it
    for flag in ("report", "json"):
        out = getattr(args, flag, None)
        if out and not Path(out).absolute().parent.is_dir():
            print(f"no such directory for --{flag} {out}", file=sys.stderr)
            return 2
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
