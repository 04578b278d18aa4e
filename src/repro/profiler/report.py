"""SimProf aggregation — ``profile.json`` and the terminal flame view.

:func:`profile_report` folds a traced run into a machine-readable
dictionary with three sections:

* ``spans`` — the raw span tree (phases nesting regions), each region
  carrying its cost decomposition and per-thread work;
* ``phases`` — per-phase-path aggregates: elapsed, work / spawn /
  barrier / contention split, the per-thread work histogram with its
  load-imbalance factor, and the top-N hottest contended cache lines
  (``hot_locations``) — the "which PHCD level is the bottleneck at
  p=8" answer;
* ``totals`` — whole-run decomposition plus the exact-coverage check
  (``region_elapsed_sum`` must equal ``clock``).

:func:`flame_summary` renders the same data as an indented terminal
tree with percentage bars — a flame graph for people without a
browser at hand.
"""

from __future__ import annotations

from repro.parallel.cost_model import (
    ATOMIC_COST,
    BARRIER_COST,
    CONTENDED_ATOMIC_COST,
    OP_COST,
    SPAWN_COST,
    ordered_sum,
)
from repro.profiler.tracer import Span, SpanTracer

__all__ = ["profile_report", "flame_summary", "phase_table"]

#: contended locations kept per phase in the report
DEFAULT_TOP_LOCATIONS = 8

_COST_KEYS = ("work", "spawn", "barrier", "contention")


def _new_agg() -> dict:
    return {
        "elapsed": 0.0,
        "regions": 0,
        "items": 0,
        "atomic_ops": 0,
        "costs": {k: 0.0 for k in _COST_KEYS},
        "thread_work": [],
        "_locations": {},
    }


def _fold_region(agg: dict, span: Span) -> None:
    agg["elapsed"] += span.elapsed
    agg["regions"] += 1
    agg["items"] += span.items
    agg["atomic_ops"] += span.atomic_ops
    for k in _COST_KEYS:
        agg["costs"][k] += span.costs.get(k, 0.0)
    tw = agg["thread_work"]
    if len(tw) < len(span.thread_work):
        tw.extend([0.0] * (len(span.thread_work) - len(tw)))
    for t, w in enumerate(span.thread_work):
        tw[t] += w
    locations = agg["_locations"]
    for loc, (ops, queued) in span.contention.items():
        total_ops, total_queued = locations.get(loc, (0, 0))
        locations[loc] = (total_ops + ops, total_queued + queued)


def _imbalance(thread_work: list[float]) -> float:
    if len(thread_work) <= 1:
        return 1.0
    total = ordered_sum(thread_work)
    if total <= 0:
        return 1.0
    return max(thread_work) * len(thread_work) / total


def _finalize_phase(path: str, agg: dict, top: int) -> dict:
    hot = sorted(
        agg["_locations"].items(),
        key=lambda kv: (-kv[1][1], -kv[1][0], repr(kv[0])),
    )[:top]
    return {
        "path": path,
        "elapsed": agg["elapsed"],
        "regions": agg["regions"],
        "items": agg["items"],
        "atomic_ops": agg["atomic_ops"],
        "costs": dict(agg["costs"]),
        "thread_work": list(agg["thread_work"]),
        "imbalance": _imbalance(agg["thread_work"]),
        "hot_locations": [
            {
                "location": repr(loc),
                "ops": ops,
                "queued": queued,
                "penalty": queued * CONTENDED_ATOMIC_COST,
            }
            for loc, (ops, queued) in hot
        ],
    }


def profile_report(
    tracer: SpanTracer, pool, top: int = DEFAULT_TOP_LOCATIONS
) -> dict:
    """Aggregate a traced run into the ``profile.json`` dictionary.

    Regions are attributed to the phase *path* of their enclosing
    phase spans joined with ``/`` (e.g. ``phcd/phcd:level-3``);
    regions outside any phase fall under ``(unphased)``.  Every region
    lands in exactly one path, so the phase elapsed values sum to the
    pool clock (up to float associativity; the bitwise-exact check is
    ``totals.region_elapsed_sum``).
    """
    phases: dict[str, dict] = {}
    order: list[str] = []

    def visit(span: Span, path: tuple[str, ...]) -> None:
        if span.kind == "phase":
            for child in span.children:
                visit(child, path + (span.name,))
            return
        key = "/".join(path) if path else "(unphased)"
        if key not in phases:
            phases[key] = _new_agg()
            order.append(key)
        _fold_region(phases[key], span)

    for root in tracer.roots:
        visit(root, ())

    totals = _new_agg()
    for span in tracer.region_spans():
        _fold_region(totals, span)

    return {
        "schema": "simprof/v1",
        "threads": pool.threads,
        "clock": pool.clock,
        "cost_model": {
            "op_cost": OP_COST,
            "atomic_cost": ATOMIC_COST,
            "contended_atomic_cost": CONTENDED_ATOMIC_COST,
            "spawn_cost": SPAWN_COST,
            "barrier_cost": BARRIER_COST,
        },
        "totals": {
            "region_elapsed_sum": tracer.total_elapsed(),
            "regions": totals["regions"],
            "atomic_ops": totals["atomic_ops"],
            "costs": dict(totals["costs"]),
            "imbalance": _imbalance(totals["thread_work"]),
        },
        "phases": [
            _finalize_phase(path, phases[path], top)
            for path in order
        ],
        "spans": [root.to_dict() for root in tracer.roots],
    }


# ----------------------------------------------------------------------
# terminal rendering
# ----------------------------------------------------------------------


def _bar(fraction: float, width: int = 20) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def phase_totals(report: dict, prefix: str = "") -> dict[str, float]:
    """Elapsed simulated time per phase path, optionally prefix-filtered.

    Convenience over :func:`profile_report` output for callers that
    only care whether (and how long) certain phases ran — e.g. the
    serving path asserting its ``serve.*`` stages appear in the span
    tree.  Paths are ``/``-joined phase stacks, insertion-ordered.
    """
    return {
        phase["path"]: phase["elapsed"]
        for phase in report["phases"]
        if phase["path"].startswith(prefix)
    }


def phase_table(report: dict) -> str:
    """Per-phase cost-decomposition table from a profile report."""
    clock = report["clock"] or 1.0
    lines = [
        f"{'phase':<34} {'elapsed':>12} {'%':>6}  "
        f"{'work%':>6} {'spawn%':>6} {'barr%':>6} {'cont%':>6} {'imbal':>6}"
    ]
    for phase in report["phases"]:
        elapsed = phase["elapsed"] or 1.0
        costs = phase["costs"]
        lines.append(
            f"{phase['path']:<34} {phase['elapsed']:>12.0f} "
            f"{100 * phase['elapsed'] / clock:>5.1f}%  "
            f"{100 * costs['work'] / elapsed:>5.1f}% "
            f"{100 * costs['spawn'] / elapsed:>5.1f}% "
            f"{100 * costs['barrier'] / elapsed:>5.1f}% "
            f"{100 * costs['contention'] / elapsed:>5.1f}% "
            f"{phase['imbalance']:>5.2f}x"
        )
    return "\n".join(lines)


def flame_summary(report: dict, max_depth: int = 6) -> str:
    """Indented span tree with bars — a terminal flame graph.

    ``max_depth`` truncates very deep nests; region leaves with zero
    elapsed time are dropped for readability.
    """
    clock = report["clock"] or 1.0
    out = [
        f"SimProf — {report['threads']} virtual threads, "
        f"clock {report['clock']:.0f} sim units"
    ]

    def visit(node: dict, depth: int) -> None:
        if depth > max_depth:
            return
        elapsed = node.get("elapsed", 0.0)
        if node.get("kind") != "phase" and elapsed == 0.0:
            return
        frac = elapsed / clock
        label = ("  " * depth) + node["name"]
        suffix = ""
        if node.get("kind") != "phase":
            suffix = (
                f"  p={node.get('threads', 1)}"
                f" items={node.get('items', 0)}"
                f" imbal={node.get('imbalance', 1.0):.2f}x"
            )
        out.append(
            f"{label:<42} {elapsed:>12.0f} {100 * frac:>5.1f}% "
            f"|{_bar(frac)}|{suffix}"
        )
        for child in node.get("children", ()):
            visit(child, depth + 1)

    for root in report["spans"]:
        visit(root, 0)
    out.append("")
    out.append(phase_table(report))

    hot = [
        (phase["path"], loc)
        for phase in report["phases"]
        for loc in phase["hot_locations"]
        if loc["queued"] > 0
    ]
    if hot:
        hot.sort(key=lambda pair: -pair[1]["penalty"])
        out.append("")
        out.append("hottest contended cache lines:")
        for path, loc in hot[:DEFAULT_TOP_LOCATIONS]:
            out.append(
                f"  {loc['location']:<38} phase={path:<28} "
                f"ops={loc['ops']:<8} queued={loc['queued']:<8} "
                f"penalty={loc['penalty']:.0f}"
            )
    return "\n".join(out)
