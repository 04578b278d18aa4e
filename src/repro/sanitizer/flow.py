"""SimFlow — interprocedural CFG dataflow analysis (SAN4xx).

The SAN1xx–3xx lints are per-statement AST pattern checks.  SimFlow is
the next rung: it builds a control-flow graph per function
(:mod:`repro.sanitizer.cfg`), a call graph over ``src/repro`` (plus any
extra analyzed trees), and runs three flow-sensitive analyses over
every ``parallel_for`` / ``parallel_slices`` worker closure *and the
helpers it calls*:

**Divergent-sync analysis (SAN401/SAN402).**  The substrate's kernels
are bulk-synchronous: every virtual thread must reach the same sync
points.  A taint lattice marks *thread-variant* values — the loop
item, anything reached through ``ctx`` (``ctx.thread_id``, values
loaded via charged helpers), and everything data-dependent on them —
and postdominator-based control dependence then decides whether a
sync-relevant operation's reachability or execution count depends on a
thread-variant value:

========  ========  ====================================================
code      severity  meaning
========  ========  ====================================================
SAN401    error     barrier-class operation (nested ``parallel_for``,
                    ``pool.phase`` / ``serial_region`` entry) reachable
                    only under a thread-variant branch — the static
                    analogue of a mismatched-collective hang
SAN402    error     sync operation whose per-thread execution count
                    provably differs: a barrier-class op inside a loop
                    with thread-variant bounds, or a *contended*
                    ``ctx.atomic`` on a thread-uniform location under
                    thread-variant control
SAN402    warning   nested parallel region reached uniformly inside a
                    worker (the substrate raises ``SchedulerError`` at
                    runtime; a real backend would nest or deadlock)
========  ========  ====================================================

``contended=False`` atomics (commutative relaxed accumulation) are
exempt — they pair with nothing, so divergence cannot hang them.

**Disjoint-write inference (SAN403 / verified-disjoint).**  A symbolic
interval analysis over loop and chunk bounds classifies every bare
subscript store into a captured container:

* *verified-disjoint* — the index is affine in the loop item
  (``a*item + b``, covering strided per-item slices when the store
  interval width fits the stride), or stays inside the worker's owned
  ``[start, end)`` chunk for the ``start, end = chunk`` idiom.  Sites
  the SAN201 lint would warn about are downgraded.
* SAN403 (error) — the store provably escapes the owned slice
  (``arr[i + 1]`` inside ``for i in range(start, end)``, ``arr[end]``,
  or an index that folds contiguous items via ``% c`` / ``// c``).
* *unproven* — neither; the SAN1xx/2xx lint verdict stands.

**Kernel effect signatures.**  For every kernel on the
:data:`repro.sanitizer.kernels.KERNELS` registry, SimFlow walks the
call graph from the kernel body to every reachable ``parallel_for``
worker and infers the kernel's effect sets — captured containers read
and written, plus names synchronized through atomics (``Atomic*``
receivers called with ``ctx`` and constant ``ctx.atomic`` location
tags).  The inferred signatures are recorded in ``flow_manifest.json``
next to this module and checked by the shared
:mod:`repro.sanitizer.manifest` drift check, like the SimProve and
SimDist manifests: a kernel whose parallel footprint changed shows as
one drift line per added or dropped name
(``kernels.pkc.writes: [...] -> [...]``).  Refresh with
``repro sanitize --write-manifest``.

A trailing ``# sani: ok - reason`` comment suppresses SimFlow findings
on that line, same as the SAN1xx–3xx lint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.sanitizer import effects
from repro.sanitizer.cfg import CFG, build_cfg
from repro.sanitizer.intervals import (
    aff_add,
    aff_const,
    aff_scale,
    aff_sub,
    aff_sym,
)
from repro.sanitizer.lint import (
    MUTATING_METHODS,
    SAFE_BUILTINS,
    Finding,
    Report,
    _assigned_names,
    _base_name,
    _find_workers,
    _free_names,
    _passes,
    _suppressed_lines,
    _WorkerInfo,
    source_files,
)

__all__ = [
    "VerifiedStore",
    "FlowReport",
    "EffectSignature",
    "FlowAnalyzer",
    "ModuleIndex",
    "analyze_paths",
    "analyze_source",
    "infer_kernel_effects",
    "flow_manifest_payload",
    "flow_selftest",
    "DEFAULT_FLOW_MANIFEST_PATH",
    "FLOW_MANIFEST_SCHEMA",
]

#: Committed per-kernel effect record, next to this module.
DEFAULT_FLOW_MANIFEST_PATH = Path(__file__).with_name("flow_manifest.json")
FLOW_MANIFEST_SCHEMA = "flow-manifest/v1"

#: Interprocedural recursion bound (call chains deeper than this are
#: assumed sync-free; the repo's worker->helper chains are depth <= 2).
MAX_CALL_DEPTH = 4


@dataclass(frozen=True)
class VerifiedStore:
    """One subscript store proved disjoint across virtual threads."""

    path: str
    line: int
    base: str
    worker: str
    mode: str  # "per-item" | "chunk"

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line} store into {self.base!r} "
            f"verified-disjoint ({self.mode}, worker {self.worker!r})"
        )


@dataclass
class FlowReport(Report):
    """Outcome of one SimFlow run over a path set."""

    verified: list[VerifiedStore] = field(default_factory=list)
    files: int = 0
    workers: int = 0
    #: (path, line) of suppression markers that actually swallowed a
    #: finding this run — SAN002 (dead-suppression) treats these alive
    suppressed_hits: set = field(default_factory=set)

    def verified_lines(self) -> set[tuple[str, int]]:
        """(path, line) pairs eligible for a SAN201 downgrade."""
        return {(v.path, v.line) for v in self.verified}


@dataclass(frozen=True)
class EffectSignature:
    """Inferred read/write/atomic effect sets of a kernel."""

    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    atomics: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, list[str]]:
        return {
            "reads": list(self.reads),
            "writes": list(self.writes),
            "atomics": list(self.atomics),
        }


# ======================================================================
# module index + call graph
# ======================================================================


class ModuleInfo:
    """Parsed module: function table, import aliases, suppressions."""

    def __init__(self, name: str, path: str, source: str) -> None:
        self.name = name
        self.path = path
        self.tree = ast.parse(source, filename=path)
        self.suppressed = _suppressed_lines(source)
        #: dotted local path ("outer.inner") -> function node
        self.functions: dict[str, ast.FunctionDef] = {}
        #: local alias -> (module, attr-or-None)
        self.imports: dict[str, tuple[str, str | None]] = {}
        self._collect()

    def _collect(self) -> None:
        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    qual = f"{prefix}{child.name}" if prefix else child.name
                    self.functions[qual] = child
                    visit(child, qual + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(self.tree, "")
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name,
                        None,
                    )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    if node.module:
                        self.imports[alias.asname or alias.name] = (
                            node.module,
                            alias.name,
                        )


@dataclass(frozen=True)
class FunctionRef:
    """A resolved function: its module plus local dotted path."""

    module: "ModuleInfo"
    qualpath: str
    node: ast.FunctionDef

    @property
    def qualname(self) -> str:
        return f"{self.module.name}.{self.qualpath}"


class ModuleIndex:
    """File set under analysis, keyed by module name and by path."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.by_path: dict[str, ModuleInfo] = {}

    def add_file(self, path: Path, module_name: str) -> ModuleInfo | None:
        key = str(path.resolve())
        if key in self.by_path:
            return self.by_path[key]
        try:
            source = path.read_text(encoding="utf-8")
            info = ModuleInfo(module_name, str(path), source)
        except (OSError, SyntaxError, UnicodeDecodeError):
            return None  # the lint pass reports these as SAN000
        self.modules[module_name] = info
        self.by_path[key] = info
        return info

    def add_tree(self, root: Path) -> None:
        """Index every ``*.py`` under ``root`` as dotted modules."""
        root = root.resolve()
        for f in sorted(root.rglob("*.py")):
            parts = f.relative_to(root.parent).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            self.add_file(f, ".".join(parts))

    def get_function(self, module: str, name: str) -> FunctionRef | None:
        info = self.modules.get(module)
        if info is None:
            return None
        node = info.functions.get(name)
        if node is None:
            return None
        return FunctionRef(info, name, node)

    def resolve_call(
        self, module: ModuleInfo, scope: tuple[str, ...], call: ast.Call
    ) -> FunctionRef | None:
        """Resolve a call's target within the indexed file set.

        Bare names search the enclosing function scopes innermost-out,
        then module top level, then ``from X import y`` aliases;
        ``m.f(...)`` resolves through ``import m`` aliases.  Method
        calls on objects are not resolved (class dispatch is out of
        scope — receivers show up in effect sets instead).
        """
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            for depth in range(len(scope), -1, -1):
                prefix = ".".join(scope[:depth])
                qual = f"{prefix}.{name}" if prefix else name
                node = module.functions.get(qual)
                if node is not None:
                    return FunctionRef(module, qual, node)
            target = module.imports.get(name)
            if target is not None:
                mod, attr = target
                if attr is not None:
                    return self.get_function(mod, attr)
            return None
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            target = module.imports.get(func.value.id)
            if target is not None and target[1] is None:
                return self.get_function(target[0], func.attr)
        return None


def default_index() -> ModuleIndex:
    """Index of the repo's own ``src`` tree (the call-graph universe)."""
    index = ModuleIndex()
    src_root = Path(__file__).resolve().parents[2]
    index.add_tree(src_root / "repro")
    return index


# ======================================================================
# affine / interval arithmetic for the disjoint-write proof
# ======================================================================

#: Affine values are dicts {symbol: coefficient} with "" as the
#: constant term.  Symbols are the item parameter, chunk bounds, and
#: range-loop variables.  ``None`` means "not affine"; the sentinel
#: below marks a provably non-injective fold of the item.
_NON_INJECTIVE = object()


class _AffineEnv:
    """Evaluates expressions to affine forms over the worker's symbols."""

    def __init__(
        self,
        symbols: set[str],
        bindings: dict[str, ast.expr],
        item: str | None,
    ) -> None:
        self.symbols = symbols  # item / chunk bounds / loop vars
        self.bindings = bindings  # single-assignment name -> value expr
        self.item = item
        #: loop variables over a thread's slice, each standing for an item
        self.aliases: set[str] = set()
        self._cache: dict[str, object] = {}
        self._busy: set[str] = set()

    def eval(self, expr: ast.expr) -> object:
        """Affine dict, :data:`_NON_INJECTIVE`, or None."""
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, bool) or not isinstance(expr.value, int):
                return None
            return aff_const(expr.value)
        if isinstance(expr, ast.Name):
            return self._name(expr.id)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and f"{expr.value.id}.{expr.attr}" in self.symbols
        ):
            # a slice's bounds: vs.start / vs.stop
            return aff_sym(f"{expr.value.id}.{expr.attr}")
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
            inner = self.eval(expr.operand)
            if isinstance(inner, dict):
                return aff_scale(inner, -1)
            return inner
        if isinstance(expr, ast.Call):
            # int(x) is affine-transparent; everything else is opaque
            if (
                isinstance(expr.func, ast.Name)
                and expr.func.id == "int"
                and len(expr.args) == 1
                and not expr.keywords
            ):
                return self.eval(expr.args[0])
            return None
        if isinstance(expr, ast.BinOp):
            return self._binop(expr)
        return None

    def _name(self, name: str) -> object:
        if name in self.aliases:
            return aff_sym(self.item)
        if name in self.symbols:
            return aff_sym(name)
        if name in self._cache:
            return self._cache[name]
        bound = self.bindings.get(name)
        if bound is None or name in self._busy:
            return None
        self._busy.add(name)
        try:
            value = self.eval(bound)
        finally:
            self._busy.discard(name)
        self._cache[name] = value
        return value

    def _binop(self, expr: ast.BinOp) -> object:
        left = self.eval(expr.left)
        right = self.eval(expr.right)
        if isinstance(expr.op, (ast.Mod, ast.FloorDiv)):
            # item % c / item // c with constant c >= 2 provably folds
            # distinct (contiguous) items onto shared slots
            if (
                isinstance(left, dict)
                and self.item is not None
                and left.get(self.item)
                and isinstance(right, dict)
                and set(right) == {""}
                and abs(right[""]) >= 2
            ):
                return _NON_INJECTIVE
            return None
        if left is _NON_INJECTIVE or right is _NON_INJECTIVE:
            return _NON_INJECTIVE
        if not isinstance(left, dict) or not isinstance(right, dict):
            return None
        if isinstance(expr.op, ast.Add):
            return aff_add(left, right)
        if isinstance(expr.op, ast.Sub):
            return aff_sub(left, right)
        if isinstance(expr.op, ast.Mult):
            if set(left) == {""}:
                return aff_scale(right, left[""])
            if set(right) == {""}:
                return aff_scale(left, right[""])
        return None


def _range_bounds(
    call: ast.expr, env: _AffineEnv
) -> tuple[object, object] | None:
    """(lo, hi) affine bounds of a ``range(...)`` call, else None.

    Only unit-step ranges are handled; ``hi`` is exclusive.
    """
    if not (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "range"
        and not call.keywords
        and 1 <= len(call.args) <= 3
    ):
        return None
    if len(call.args) == 3:
        step = call.args[2]
        if not (isinstance(step, ast.Constant) and step.value == 1):
            return None
    if len(call.args) == 1:
        lo: object = aff_const(0)
        hi = env.eval(call.args[0])
    else:
        lo = env.eval(call.args[0])
        hi = env.eval(call.args[1])
    if not isinstance(lo, dict) or not isinstance(hi, dict):
        return None
    return lo, hi


# ======================================================================
# the analyzer
# ======================================================================


@dataclass(frozen=True)
class _SyncIssue:
    """A sync op's classification inside one analyzed function."""

    kind: str  # "branch" | "loop" | "nested-region" | "uniform"
    attr: str  # the operation name, e.g. "parallel_for"
    line: int
    qualname: str  # function the op textually lives in


class FlowAnalyzer:
    """SimFlow over a module index; reusable across files and kernels."""

    def __init__(self, index: ModuleIndex | None = None) -> None:
        self.index = index if index is not None else default_index()
        #: (qualname, variant-params, ctx-params) -> list[_SyncIssue]
        self._summaries: dict[tuple, list[_SyncIssue]] = {}

    # ------------------------------------------------------------------
    # path analysis: divergence + disjoint writes over worker closures
    # ------------------------------------------------------------------

    def analyze_paths(self, paths: list) -> FlowReport:
        report = FlowReport()
        for f in source_files(paths):
            self._analyze_file(f, report)
        _finish(report)
        return report

    def _module_for(self, path: Path) -> ModuleInfo | None:
        key = str(path.resolve())
        info = self.index.by_path.get(key)
        if info is not None:
            return info
        return self.index.add_file(path, path.stem)

    def _analyze_file(self, path: Path, report: FlowReport) -> None:
        info = self._module_for(path)
        if info is None:
            return
        report.files += 1
        self.analyze_module(info, report)

    def analyze_module(self, info: ModuleInfo, report: FlowReport) -> None:
        seen: set[int] = set()
        for worker in _find_workers(info.tree):
            if id(worker.node) in seen:
                continue
            seen.add(id(worker.node))
            report.workers += 1
            self._analyze_worker(worker, info, report)

    def _worker_scope(self, info: ModuleInfo, node: ast.AST) -> tuple[str, ...]:
        """Dotted scope of the function lexically containing ``node``."""
        for qual, fn in info.functions.items():
            for inner in ast.walk(fn):
                if inner is node and inner is not fn:
                    return tuple(qual.split("."))
        return ()

    def _analyze_worker(
        self, worker: _WorkerInfo, info: ModuleInfo, report: FlowReport
    ) -> None:
        node = worker.node
        scope = self._worker_scope(info, node)
        name = getattr(node, "name", "<lambda>")
        variant = {n for n in (worker.item, worker.ctx) if n}
        ctx_names = {worker.ctx} if worker.ctx else set()
        issues = self._function_sync_issues(
            node,
            info,
            scope + (name,),
            variant_names=variant,
            ctx_names=ctx_names,
            depth=0,
        )
        for issue in issues:
            self._emit_sync(issue, worker, info, report)
        self._disjoint_stores(worker, info, report, worker_name=name)

    # -- divergence ----------------------------------------------------

    def _function_sync_issues(
        self,
        node,
        info: ModuleInfo,
        scope: tuple[str, ...],
        variant_names: set[str],
        ctx_names: set[str],
        depth: int,
    ) -> list[_SyncIssue]:
        """Classify every sync op reachable from ``node``'s body."""
        if depth > MAX_CALL_DEPTH:
            return []
        cfg = build_cfg(node)
        variant = self._taint(node, variant_names)
        cd = cfg.transitive_control_dependence()

        def test_variant(bid: int) -> bool:
            test = cfg.blocks[bid].test
            return test is not None and self._expr_variant(test, variant)

        div_branch = [False] * len(cfg.blocks)
        div_loop = [False] * len(cfg.blocks)
        for b in range(len(cfg.blocks)):
            for c in cd[b]:
                if not test_variant(c):
                    continue
                if cfg.blocks[c].kind == "if":
                    div_branch[b] = True
                elif cfg.blocks[c].is_loop:
                    div_loop[b] = True

        qualname = f"{info.name}.{'.'.join(scope)}" if scope else info.name
        issues: list[_SyncIssue] = []
        for block in cfg.blocks:
            for stmt in block.stmts:
                for call in ast.walk(stmt):
                    if not isinstance(call, ast.Call):
                        continue
                    issues.extend(
                        self._classify_call(
                            call,
                            block.bid,
                            div_branch,
                            div_loop,
                            variant,
                            ctx_names,
                            info,
                            scope,
                            qualname,
                            depth,
                        )
                    )
        return issues

    def _classify_call(
        self,
        call: ast.Call,
        bid: int,
        div_branch: list[bool],
        div_loop: list[bool],
        variant: set[str],
        ctx_names: set[str],
        info: ModuleInfo,
        scope: tuple[str, ...],
        qualname: str,
        depth: int,
    ) -> list[_SyncIssue]:
        func = call.func
        here_branch = div_branch[bid]
        here_loop = div_loop[bid]

        if isinstance(func, ast.Attribute):
            base = _base_name(func.value)
            # a region or phase of the pool (the only class declaring
            # either) is a collective act
            access = effects.agreed(func.attr, "access")
            collective = access in (effects.REGION, effects.BARRIER)
            if collective and base not in ctx_names:
                if here_branch:
                    kind = "branch"
                elif here_loop:
                    kind = "loop"
                elif access == effects.REGION:
                    kind = "nested-region"
                else:
                    kind = "uniform"
                return [_SyncIssue(kind, func.attr, call.lineno, qualname)]
            # a scalar atomic on a tagged word (ctx.atomic)
            eff = effects.ctx_call(func.attr) if base in ctx_names else None
            if eff is not None and (eff.access, eff.index) == (
                effects.RMW, effects.SCALAR
            ):
                contended = True
                for kw in call.keywords:
                    if (
                        kw.arg == "contended"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is False
                    ):
                        contended = False
                location = call.args[0] if call.args else None
                uniform_loc = location is not None and not self._expr_variant(
                    location, variant
                )
                if contended and uniform_loc and (here_branch or here_loop):
                    return [
                        _SyncIssue("loop", "atomic", call.lineno, qualname)
                    ]
                return []

        # interprocedural: follow resolvable plain-function calls
        target = self.index.resolve_call(info, scope, call)
        if target is None:
            return []
        callee_issues = self._callee_summary(
            target, call, variant, ctx_names, depth
        )
        out: list[_SyncIssue] = []
        for issue in callee_issues:
            kind = issue.kind
            # the call site's own divergence dominates the callee's
            if here_branch:
                kind = "branch"
            elif here_loop and kind in ("uniform", "nested-region"):
                kind = "loop"
            out.append(
                _SyncIssue(kind, issue.attr, call.lineno, issue.qualname)
            )
        return out

    def _callee_summary(
        self,
        target: FunctionRef,
        call: ast.Call,
        variant: set[str],
        ctx_names: set[str],
        depth: int,
    ) -> list[_SyncIssue]:
        params = [
            a.arg
            for a in (
                target.node.args.posonlyargs + target.node.args.args
            )
        ]
        variant_idx: set[int] = set()
        ctx_idx: set[int] = set()

        def classify_arg(i: int, arg: ast.expr) -> None:
            if i >= len(params):
                return
            if self._expr_variant(arg, variant):
                variant_idx.add(i)
            if isinstance(arg, ast.Name) and arg.id in ctx_names:
                ctx_idx.add(i)

        for i, arg in enumerate(call.args):
            classify_arg(i, arg)
        for kw in call.keywords:
            if kw.arg in params:
                classify_arg(params.index(kw.arg), kw.value)

        key = (
            target.qualname,
            frozenset(variant_idx),
            frozenset(ctx_idx),
        )
        if key in self._summaries:
            return self._summaries[key]
        self._summaries[key] = []  # cycle guard: recursion is sync-free
        callee_variant = {params[i] for i in variant_idx} | {
            params[i] for i in ctx_idx
        }
        callee_ctx = {params[i] for i in ctx_idx}
        scope = tuple(target.qualpath.split("."))
        issues = self._function_sync_issues(
            target.node,
            target.module,
            scope,
            variant_names=callee_variant,
            ctx_names=callee_ctx,
            depth=depth + 1,
        )
        self._summaries[key] = issues
        return issues

    def _taint(self, node, seeds: set[str]) -> set[str]:
        """Thread-variant names: fixpoint over the function's bindings."""
        variant = set(seeds)
        changed = True
        while changed:
            changed = False
            for inner in ast.walk(node):
                target: ast.expr | None = None
                value: ast.expr | None = None
                if isinstance(inner, ast.Assign):
                    value = inner.value
                    targets = inner.targets
                elif isinstance(inner, (ast.AugAssign, ast.AnnAssign)):
                    value = inner.value
                    targets = [inner.target]
                elif isinstance(inner, ast.NamedExpr):
                    value = inner.value
                    targets = [inner.target]
                elif isinstance(inner, (ast.For, ast.AsyncFor)):
                    value = inner.iter
                    targets = [inner.target]
                elif isinstance(inner, ast.withitem):
                    value = inner.context_expr
                    targets = (
                        [inner.optional_vars]
                        if inner.optional_vars is not None
                        else []
                    )
                else:
                    continue
                if value is None or not self._expr_variant(value, variant):
                    continue
                for target in targets:
                    for tname in ast.walk(target):
                        if (
                            isinstance(tname, ast.Name)
                            and tname.id not in variant
                        ):
                            variant.add(tname.id)
                            changed = True
        return variant

    @staticmethod
    def _expr_variant(expr: ast.expr, variant: set[str]) -> bool:
        return any(n in variant for n in _free_names(expr))

    def _emit_sync(
        self,
        issue: _SyncIssue,
        worker: _WorkerInfo,
        info: ModuleInfo,
        report: FlowReport,
    ) -> None:
        if issue.kind == "uniform":
            return
        worker_name = getattr(worker.node, "name", "<lambda>")
        where = (
            ""
            if issue.qualname.endswith(f".{worker_name}")
            else f" (via {issue.qualname})"
        )
        if issue.kind == "branch":
            code, severity = "SAN401", "error"
            message = (
                f"sync operation .{issue.attr}() is reachable only under "
                "a thread-variant branch: virtual threads disagree on "
                "arriving at this collective — the static analogue of a "
                f"mismatched-barrier hang{where}"
            )
        elif issue.kind == "loop":
            code, severity = "SAN402", "error"
            message = (
                f"per-thread execution count of sync operation "
                f".{issue.attr}() differs across threads (thread-variant "
                f"loop bounds or guard): collectives must pair "
                f"1:1 across the region{where}"
            )
        else:  # nested-region
            code, severity = "SAN402", "warning"
            message = (
                f"nested parallel region .{issue.attr}() inside worker "
                f"{worker_name!r}: the substrate raises SchedulerError "
                f"when this executes; hoist it out of the worker{where}"
            )
        # interprocedural issues carry the caller-side call line, so
        # the finding (and any suppression) lands in the worker's file
        line = issue.line
        if line in info.suppressed:
            report.suppressed_hits.add((info.path, line))
            return
        report.findings.append(
            Finding(
                path=info.path,
                line=line,
                col=0,
                code=code,
                severity=severity,
                message=message,
            )
        )

    # -- disjoint writes -----------------------------------------------

    def _disjoint_stores(
        self,
        worker: _WorkerInfo,
        info: ModuleInfo,
        report: FlowReport,
        worker_name: str,
    ) -> None:
        node = worker.node
        if isinstance(node, ast.Lambda):
            return  # a lambda body cannot contain a statement store
        locals_: set[str] = set()
        for stmt in node.body:
            locals_ |= _assigned_names(stmt)
        params = {p for p in (worker.item, worker.ctx) if p}

        # assignment counts decide which names are single-assignment
        counts: dict[str, int] = {}
        bindings: dict[str, ast.expr] = {}
        for inner in ast.walk(node):
            if isinstance(inner, ast.Assign) and len(inner.targets) == 1:
                t = inner.targets[0]
                if isinstance(t, ast.Name):
                    counts[t.id] = counts.get(t.id, 0) + 1
                    bindings[t.id] = inner.value
                elif isinstance(t, ast.Tuple):
                    for e in t.elts:
                        if isinstance(e, ast.Name):
                            counts[e.id] = counts.get(e.id, 0) + 1
            elif isinstance(inner, (ast.AugAssign, ast.AnnAssign)):
                if isinstance(inner.target, ast.Name):
                    counts[inner.target.id] = (
                        counts.get(inner.target.id, 0) + 2
                    )  # re-binding: never single-assignment
            elif isinstance(inner, (ast.For, ast.AsyncFor)):
                for e in ast.walk(inner.target):
                    if isinstance(e, ast.Name):
                        counts[e.id] = counts.get(e.id, 0) + 2
        bindings = {
            n: v for n, v in bindings.items() if counts.get(n, 0) == 1
        }

        # the chunk idiom: start, end = <item>
        chunk: tuple[str, str] | None = None
        if worker.item:
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Assign)
                    and len(inner.targets) == 1
                    and isinstance(inner.targets[0], ast.Tuple)
                    and len(inner.targets[0].elts) == 2
                    and all(
                        isinstance(e, ast.Name)
                        for e in inner.targets[0].elts
                    )
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id == worker.item
                ):
                    lo, hi = (e.id for e in inner.targets[0].elts)
                    if counts.get(lo, 0) == 1 and counts.get(hi, 0) == 1:
                        chunk = (lo, hi)
                    break

        item_ok = worker.item is not None and counts.get(worker.item, 0) == 0
        # the slice idiom: a parallel_slices worker over a range owns
        # [vs.start, vs.stop)
        if worker.slices and item_ok and chunk is None:
            bounds = {
                inner.attr
                for inner in ast.walk(node)
                if isinstance(inner, ast.Attribute)
                and isinstance(inner.value, ast.Name)
                and inner.value.id == worker.item
            }
            if {"start", "stop"} <= bounds:
                chunk = (f"{worker.item}.start", f"{worker.item}.stop")
        symbols: set[str] = set()
        if item_ok and chunk is None:
            symbols.add(worker.item)  # type: ignore[arg-type]
        if chunk is not None:
            symbols |= set(chunk)
        env = _AffineEnv(
            symbols, bindings, worker.item if item_ok else None
        )
        contiguous = isinstance(worker.items, ast.Call) and (
            isinstance(worker.items.func, ast.Name)
            and worker.items.func.id == "range"
        )

        # walk statements with the enclosing for-loop stack
        loop_stack: list[tuple[str, dict[str, int], dict[str, int]]] = []

        def visit(stmts: list[ast.stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.For, ast.AsyncFor)):
                    bound = None
                    if isinstance(stmt.target, ast.Name):
                        bound = _range_bounds(stmt.iter, env)
                    if bound is not None:
                        lo, hi = bound
                        symbols.add(stmt.target.id)  # loop var is symbolic
                        loop_stack.append(
                            (stmt.target.id, lo, hi)  # type: ignore[arg-type]
                        )
                        check_stmt(stmt)
                        visit(stmt.body)
                        visit(stmt.orelse)
                        loop_stack.pop()
                        symbols.discard(stmt.target.id)
                    elif item_ok and chunk is None and worker.slice_loop(stmt):
                        # each element of the thread's slice is an item
                        env.aliases.add(stmt.target.id)
                        check_stmt(stmt)
                        visit(stmt.body)
                        visit(stmt.orelse)
                        env.aliases.discard(stmt.target.id)
                    else:
                        check_stmt(stmt)
                        visit(stmt.body)
                        visit(stmt.orelse)
                elif isinstance(stmt, (ast.If, ast.While)):
                    check_stmt(stmt)
                    visit(stmt.body)
                    visit(stmt.orelse)
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    check_stmt(stmt)
                    visit(stmt.body)
                elif isinstance(stmt, ast.Try):
                    visit(stmt.body)
                    for handler in stmt.handlers:
                        visit(handler.body)
                    visit(stmt.orelse)
                    visit(stmt.finalbody)
                else:
                    check_stmt(stmt)

        def check_stmt(stmt: ast.stmt) -> None:
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.If, ast.While)):
                return  # only immediate (non-nested) targets below
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                targets = [stmt.target]
            else:
                return
            for target in targets:
                if isinstance(target, ast.Subscript):
                    check_store(target)

        def check_store(target: ast.Subscript) -> None:
            base = _base_name(target.value)
            if (
                base is None
                or base in locals_
                or base in params
                or base in SAFE_BUILTINS
            ):
                return
            line = target.lineno
            sl = target.slice
            if isinstance(sl, ast.Slice):
                # arr[lo:hi] writes lo .. hi - 1, judged like an index
                if sl.lower is None or sl.upper is None or sl.step is not None:
                    return
                lowest, upper = env.eval(sl.lower), env.eval(sl.upper)
                if not isinstance(upper, dict):
                    return
                highest = aff_sub(upper, aff_const(1))
            else:
                lowest = highest = env.eval(sl)
            if lowest is _NON_INJECTIVE:
                if contiguous and line in info.suppressed:
                    report.suppressed_hits.add((info.path, line))
                elif contiguous:
                    report.findings.append(
                        Finding(
                            path=info.path,
                            line=line,
                            col=target.col_offset,
                            code="SAN403",
                            severity="error",
                            message=(
                                f"store into captured {base!r} at an "
                                "index that folds distinct items onto "
                                "the same slot (% / // of the loop "
                                "item): contiguous items provably "
                                "collide across virtual threads",
                            )[0],
                        )
                    )
                return
            if not isinstance(lowest, dict):
                return
            self._judge_store(
                lowest,
                highest,
                loop_stack,
                chunk,
                worker,
                base,
                line,
                info,
                report,
                worker_name,
            )

        visit(node.body)

    def _judge_store(
        self,
        lowest: dict[str, int],
        highest: dict[str, int],
        loop_stack: list,
        chunk: tuple[str, str] | None,
        worker: _WorkerInfo,
        base: str,
        line: int,
        info: ModuleInfo,
        report: FlowReport,
        worker_name: str,
    ) -> None:
        # substitute loop variables by their interval endpoints: the
        # store writes indices lowest..highest (equal for a scalar index)
        lo_aff = dict(lowest)
        hi_aff = dict(highest)

        def subst(a: dict[str, int], var: str, repl: dict[str, int]) -> dict:
            coef = a.pop(var, 0)
            if coef:
                for k, v in repl.items():
                    a[k] = a.get(k, 0) + coef * v
            return a

        for var, lo, hi in reversed(loop_stack):
            hi_minus_1 = aff_sub(hi, aff_const(1))
            if lowest.get(var, 0) >= 0:
                lo_aff = subst(lo_aff, var, lo)
            else:
                lo_aff = subst(lo_aff, var, hi_minus_1)
            if highest.get(var, 0) >= 0:
                hi_aff = subst(hi_aff, var, hi_minus_1)
            else:
                hi_aff = subst(hi_aff, var, lo)

        def clean(a: dict[str, int]) -> dict[str, int]:
            return {k: v for k, v in a.items() if k == "" or v != 0} or {
                "": 0
            }

        lo_aff, hi_aff = clean(lo_aff), clean(hi_aff)

        def emit_403(reason: str) -> None:
            if line in info.suppressed:
                report.suppressed_hits.add((info.path, line))
                return
            report.findings.append(
                Finding(
                    path=info.path,
                    line=line,
                    col=0,
                    code="SAN403",
                    severity="error",
                    message=(
                        f"store into captured {base!r} provably escapes "
                        f"the worker's owned slice: {reason} — another "
                        "virtual thread owns that slot"
                    ),
                )
            )

        def verify(mode: str) -> None:
            report.verified.append(
                VerifiedStore(
                    path=info.path,
                    line=line,
                    base=base,
                    worker=worker_name,
                    mode=mode,
                )
            )

        if chunk is not None:
            lo_sym, hi_sym = chunk
            # lower bound against the chunk start
            lo_ok = None
            if set(lo_aff) <= {"", lo_sym} and lo_aff.get(lo_sym, 0) == 1:
                lo_ok = lo_aff.get("", 0) >= 0
            elif set(lo_aff) <= {"", hi_sym} and lo_aff.get(hi_sym, 0) == 1:
                # index >= end + c: at or past the chunk's end
                if lo_aff.get("", 0) >= 0:
                    emit_403(
                        f"index lower bound is {hi_sym} + "
                        f"{lo_aff.get('', 0)} (the owned slice is "
                        f"[{lo_sym}, {hi_sym}))"
                    )
                    return
            # upper bound against the exclusive chunk end
            hi_ok = None
            if set(hi_aff) <= {"", hi_sym} and hi_aff.get(hi_sym, 0) == 1:
                hi_ok = hi_aff.get("", 0) <= -1
                if not hi_ok:
                    emit_403(
                        f"index upper bound is {hi_sym} + "
                        f"{hi_aff.get('', 0)} but the owned slice ends "
                        f"at {hi_sym} - 1"
                    )
                    return
            if lo_ok is False:
                emit_403(
                    f"index lower bound is {lo_sym} - "
                    f"{-lo_aff.get('', 0)}, before the owned slice"
                )
                return
            if lo_ok and hi_ok:
                verify("chunk")
            return

        item = worker.item
        if item is None:
            return
        coef_lo = lo_aff.get(item, 0)
        coef_hi = hi_aff.get(item, 0)
        if (
            coef_lo == coef_hi
            and coef_lo != 0
            and set(lo_aff) <= {"", item}
            and set(hi_aff) <= {"", item}
        ):
            width = hi_aff.get("", 0) - lo_aff.get("", 0) + 1
            if 0 < width <= abs(coef_lo):
                verify("per-item")

    # ------------------------------------------------------------------
    # kernel effect signatures
    # ------------------------------------------------------------------

    def kernel_table(
        self, kernels_module: str = "repro.sanitizer.kernels"
    ) -> dict[str, str]:
        """Kernel name -> body-function name, parsed from the registry."""
        info = self.index.modules.get(kernels_module)
        if info is None:
            return {}
        for node in ast.walk(info.tree):
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign):
                target = node.target
            else:
                continue
            if not (
                isinstance(target, ast.Name) and target.id == "KERNELS"
            ):
                continue
            value = node.value
            if not isinstance(value, ast.Dict):
                continue
            table: dict[str, str] = {}
            for k, v in zip(value.keys, value.values):
                if (
                    isinstance(k, ast.Constant)
                    and isinstance(k.value, str)
                    and isinstance(v, ast.Name)
                ):
                    table[k.value] = v.id
            return table
        return {}

    def infer_kernel_effects(
        self,
        names: list[str] | None = None,
        kernels_module: str = "repro.sanitizer.kernels",
    ) -> dict[str, EffectSignature]:
        table = self.kernel_table(kernels_module)
        info = self.index.modules.get(kernels_module)
        if info is None:
            return {}
        selected = names if names is not None else list(table)
        out: dict[str, EffectSignature] = {}
        for name in selected:
            fn_name = table.get(name)
            if fn_name is None:
                continue
            ref = self.index.get_function(kernels_module, fn_name)
            if ref is None:
                continue
            out[name] = self._effects_from(ref)
        return out

    def reachable_workers(
        self, entry: FunctionRef
    ) -> list[tuple[FunctionRef, _WorkerInfo]]:
        """(enclosing function, worker) pairs reachable from ``entry``
        through the in-repo call graph — the universe both effect
        inference and SimProve's certificates cover."""
        out: list = []
        visited: set[str] = set()
        seen_workers: set[int] = set()
        queue: list[FunctionRef] = [entry]
        while queue:
            ref = queue.pop()
            if ref.qualname in visited:
                continue
            visited.add(ref.qualname)
            scope = tuple(ref.qualpath.split("."))
            for worker in _find_workers(ref.node):
                if id(worker.node) in seen_workers:
                    continue
                seen_workers.add(id(worker.node))
                out.append((ref, worker))
            for call in ast.walk(ref.node):
                if not isinstance(call, ast.Call):
                    continue
                target = self.index.resolve_call(ref.module, scope, call)
                if target is not None and target.qualname not in visited:
                    queue.append(target)
        return out

    def _effects_from(self, entry: FunctionRef) -> EffectSignature:
        reads: set[str] = set()
        writes: set[str] = set()
        atomics: set[str] = set()
        for _, worker in self.reachable_workers(entry):
            r, w, a = _worker_effects(worker)
            reads |= r
            writes |= w
            atomics |= a
        return EffectSignature(
            reads=tuple(sorted(reads)),
            writes=tuple(sorted(writes)),
            atomics=tuple(sorted(atomics)),
        )


def _worker_effects(
    worker: _WorkerInfo,
) -> tuple[set[str], set[str], set[str]]:
    """(reads, writes, atomics) of one worker closure."""
    node = worker.node
    body = node.body if isinstance(node.body, list) else [node.body]
    locals_: set[str] = set()
    for stmt in body:
        locals_ |= _assigned_names(stmt)
    params = {p for p in (worker.item, worker.ctx) if p}

    def captured(name: str | None) -> bool:
        return (
            name is not None
            and name not in locals_
            and name not in params
            and name not in SAFE_BUILTINS
        )

    reads: set[str] = set()
    writes: set[str] = set()
    atomics: set[str] = set()

    # type annotations contain subscripts (dict[int, ...]) that are
    # not runtime loads — exclude their subtrees
    ann_nodes: set[int] = set()
    for stmt in body:
        for inner in ast.walk(stmt):
            ann = getattr(inner, "annotation", None)
            if ann is not None:
                ann_nodes.update(id(a) for a in ast.walk(ann))
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inner.returns is not None:
                    ann_nodes.update(id(a) for a in ast.walk(inner.returns))

    for stmt in body:
        for inner in ast.walk(stmt):
            if isinstance(inner, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    inner.targets
                    if isinstance(inner, ast.Assign)
                    else [inner.target]
                )
                for target in targets:
                    if isinstance(target, (ast.Subscript, ast.Attribute)):
                        base = _base_name(target)
                        if captured(base):
                            writes.add(base)  # type: ignore[arg-type]
            elif isinstance(inner, ast.Subscript) and isinstance(
                inner.ctx, ast.Load
            ):
                if id(inner) in ann_nodes:
                    continue
                base = _base_name(inner.value)
                if captured(base):
                    reads.add(base)  # type: ignore[arg-type]
            elif isinstance(inner, ast.Call) and isinstance(
                inner.func, ast.Attribute
            ):
                base = _base_name(inner.func.value)
                if base == worker.ctx:
                    tag = effects.tag_of(inner)
                    if tag is None:
                        continue
                    eff = effects.ctx_call(inner.func.attr)
                    access = eff.access if eff is not None else None
                    if access in effects.ATOMIC_WRITES:
                        atomics.add(tag)
                    elif access == effects.WRITE:
                        writes.add(tag)
                    elif access == effects.READ:
                        reads.add(tag)
                    continue
                if captured(base) and _passes(inner, worker.ctx):
                    atomics.add(base)  # type: ignore[arg-type]
                elif (
                    captured(base)
                    and inner.func.attr in MUTATING_METHODS
                ):
                    writes.add(base)  # type: ignore[arg-type]
    return reads, writes, atomics


def _finish(report: FlowReport) -> None:
    """Dedupe (one worker can reach a callee along several summary
    paths) and order findings for stable output."""
    report.findings = sorted(
        set(report.findings),
        key=lambda x: (x.path, x.line, x.col, x.code, x.message),
    )


# ======================================================================
# module-level convenience entry points
# ======================================================================


def analyze_source(
    source: str, path: str = "<string>", index: ModuleIndex | None = None
) -> FlowReport:
    """SimFlow over one module's source text (tests and selftest)."""
    analyzer = FlowAnalyzer(index=index or ModuleIndex())
    try:
        info = ModuleInfo(Path(path).stem, path, source)
    except SyntaxError:
        return FlowReport()
    analyzer.index.modules[info.name] = info
    analyzer.index.by_path[str(Path(path))] = info
    report = FlowReport(files=1)
    analyzer.analyze_module(info, report)
    _finish(report)
    return report


def analyze_paths(
    paths: list, index: ModuleIndex | None = None
) -> FlowReport:
    """SimFlow divergence + disjoint-write analysis over files/dirs."""
    return FlowAnalyzer(index=index).analyze_paths(paths)


def infer_kernel_effects(
    names: list[str] | None = None, index: ModuleIndex | None = None
) -> dict[str, EffectSignature]:
    """Inferred effect signatures for registered kernels."""
    return FlowAnalyzer(index=index).infer_kernel_effects(names)


def flow_manifest_payload(effects: dict[str, EffectSignature]) -> dict:
    """Committed-manifest shape of inferred kernel effect signatures."""
    return {
        "schema": FLOW_MANIFEST_SCHEMA,
        "version": 1,
        "kernels": {name: effects[name].as_dict() for name in sorted(effects)},
    }


# ======================================================================
# seeded-bug selftest
# ======================================================================

#: A worker whose nested parallel region is gated on the thread id —
#: the canonical divergent-collective bug.  Kept as source text so the
#: lint/flow gates over ``src/`` never see it as live code.
_DIVERGENT_SYNC_SOURCE = '''\
def run(pool, items, flags):
    def worker(v, ctx):
        ctx.charge(1)
        if ctx.thread_id == 0:
            pool.parallel_for(range(4), lambda i, c: c.charge(1))
    pool.parallel_for(items, worker, label="selftest:divergent")
'''
_DIVERGENT_SYNC_LINE = 5

#: A chunked writer that stores one slot past its owned [start, end)
#: slice — the canonical cross-chunk corruption bug.
_CROSS_CHUNK_SOURCE = '''\
def run(pool, out, chunks):
    def worker(chunk, ctx):
        start, end = chunk
        ctx.write(("out", int(start)))
        for i in range(start, end):
            out[i + 1] = i
    pool.parallel_for(chunks, worker, label="selftest:cross_chunk")
'''
_CROSS_CHUNK_LINE = 6

#: The same writer, fixed — must verify as disjoint, with no findings.
_SAFE_CHUNK_SOURCE = '''\
def run(pool, out, chunks):
    def worker(chunk, ctx):
        start, end = chunk
        ctx.write(("out", int(start)))
        for i in range(start, end):
            out[i] = i
    pool.parallel_for(chunks, worker, label="selftest:safe_chunk")
'''


#: A slice writer that stores one slot past its owned [vs.start,
#: vs.stop) range — the same bug through ``parallel_slices``.
_CROSS_SLICE_SOURCE = '''\
def run(pool, out, n):
    def worker(vs, ctx):
        ctx.write_row("out", vs)
        for i in range(vs.start, vs.stop):
            out[i + 1] = i
    pool.parallel_slices(range(n), worker, label="selftest:cross_slice")
'''
_CROSS_SLICE_LINE = 5


def flow_selftest() -> tuple[bool, str]:
    """Prove the analyzer catches every seeded SAN4xx bug.

    An analyzer that reports nothing is indistinguishable from one
    that checks nothing: this runs SimFlow over three intentionally
    buggy worker sources and requires SAN401 (divergent sync) and
    SAN403 (cross-chunk and cross-slice stores) with exact line
    attribution — plus fixed variants that must come back clean.
    """
    divergent = analyze_source(_DIVERGENT_SYNC_SOURCE, "selftest_divergent.py")
    hits = [
        f
        for f in divergent.findings
        if f.code == "SAN401" and f.line == _DIVERGENT_SYNC_LINE
    ]
    if not hits:
        return (
            False,
            "seeded divergent-sync bug NOT caught: expected SAN401 at "
            f"line {_DIVERGENT_SYNC_LINE}, got "
            f"{[str(f) for f in divergent.findings]}",
        )

    cross = analyze_source(_CROSS_CHUNK_SOURCE, "selftest_cross_chunk.py")
    hits = [
        f
        for f in cross.findings
        if f.code == "SAN403" and f.line == _CROSS_CHUNK_LINE
    ]
    if not hits:
        return (
            False,
            "seeded cross-chunk store NOT caught: expected SAN403 at "
            f"line {_CROSS_CHUNK_LINE}, got "
            f"{[str(f) for f in cross.findings]}",
        )

    cross = analyze_source(_CROSS_SLICE_SOURCE, "selftest_cross_slice.py")
    hits = [
        f
        for f in cross.findings
        if f.code == "SAN403" and f.line == _CROSS_SLICE_LINE
    ]
    if not hits:
        return (
            False,
            "seeded cross-slice store NOT caught: expected SAN403 at "
            f"line {_CROSS_SLICE_LINE}, got "
            f"{[str(f) for f in cross.findings]}",
        )
    fixed = analyze_source(
        _CROSS_SLICE_SOURCE.replace("out[i + 1]", "out[i]"),
        "selftest_safe_slice.py",
    )
    if fixed.findings or not fixed.verified:
        return (
            False,
            "safe slice writer misjudged: expected verified-disjoint and "
            f"no findings, got {[str(f) for f in fixed.findings]}",
        )

    safe = analyze_source(_SAFE_CHUNK_SOURCE, "selftest_safe_chunk.py")
    if safe.findings or not safe.verified:
        return (
            False,
            "safe chunk writer misjudged: expected verified-disjoint "
            f"and no findings, got findings="
            f"{[str(f) for f in safe.findings]} "
            f"verified={[str(v) for v in safe.verified]}",
        )
    return (
        True,
        "seeded SAN401 (divergent sync) and SAN403 (cross-chunk and "
        "cross-slice stores) all caught with exact attribution; fixed "
        "variants verified-disjoint",
    )
