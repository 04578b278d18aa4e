"""SimDist — SAN6xx static verification of the distributed protocol.

The cluster layer (:mod:`repro.cluster`) rests on three load-bearing
invariants that no SAN1xx-5xx pass can see, because they all stop at
single-pool kernels:

* **monotonicity** — ``distributed_core_decomposition`` converges to
  the unique greatest fixpoint *because* boundary-estimate updates
  never increase (chaotic relaxation);
* **BSP phase discipline** — shards communicate only in the exchange
  phase and compute against a frozen snapshot of the last exchange;
* **replay safety** — ``ClusterService`` failover is byte-identical
  *because* every handler reachable from a failover path is
  idempotent (last-writer-wins or min-combining writes only).

SimDist certifies these statically.  Each cluster module declares its
protocol facts as plain literals (``DIST_PROTOCOL``, ``WIRE_COUNTERS``,
``LWW_FIELDS`` ...) and the analyzer proves the obligations against
the AST, reusing SimFlow's module index/CFG and SimProve's affine
forms.  Like SAN5xx, results are proof certificates: suppression
markers are **not** honored — a failed obligation must be fixed or the
declaration amended.

Rules
=====

=======  ========  =====================================================
code     severity  meaning
=======  ========  =====================================================
SAN601   error     estimate store on a cross-shard path is not provably
                   monotone non-increasing (or is an order-sensitive
                   float fold)
SAN602   error     BSP phase violation: send outside the exchange
                   phase, compute-phase read of live (unfrozen) state,
                   missing pre-superstep freeze, or a recovery hook
                   that skips the snapshot rebuild step
SAN603   error     shard-ownership violation: parallel repair write not
                   provably confined to the owned item, or a frontier
                   insert not keyed by the inserted vertex's owner
SAN604   error     wire effect of a ``Network.send`` site is not
                   statically derivable, a cluster kernel is claimed by
                   no protocol, or a non-counter field is written on
                   the wire-accounting path
SAN606   error     message handler reachable from a failover path has a
                   write that is neither last-writer-wins on owned
                   state, min-combining, nor a declared metric —
                   replaying it would double-apply
=======  ========  =====================================================

The certified result ships as ``dist_manifest.json`` next to this
file; ``repro sanitize --dist`` detects drift through the shared
:mod:`repro.sanitizer.manifest` checker, exactly like the SAN5xx
proof manifest.  Each certificate's ``sends`` records the derived
wire shape (``header_bytes + per_item_bytes * count``) of every send
site, so a changed message format gates as drift.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.sanitizer import effects, manifest
from repro.sanitizer.cfg import guarding_tests
from repro.sanitizer.flow import (
    FlowAnalyzer,
    ModuleIndex,
    ModuleInfo,
    default_index,
)
from repro.sanitizer.intervals import aff_const, affine_of
from repro.sanitizer.lint import MUTATING_METHODS, Finding, Report

__all__ = [
    "ProtocolCertificate",
    "DistReport",
    "DistAnalyzer",
    "analyze_dist",
    "analyze_protocol_source",
    "DIST_MANIFEST_SCHEMA",
    "DEFAULT_DIST_MANIFEST_PATH",
    "dist_manifest_payload",
    "dist_selftest",
]

#: Package whose modules carry ``DIST_PROTOCOL`` declarations.
CLUSTER_PACKAGE = "repro.cluster"

#: Module holding the ``KERNELS`` registry.
KERNELS_MODULE = "repro.sanitizer.kernels"

#: ``min``-flavored callables accepted as min-combining folds.
_MIN_ATTRS = ("minimum", "fmin", "min")


@dataclass(frozen=True)
class ProtocolSpec:
    """One module's declared distributed-protocol facts."""

    name: str
    module: str
    kernels: tuple[str, ...] = ()
    estimates: tuple[str, ...] = ()
    live: tuple[str, ...] = ()
    compute_roots: tuple[str, ...] = ()
    send_scopes: tuple[str, ...] = ()
    recovery_roots: tuple[str, ...] = ()
    rebuild_calls: tuple[str, ...] = ()
    handler_roots: tuple[str, ...] = ()
    metrics: tuple[str, ...] = ()
    lww: tuple[str, ...] = ()


@dataclass
class ProtocolCertificate:
    """Proof outcome for one declared protocol."""

    name: str
    module: str
    kernels: tuple[str, ...] = ()
    status: str = "certified"  # certified | violations
    #: obligation key -> human-readable proven fact (or VIOLATED: ...)
    obligations: dict[str, str] = field(default_factory=dict)
    #: send-site key -> derived wire descriptor
    sends: dict[str, dict] = field(default_factory=dict)
    #: handler qualpath -> write-classification summary
    handlers: dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "module": self.module,
            "kernels": sorted(self.kernels),
            "status": self.status,
            "obligations": dict(sorted(self.obligations.items())),
            "sends": {k: self.sends[k] for k in sorted(self.sends)},
            "handlers": dict(sorted(self.handlers.items())),
        }


@dataclass
class DistReport(Report):
    """Outcome of one SimDist run over the cluster layer."""

    certificates: dict[str, ProtocolCertificate] = field(default_factory=dict)
    #: kernel name -> owning protocol (or "unclassified")
    kernels: dict[str, str] = field(default_factory=dict)
    modules: int = 0

    @property
    def certified(self) -> list[str]:
        return manifest.certified(self.certificates)


# ======================================================================
# AST helpers
# ======================================================================


def _module_literal(info: ModuleInfo, name: str):
    """Value of a module-level literal assignment, or None."""
    for stmt in info.tree.body:
        target = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target = stmt.target
        if isinstance(target, ast.Name) and target.id == name:
            try:
                return ast.literal_eval(stmt.value)
            except (ValueError, TypeError, SyntaxError):
                return None
    return None


def _assign_owners(tree: ast.Module) -> dict[int, str]:
    """id(node) -> qualpath of the enclosing function (``<module>``
    at top level; ClassDef names become qualpath prefixes so owners
    align with :attr:`ModuleInfo.functions` keys)."""
    owners: dict[int, str] = {id(tree): "<module>"}

    def visit(node: ast.AST, prefix: str, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            owners[id(child)] = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                visit(child, qual + ".", qual)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", owner)
            else:
                visit(child, prefix, owner)

    visit(tree, "", "<module>")
    return owners


def _walk_local(fn: ast.AST):
    """Every node under ``fn`` excluding nested function subtrees."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _local_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameters plus every locally-bound name (incl. loop targets)."""
    names: set[str] = set()
    args = fn.args
    for a in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        names.add(a.arg)
    for node in _walk_local(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _base_name_of(expr: ast.AST) -> str | None:
    """Strip Subscript layers down to a Name id."""
    while isinstance(expr, ast.Subscript):
        expr = expr.value
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _attr_chain(expr: ast.AST) -> list[str]:
    """Attribute names plus the terminal Name id of a dotted chain."""
    chain: list[str] = []
    while isinstance(expr, (ast.Attribute, ast.Subscript, ast.Call)):
        if isinstance(expr, ast.Attribute):
            chain.append(expr.attr)
            expr = expr.value
        elif isinstance(expr, ast.Subscript):
            expr = expr.value
        else:
            expr = expr.func
    if isinstance(expr, ast.Name):
        chain.append(expr.id)
    return chain


def _declared_write_slot(node: ast.AST) -> ast.AST | None:
    """The slot a recorded write names: ``i`` of ``ctx.write((name, i))``
    or the index sequence of ``ctx.write_row(name, indices)``."""
    if not (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ):
        return None
    eff = effects.ctx_call(node.func.attr)
    if eff is None or eff.access != effects.WRITE:
        return None
    return effects.index_expr(eff, node)


def _strip_value(expr: ast.AST) -> ast.AST:
    """Peel ``int(x)`` / ``x.copy()`` / subscript layers off a load."""
    while True:
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id == "int"
            and len(expr.args) == 1
        ):
            expr = expr.args[0]
        elif (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "copy"
            and not expr.args
        ):
            expr = expr.func.value
        elif isinstance(expr, ast.Subscript):
            expr = expr.value
        else:
            return expr


def _module_int_literals(info: ModuleInfo) -> dict[str, int]:
    """Module-level ``NAME = <int>`` constants (wire-format sizes)."""
    out: dict[str, int] = {}
    for stmt in info.tree.body:
        target = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target = stmt.target
        if not isinstance(target, ast.Name):
            continue
        value = stmt.value
        if (
            isinstance(value, ast.Constant)
            and isinstance(value.value, int)
            and not isinstance(value.value, bool)
        ):
            out[target.id] = value.value
    return out


def _const_bytes(expr: ast.AST, literals: dict[str, int]) -> int | None:
    """Constant value of a byte-count expression over module constants."""
    aff = affine_of(
        expr, lambda name: aff_const(literals[name]) if name in literals else None
    )
    return None if aff is None else aff[""]


def _looks_like_count(expr: ast.AST) -> bool:
    """Heuristic: the non-constant factor of a payload expression."""
    return any(
        isinstance(n, (ast.Subscript, ast.Call, ast.Name))
        for n in ast.walk(expr)
    )


# ======================================================================
# the analyzer
# ======================================================================


class DistAnalyzer:
    """SAN6xx interprocedural verifier over the cluster layer."""

    def __init__(self, index: ModuleIndex | None = None) -> None:
        self._index = index if index is not None else default_index()
        self._bindings_cache: dict[int, dict[str, list]] = {}
        self._owners_cache: dict[int, dict[int, str]] = {}

    # -- scope machinery -----------------------------------------------

    def _owners(self, info: ModuleInfo) -> dict[int, str]:
        cached = self._owners_cache.get(id(info))
        if cached is None:
            cached = _assign_owners(info.tree)
            self._owners_cache[id(info)] = cached
        return cached

    def _bindings(self, fn: ast.AST) -> dict[str, list]:
        """name -> [("expr", value, 0) | ("unpack", value, idx)] in
        source order, from the function's own (non-nested) body."""
        cached = self._bindings_cache.get(id(fn))
        if cached is not None:
            return cached
        out: dict[str, list] = {}
        for node in _walk_local(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        out.setdefault(target.id, []).append(
                            ("expr", node.value, 0)
                        )
                    elif isinstance(target, ast.Tuple):
                        for idx, elt in enumerate(target.elts):
                            if isinstance(elt, ast.Name):
                                out.setdefault(elt.id, []).append(
                                    ("unpack", node.value, idx)
                                )
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    out.setdefault(node.target.id, []).append(
                        ("expr", node.value, 0)
                    )
        self._bindings_cache[id(fn)] = out
        return out

    def _lookup(
        self, info: ModuleInfo, owner: str, name: str
    ) -> tuple[list, str]:
        """Bindings of ``name`` visible from ``owner``, innermost-out."""
        parts = owner.split(".") if owner != "<module>" else []
        for depth in range(len(parts), 0, -1):
            qual = ".".join(parts[:depth])
            fn = info.functions.get(qual)
            if fn is None:
                continue
            entries = self._bindings(fn)
            if name in entries:
                return entries[name], qual
        return [], owner

    def _resolve_tail(self, info: ModuleInfo, name: str) -> list[tuple]:
        """All module functions whose qualpath is ``name`` or ends in
        ``.name`` (declared roots name the tail, not the full path)."""
        out = []
        for qual, fn in info.functions.items():
            if qual == name or qual.endswith("." + name):
                out.append((qual, fn))
        return out

    def _closure_qual(self, info: ModuleInfo, owner: str, name: str) -> str | None:
        """Resolve a bare Name used at ``owner`` to a function qualpath."""
        parts = owner.split(".") if owner != "<module>" else []
        for depth in range(len(parts), -1, -1):
            prefix = ".".join(parts[:depth])
            qual = f"{prefix}.{name}" if prefix else name
            if qual in info.functions:
                return qual
        return None

    # -- estimate dataflow (SAN601) ------------------------------------

    def _unpack_candidates(
        self, info: ModuleInfo, owner: str, value: ast.AST, idx: int
    ) -> list[tuple[ast.AST, str]] | None:
        """Expressions a tuple-unpack slot may hold, with owner context.

        ``x, y, _ = D[k]`` chases every module-wide ``D[...] = f(...)``
        store to ``f``'s returned tuple element.  ``None`` = unknown
        (classification then fails closed).
        """
        if isinstance(value, ast.Tuple):
            if idx < len(value.elts):
                return [(value.elts[idx], owner)]
            return None
        if isinstance(value, ast.Subscript):
            base = _base_name_of(value)
            if base is None:
                return None
            owners = self._owners(info)
            candidates: list[tuple[ast.AST, str]] = []
            for node in ast.walk(info.tree):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and _base_name_of(target) == base
                    ):
                        call = node.value
                        if not (
                            isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Name)
                        ):
                            return None
                        resolved = self._resolve_tail(info, call.func.id)
                        if not resolved:
                            return None
                        for qual, fn in resolved:
                            ret = self._return_tuple_elt(fn, idx)
                            if ret is None:
                                return None
                            candidates.append((ret, qual))
            return candidates or None
        return None

    @staticmethod
    def _return_tuple_elt(fn: ast.AST, idx: int) -> ast.AST | None:
        for node in _walk_local(fn):
            if isinstance(node, ast.Return) and isinstance(
                node.value, ast.Tuple
            ):
                if idx < len(node.value.elts):
                    return node.value.elts[idx]
        return None

    def _is_estimate_load(
        self,
        info: ModuleInfo,
        owner: str,
        expr: ast.AST,
        est_names: frozenset[str],
        depth: int = 3,
    ) -> bool:
        """Is ``expr`` (after int()/copy()/[] strips) a value taken
        from declared estimate state?  Fails closed: every binding a
        name may take must itself be an estimate load."""
        if depth <= 0:
            return False
        expr = _strip_value(expr)
        if not isinstance(expr, ast.Name):
            return False
        if expr.id in est_names:
            return True
        entries, bind_owner = self._lookup(info, owner, expr.id)
        if not entries:
            return False
        for kind, value, idx in entries:
            if kind == "expr":
                if not self._is_estimate_load(
                    info, bind_owner, value, est_names, depth - 1
                ):
                    return False
            else:
                candidates = self._unpack_candidates(
                    info, bind_owner, value, idx
                )
                if not candidates:
                    return False
                for cand, cand_owner in candidates:
                    if not self._is_estimate_load(
                        info, cand_owner, cand, est_names, depth - 1
                    ):
                        return False
        return True

    def _reads_estimate(
        self,
        info: ModuleInfo,
        owner: str,
        expr: ast.AST,
        est_names: frozenset[str],
    ) -> bool:
        """Any Name in ``expr`` that loads (directly or through
        bindings) declared estimate state."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in est_names:
                    return True
                if self._is_estimate_load(info, owner, node, est_names):
                    return True
        return False

    def _classify_estimate_store(
        self,
        info: ModuleInfo,
        owner: str,
        store: ast.Assign,
        est_names: frozenset[str],
    ) -> str | None:
        """Monotone-store class of ``<est>[idx] = value``, or None."""
        value = store.value
        # (a) explicit fetch_min combine
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and effects.agreed(value.func.attr, "access") == effects.MIN_FOLD
        ):
            return "fetch_min"
        # (b) min-combining fold against the current estimate
        if isinstance(value, ast.Call):
            func = value.func
            is_min = (isinstance(func, ast.Name) and func.id == "min") or (
                isinstance(func, ast.Attribute) and func.attr in _MIN_ATTRS
            )
            if is_min and any(
                self._reads_estimate(info, owner, arg, est_names)
                for arg in value.args
            ):
                return "min-combining"
        # (c) pure transport of an estimate already proven monotone
        if self._is_estimate_load(info, owner, value, est_names):
            return "transport"
        # (d) store guarded by a strict decrease test
        fn = info.functions.get(owner)
        if fn is not None:
            for test in guarding_tests(fn, store):
                for node in ast.walk(test):
                    if (
                        isinstance(node, ast.Compare)
                        and len(node.ops) == 1
                        and isinstance(node.ops[0], (ast.Lt, ast.LtE))
                        and self._reads_estimate(
                            info, owner, node.comparators[0], est_names
                        )
                    ):
                        return "guarded-decrease"
        return None

    def _monotone_diagnosis(self, value: ast.AST) -> str:
        for node in ast.walk(value):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Mult)
            ):
                return "may raise the estimate"
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                return "order-sensitive float fold"
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "float":
                    return "order-sensitive float fold"
                if node.func.id == "max":
                    return "may raise the estimate"
        return "not classified as monotone (fail closed)"

    def _check_monotone(
        self,
        spec: ProtocolSpec,
        info: ModuleInfo,
        cert: ProtocolCertificate,
        report: DistReport,
    ) -> None:
        if not spec.estimates and not spec.live:
            cert.obligations["monotone:updates"] = (
                "vacuous: no estimate state declared"
            )
            return
        est_names = frozenset(spec.estimates) | frozenset(spec.live)
        owners = self._owners(info)
        counts: dict[str, int] = {}
        for node in ast.walk(info.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if not isinstance(target, ast.Subscript):
                        continue
                    base = _base_name_of(target)
                    if base is None or base not in est_names:
                        continue
                    owner = owners.get(id(node), "<module>")
                    if isinstance(node, ast.AugAssign):
                        self._emit(
                            report,
                            cert,
                            info,
                            node,
                            "SAN601",
                            "error",
                            f"augmented store into estimate {base!r} in "
                            f"{owner} may raise the estimate — only "
                            "fetch_min / guarded-decrease stores may "
                            "cross a shard boundary",
                        )
                        continue
                    cls = self._classify_estimate_store(
                        info, owner, node, est_names
                    )
                    if cls is None:
                        why = self._monotone_diagnosis(node.value)
                        self._emit(
                            report,
                            cert,
                            info,
                            node,
                            "SAN601",
                            "error",
                            f"store into estimate {base!r} in {owner} "
                            f"{why} — only fetch_min / min-combining / "
                            "guarded-decrease stores may flow into "
                            "shipped boundary estimates",
                        )
                    else:
                        counts[cls] = counts.get(cls, 0) + 1
        total = sum(counts.values())
        summary = " ".join(
            f"{k}={counts[k]}" for k in sorted(counts)
        ) or "no estimate stores"
        cert.obligations["monotone:updates"] = (
            f"{total} estimate store(s) proven non-increasing: {summary}"
        )

    # -- BSP phase discipline (SAN602) ---------------------------------

    def _send_sites(self, info: ModuleInfo) -> list[tuple[ast.Call, str]]:
        """Every ``*.send(...)`` call whose receiver chain mentions the
        network, with its owning function qualpath, in source order."""
        owners = self._owners(info)
        sites = []
        for node in ast.walk(info.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "send"
                and "network" in _attr_chain(node.func.value)
            ):
                sites.append((node, owners.get(id(node), "<module>")))
        sites.sort(key=lambda s: (s[0].lineno, s[0].col_offset))
        return sites

    def _superstep_calls(
        self, info: ModuleInfo, barrier: str
    ) -> list[tuple[ast.Call, str]]:
        owners = self._owners(info)
        out = []
        for node in ast.walk(info.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == barrier
            ):
                out.append((node, owners.get(id(node), "<module>")))
        return out

    def _compute_roots(
        self, spec: ProtocolSpec, info: ModuleInfo, steps: list
    ) -> set[str]:
        """Node-fn closures passed to supersteps, plus declared compute
        roots, closed under module-local bare-name calls."""
        roots: set[str] = set()
        for call, owner in steps:
            arg = None
            if len(call.args) >= 2:
                arg = call.args[1]
            for kw in call.keywords:
                if kw.arg == "node_fns":
                    arg = kw.value
            if arg is None:
                continue
            for value, value_owner in self._dict_values(info, owner, arg):
                if isinstance(value, ast.Name):
                    qual = self._closure_qual(info, value_owner, value.id)
                    if qual:
                        roots.add(qual)
                elif isinstance(value, ast.Call) and isinstance(
                    value.func, ast.Name
                ):
                    factory = self._closure_qual(
                        info, value_owner, value.func.id
                    )
                    if factory:
                        fn = info.functions[factory]
                        for node in _walk_local(fn):
                            if isinstance(node, ast.Return) and isinstance(
                                node.value, ast.Name
                            ):
                                roots.add(f"{factory}.{node.value.id}")
        for name in spec.compute_roots:
            for qual, _fn in self._resolve_tail(info, name):
                roots.add(qual)
        # transitive closure over module-local bare-name calls
        frontier = list(roots)
        while frontier:
            qual = frontier.pop()
            fn = info.functions.get(qual)
            if fn is None:
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Name
                ):
                    callee = self._closure_qual(info, qual, node.func.id)
                    if callee and callee not in roots:
                        roots.add(callee)
                        frontier.append(callee)
        return roots

    def _dict_values(self, info: ModuleInfo, owner: str, arg: ast.AST):
        """(value-expr, owner) pairs of a node_fns dict argument,
        chasing a Name through its local binding."""
        if isinstance(arg, ast.Name):
            entries, bind_owner = self._lookup(info, owner, arg.id)
            for kind, value, _ in entries:
                if kind == "expr":
                    yield from self._dict_values(info, bind_owner, value)
            return
        if isinstance(arg, ast.Dict):
            for value in arg.values:
                yield value, owner
        elif isinstance(arg, ast.DictComp):
            yield arg.value, owner

    def _check_phase(
        self,
        spec: ProtocolSpec,
        info: ModuleInfo,
        cert: ProtocolCertificate,
        report: DistReport,
        barrier: str,
    ) -> set[str]:
        steps = self._superstep_calls(info, barrier)
        allowed: set[str] = set()
        for call, owner in steps:
            arg = None
            if len(call.args) >= 3:
                arg = call.args[2]
            for kw in call.keywords:
                if kw.arg == "exchange":
                    arg = kw.value
            if isinstance(arg, ast.Name):
                qual = self._closure_qual(info, owner, arg.id)
                if qual:
                    allowed.add(qual)
        for name in spec.send_scopes:
            for qual, _fn in self._resolve_tail(info, name):
                allowed.add(qual)
        sites = self._send_sites(info)
        for node, owner in sites:
            ok = any(
                owner == a or owner.endswith("." + a) for a in allowed
            )
            if not ok:
                self._emit(
                    report,
                    cert,
                    info,
                    node,
                    "SAN602",
                    "error",
                    f"Network.send outside the exchange phase (in "
                    f"{owner}; sends are confined to "
                    f"{sorted(allowed) or spec.send_scopes or 'the exchange closure'})",
                )
        cert.obligations["phase:sends"] = (
            f"{len(sites)} send site(s) confined to "
            f"{sorted(allowed) if allowed else 'none declared'}"
        )
        roots = self._compute_roots(spec, info, steps)
        live = frozenset(spec.live)
        if live and roots:
            for qual in sorted(roots):
                fn = info.functions.get(qual)
                if fn is None:
                    continue
                for node in ast.walk(fn):
                    if (
                        isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)
                        and node.id in live
                    ):
                        self._emit(
                            report,
                            cert,
                            info,
                            node,
                            "SAN602",
                            "error",
                            f"compute phase {qual} reads live state "
                            f"{node.id!r} without an intervening "
                            "superstep barrier — freeze it into a "
                            "snapshot before the superstep",
                        )
        if live and steps:
            for call, owner in steps:
                caller = info.functions.get(owner)
                if caller is None:
                    continue
                frozen = False
                for node in _walk_local(caller):
                    if isinstance(node, ast.Assign) and isinstance(
                        node.value, ast.Call
                    ):
                        func = node.value.func
                        if (
                            isinstance(func, ast.Attribute)
                            and func.attr == "copy"
                            and isinstance(func.value, ast.Name)
                            and func.value.id in live
                        ):
                            frozen = True
                if frozen:
                    cert.obligations["phase:freeze"] = (
                        "live state snapshotted (.copy()) before each "
                        "superstep"
                    )
                else:
                    self._emit(
                        report,
                        cert,
                        info,
                        call,
                        "SAN602",
                        "error",
                        f"superstep driver {owner} never freezes live "
                        f"state {sorted(live)} into a snapshot",
                    )
                    cert.obligations["phase:freeze"] = (
                        "VIOLATED: missing pre-superstep freeze"
                    )
        elif not live:
            cert.obligations["phase:freeze"] = (
                "not-applicable: no live state declared"
            )
        if spec.recovery_roots:
            rebuilds = frozenset(spec.rebuild_calls)
            for name in spec.recovery_roots:
                resolved = self._resolve_tail(info, name)
                if not resolved:
                    self._emit(
                        report,
                        cert,
                        info,
                        info.tree,
                        "SAN602",
                        "error",
                        f"declared recovery root {name!r} not found in "
                        f"{info.name}",
                    )
                    continue
                for qual, fn in resolved:
                    called = False
                    for node in ast.walk(fn):
                        if isinstance(node, ast.Call):
                            func = node.func
                            callee = (
                                func.id
                                if isinstance(func, ast.Name)
                                else func.attr
                                if isinstance(func, ast.Attribute)
                                else None
                            )
                            if callee in rebuilds:
                                called = True
                    if not called:
                        self._emit(
                            report,
                            cert,
                            info,
                            fn,
                            "SAN602",
                            "error",
                            f"recovery hook {qual} skips the snapshot "
                            f"rebuild (freeze) step — expected a call "
                            f"to one of {sorted(rebuilds)}",
                        )
                        cert.obligations["phase:recovery-rebuild"] = (
                            "VIOLATED: rebuild call missing"
                        )
            cert.obligations.setdefault(
                "phase:recovery-rebuild",
                f"recovery hooks rebuild state via {sorted(rebuilds)}",
            )
        else:
            cert.obligations["phase:recovery-rebuild"] = (
                "not-applicable: no recovery hooks declared"
            )
        return roots

    # -- shard-ownership disjointness (SAN603) -------------------------

    def _check_ownership(
        self,
        spec: ProtocolSpec,
        info: ModuleInfo,
        cert: ProtocolCertificate,
        report: DistReport,
        roots: set[str],
        partition: dict | None,
        shard_info: ModuleInfo | None,
    ) -> None:
        if not roots:
            cert.obligations["ownership:parallel-writes"] = (
                "not-applicable: no shard-parallel compute phase"
            )
            return
        owner_name = (partition or {}).get("owner", "owner")
        if shard_info is not None and partition is not None:
            builder = partition.get("builder", "shard_graph")
            proven = False
            for qual, fn in self._resolve_tail(shard_info, builder):
                for node in ast.walk(fn):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "flatnonzero"
                        and len(node.args) == 1
                        and isinstance(node.args[0], ast.Compare)
                        and len(node.args[0].ops) == 1
                        and isinstance(node.args[0].ops[0], ast.Eq)
                    ):
                        proven = True
            if proven:
                cert.obligations["ownership:partition"] = (
                    f"{builder} derives owned rows by owner-equality "
                    "flatnonzero — shards partition the vertex set"
                )
            else:
                self._emit(
                    report,
                    cert,
                    shard_info,
                    shard_info.tree,
                    "SAN603",
                    "error",
                    f"partition builder {builder!r} has no owner-"
                    "equality row selection — owned sets not provably "
                    "disjoint",
                )
                cert.obligations["ownership:partition"] = (
                    "VIOLATED: no disjoint owned-row derivation"
                )
        checked = 0
        violated = False
        for qual in sorted(roots):
            fn = info.functions.get(qual)
            if fn is None:
                continue
            for node in ast.walk(fn):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and effects.agreed(node.func.attr, "worker") is not None
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Name)
                ):
                    continue
                worker_qual = self._closure_qual(
                    info, qual, node.args[1].id
                )
                worker = (
                    info.functions.get(worker_qual) if worker_qual else None
                )
                if worker is None:
                    continue
                checked += 1
                if not self._worker_writes_owned(
                    worker, info, report, cert
                ):
                    violated = True
        if violated:
            cert.obligations["ownership:parallel-writes"] = (
                "VIOLATED: a shard-parallel write escapes the owned item"
            )
        else:
            cert.obligations["ownership:parallel-writes"] = (
                f"{checked} shard-parallel worker(s): every store "
                "indexed by the owned item or slice — write-disjoint "
                "across shards"
            )
        frontier_ok = True
        inserts = 0
        for node in ast.walk(info.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("add", "update")
                and isinstance(node.func.value, ast.Subscript)
            ):
                continue
            key = node.func.value.slice
            owner_sub = None
            for sub in ast.walk(key):
                if (
                    isinstance(sub, ast.Subscript)
                    and _base_name_of(sub) == owner_name
                ):
                    owner_sub = sub
            if owner_sub is None:
                continue
            inserts += 1
            keyed = _strip_value(owner_sub.slice)
            ok = False
            for arg in node.args:
                inserted = _strip_value(arg)
                if (
                    isinstance(inserted, ast.Name)
                    and isinstance(keyed, ast.Name)
                    and inserted.id == keyed.id
                ):
                    ok = True
            if not ok:
                frontier_ok = False
                self._emit(
                    report,
                    cert,
                    info,
                    node,
                    "SAN603",
                    "error",
                    "frontier insert is not keyed by the inserted "
                    f"vertex's owner ({owner_name}[v] must index the "
                    "slot that receives v)",
                )
        if inserts:
            cert.obligations["ownership:frontier"] = (
                "VIOLATED: mis-keyed frontier insert"
                if not frontier_ok
                else f"{inserts} frontier insert(s) keyed by the "
                "inserted vertex's owner"
            )

    def _worker_writes_owned(
        self,
        worker: ast.FunctionDef,
        info: ModuleInfo,
        report: DistReport,
        cert: ProtocolCertificate,
    ) -> bool:
        args = worker.args
        params = list(args.posonlyargs) + list(args.args)
        if not params:
            return True
        item = params[0].arg
        ok = True
        for node in _walk_local(worker):
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if not isinstance(target, ast.Subscript):
                    continue
                idx = _strip_value(target.slice)
                if isinstance(idx, ast.Name) and idx.id == item:
                    continue
                ok = False
                self._emit(
                    report,
                    cert,
                    info,
                    node,
                    "SAN603",
                    "error",
                    f"shard-parallel worker {worker.name!r} writes a "
                    "slot not indexed by its owned item "
                    f"{item!r} — not provably write-disjoint across "
                    "shards",
                )
            declared = _declared_write_slot(node)
            if declared is not None:
                declared = _strip_value(declared)
                if not (
                    isinstance(declared, ast.Name) and declared.id == item
                ):
                    ok = False
                    self._emit(
                        report,
                        cert,
                        info,
                        node,
                        "SAN603",
                        "error",
                        f"worker {worker.name!r} declares a write slot "
                        f"other than its owned item {item!r}",
                    )
        return ok

    # -- replay safety of failover handlers (SAN606) -------------------

    def _check_replay(
        self,
        spec: ProtocolSpec,
        info: ModuleInfo,
        cert: ProtocolCertificate,
        report: DistReport,
        lww: frozenset[str],
        metrics: frozenset[str],
    ) -> None:
        est_names = frozenset(spec.estimates) | frozenset(spec.live)
        for name in spec.handler_roots:
            resolved = self._resolve_tail(info, name)
            if not resolved:
                self._emit(
                    report,
                    cert,
                    info,
                    info.tree,
                    "SAN606",
                    "error",
                    f"declared handler root {name!r} not found in "
                    f"{info.name}",
                )
                continue
            for qual, fn in resolved:
                summary = self._judge_handler(
                    qual, fn, info, cert, report, est_names, lww, metrics
                )
                cert.handlers[qual] = summary
                cert.obligations[f"replay:{qual}"] = summary

    def _judge_handler(
        self,
        qual: str,
        fn: ast.FunctionDef,
        info: ModuleInfo,
        cert: ProtocolCertificate,
        report: DistReport,
        est_names: frozenset[str],
        lww: frozenset[str],
        metrics: frozenset[str],
    ) -> str:
        locals_ = _local_names(fn)
        counts = {"lww": 0, "metric": 0, "local": 0}
        violated = False

        def judge_target(node: ast.AST, target: ast.AST, aug: bool) -> None:
            nonlocal violated
            if isinstance(target, ast.Tuple):
                for elt in target.elts:
                    judge_target(node, elt, aug)
                return
            if isinstance(target, ast.Name):
                counts["local"] += 1
                return
            if isinstance(target, ast.Attribute):
                if target.attr in metrics:
                    counts["metric"] += 1
                    return
                if target.attr in lww and not aug:
                    counts["lww"] += 1
                    return
            if isinstance(target, ast.Subscript):
                base = _base_name_of(target)
                if base in locals_:
                    counts["local"] += 1
                    return
                if not aug and base in est_names:
                    counts["lww"] += 1
                    return
                if not aug and base is not None:
                    free = {
                        n.id
                        for n in ast.walk(getattr(node, "value", node))
                        if isinstance(n, ast.Name)
                    }
                    if base not in free:
                        counts["lww"] += 1
                        return
            violated = True
            self._emit(
                report,
                cert,
                info,
                node,
                "SAN606",
                "error",
                f"handler {qual} write is neither last-writer-wins on "
                "owned state, min-combining, nor a declared metric — "
                "replaying this handler double-applies it",
            )

        for node in _walk_local(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    judge_target(node, target, aug=False)
            elif isinstance(node, ast.AnnAssign):
                judge_target(node, node.target, aug=False)
            elif isinstance(node, ast.AugAssign):
                judge_target(node, node.target, aug=True)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
            ):
                base = _base_name_of(_strip_value(node.func.value))
                if base in locals_:
                    counts["local"] += 1
                else:
                    violated = True
                    self._emit(
                        report,
                        cert,
                        info,
                        node,
                        "SAN606",
                        "error",
                        f"handler {qual} mutates non-local container "
                        f"via .{node.func.attr}() — not replay-safe",
                    )
        if violated:
            return "VIOLATED: non-idempotent write"
        return (
            f"lww={counts['lww']} metric={counts['metric']} "
            f"local={counts['local']}"
        )

    # -- finding plumbing ----------------------------------------------

    def _emit(
        self,
        report: DistReport,
        cert: ProtocolCertificate | None,
        info: ModuleInfo,
        node: ast.AST,
        code: str,
        severity: str,
        message: str,
    ) -> None:
        report.findings.append(
            Finding(
                path=info.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                code=code,
                severity=severity,
                message=message,
            )
        )
        if cert is not None and severity == "error":
            cert.status = "violations"

    # -- wire effects (SAN604) -----------------------------------------

    def _wire_descriptor(
        self, expr: ast.AST, literals: dict[str, int]
    ) -> dict | None:
        """Statically-derived ``{header_bytes, per_item_bytes, count}``
        of a send's byte-count expression, or None."""
        const = _const_bytes(expr, literals)
        if const is not None:
            return {"header_bytes": const, "per_item_bytes": 0, "count": ""}
        header = 0
        payload = expr
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            left = _const_bytes(expr.left, literals)
            right = _const_bytes(expr.right, literals)
            if left is not None:
                header, payload = left, expr.right
            elif right is not None:
                header, payload = right, expr.left
            else:
                return None
        if not (
            isinstance(payload, ast.BinOp)
            and isinstance(payload.op, ast.Mult)
        ):
            return None
        for per_side, count_side in (
            (payload.left, payload.right),
            (payload.right, payload.left),
        ):
            per: int | str | None = _const_bytes(per_side, literals)
            if per is None and isinstance(per_side, ast.Attribute):
                per = per_side.attr
            if per is not None and _looks_like_count(count_side):
                return {
                    "header_bytes": header,
                    "per_item_bytes": per,
                    "count": ast.unparse(count_side),
                }
        return None

    def _derive_sends(
        self, modules: dict[str, ModuleInfo]
    ) -> dict[str, tuple[dict | None, ModuleInfo, ast.Call]]:
        """site key -> (descriptor-or-None, module, call) across the
        cluster layer.  Keys are ``<module-tail>.<fn-tail>#<ordinal>``."""
        out: dict[str, tuple[dict | None, ModuleInfo, ast.Call]] = {}
        for name in sorted(modules):
            info = modules[name]
            literals = _module_int_literals(info)
            ordinal: dict[str, int] = {}
            for call, owner in self._send_sites(info):
                nbytes = None
                if len(call.args) >= 3:
                    nbytes = call.args[2]
                for kw in call.keywords:
                    if kw.arg == "nbytes":
                        nbytes = kw.value
                tail = f"{name.rsplit('.', 1)[-1]}.{owner.rsplit('.', 1)[-1]}"
                ordinal[tail] = ordinal.get(tail, 0) + 1
                key = f"{tail}#{ordinal[tail]}"
                desc = (
                    self._wire_descriptor(nbytes, literals)
                    if nbytes is not None
                    else None
                )
                out[key] = (desc, info, call)
        return out

    def _check_wire(
        self,
        modules: dict[str, ModuleInfo],
        network_info: ModuleInfo | None,
        wire_counters: tuple[str, ...],
        certs: list[ProtocolCertificate],
        report: DistReport,
    ) -> None:
        site_map: dict[str, dict] = {}
        for key, (desc, info, call) in self._derive_sends(modules).items():
            if desc is None:
                self._fail_certs(certs)
                self._emit(
                    report,
                    None,
                    info,
                    call,
                    "SAN604",
                    "error",
                    f"wire effect of send site {key} is not statically "
                    "derivable — byte count must be <const header> + "
                    "<const per-item> * <count>",
                )
                continue
            site_map[key] = desc
        for cert in certs:
            for key, desc in site_map.items():
                mod_tail = cert.module.rsplit(".", 1)[-1]
                if key.startswith(mod_tail + "."):
                    cert.sends[key] = desc
        if network_info is not None:
            self._check_wire_counters(
                network_info, wire_counters, certs, report
            )
            for cert in certs:
                cert.obligations.setdefault(
                    "wire:counters-metric-only",
                    "Network.send/cost/reset write only declared wire "
                    f"counters {sorted(wire_counters)}",
                )

    def _check_wire_counters(
        self,
        info: ModuleInfo,
        counters: tuple[str, ...],
        certs: list[ProtocolCertificate],
        report: DistReport,
    ) -> None:
        allowed = frozenset(counters)
        for tail in ("send", "cost", "reset"):
            qual = f"Network.{tail}"
            fn = info.functions.get(qual)
            if fn is None:
                continue
            bindings = self._bindings(fn)

            def counter_backed(name: str) -> bool:
                for kind, value, _ in bindings.get(name, ()):
                    if kind != "expr":
                        continue
                    for node in ast.walk(value):
                        if (
                            isinstance(node, ast.Attribute)
                            and node.attr in allowed
                        ):
                            return True
                return False

            for node in _walk_local(fn):
                targets: list[ast.AST] = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    bad = False
                    if isinstance(target, ast.Attribute):
                        bad = target.attr not in allowed
                    elif isinstance(target, ast.Subscript):
                        base = _base_name_of(target)
                        bad = base is None or not counter_backed(base)
                    if bad:
                        self._fail_certs(certs)
                        self._emit(
                            report,
                            None,
                            info,
                            node,
                            "SAN604",
                            "error",
                            f"{qual} writes a field outside the "
                            f"declared wire counters {sorted(allowed)}",
                        )
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATING_METHODS
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr not in allowed
                ):
                    self._fail_certs(certs)
                    self._emit(
                        report,
                        None,
                        info,
                        node,
                        "SAN604",
                        "error",
                        f"{qual} mutates a non-counter field via "
                        f".{node.func.attr}()",
                    )

    @staticmethod
    def _fail_certs(certs: list[ProtocolCertificate]) -> None:
        for cert in certs:
            cert.status = "violations"

    # -- orchestration -------------------------------------------------

    def _certify(
        self,
        spec: ProtocolSpec,
        info: ModuleInfo,
        report: DistReport,
        *,
        barrier: str = "superstep",
        lww: frozenset[str] = frozenset(),
        metrics: frozenset[str] = frozenset(),
        partition: dict | None = None,
        shard_info: ModuleInfo | None = None,
    ) -> ProtocolCertificate:
        cert = ProtocolCertificate(
            name=spec.name, module=spec.module, kernels=spec.kernels
        )
        report.certificates[spec.name] = cert
        self._check_monotone(spec, info, cert, report)
        roots = self._check_phase(spec, info, cert, report, barrier)
        self._check_ownership(
            spec, info, cert, report, roots, partition, shard_info
        )
        self._check_replay(
            spec,
            info,
            cert,
            report,
            lww | frozenset(spec.lww),
            metrics | frozenset(spec.metrics),
        )
        for kernel in spec.kernels:
            report.kernels[kernel] = spec.name
        return cert

    @staticmethod
    def _spec_from_literal(module: str, lit: dict) -> ProtocolSpec:
        def tup(key: str) -> tuple[str, ...]:
            return tuple(lit.get(key, ()) or ())

        return ProtocolSpec(
            name=str(lit.get("name", module.rsplit(".", 1)[-1])),
            module=module,
            kernels=tup("kernels"),
            estimates=tup("estimates"),
            live=tup("live"),
            compute_roots=tup("compute_roots"),
            send_scopes=tup("send_scopes"),
            recovery_roots=tup("recovery_roots"),
            rebuild_calls=tup("rebuild_calls"),
            handler_roots=tup("handler_roots"),
            metrics=tup("metrics"),
            lww=tup("lww"),
        )

    def analyze(self) -> DistReport:
        """Certify every declared protocol in the cluster layer."""
        report = DistReport()
        modules = {
            name: info
            for name, info in self._index.modules.items()
            if name == CLUSTER_PACKAGE
            or name.startswith(CLUSTER_PACKAGE + ".")
        }
        report.modules = len(modules)
        shard_info = modules.get(f"{CLUSTER_PACKAGE}.shard")
        network_info = modules.get(f"{CLUSTER_PACKAGE}.network")
        node_info = modules.get(f"{CLUSTER_PACKAGE}.node")
        cluster_info = modules.get(f"{CLUSTER_PACKAGE}.cluster")
        kernels_info = self._index.modules.get(KERNELS_MODULE)
        partition = (
            _module_literal(shard_info, "DIST_PARTITION")
            if shard_info
            else None
        )
        wire_counters = tuple(
            (_module_literal(network_info, "WIRE_COUNTERS") or ())
            if network_info
            else ()
        ) or ("messages", "bytes_sent", "total_cost", "links")
        lww = frozenset(
            (_module_literal(node_info, "LWW_FIELDS") or ())
            if node_info
            else ()
        )
        metrics = frozenset(
            (_module_literal(node_info, "METRIC_FIELDS") or ())
            if node_info
            else ()
        )
        barrier = (
            _module_literal(cluster_info, "BSP_BARRIER")
            if cluster_info
            else None
        ) or "superstep"
        certs: list[ProtocolCertificate] = []
        for name in sorted(modules):
            info = modules[name]
            lit = _module_literal(info, "DIST_PROTOCOL")
            if not isinstance(lit, dict):
                continue
            spec = self._spec_from_literal(name, lit)
            certs.append(
                self._certify(
                    spec,
                    info,
                    report,
                    barrier=barrier,
                    lww=lww,
                    metrics=metrics,
                    partition=partition,
                    shard_info=shard_info,
                )
            )
        self._check_wire(
            modules,
            network_info,
            wire_counters,
            certs,
            report,
        )
        if kernels_info is not None:
            table = FlowAnalyzer(self._index).kernel_table(KERNELS_MODULE)
            for kernel in table:
                if kernel.startswith("cluster") and kernel not in report.kernels:
                    report.kernels[kernel] = "unclassified"
                    self._fail_certs(certs)
                    self._emit(
                        report,
                        None,
                        kernels_info,
                        kernels_info.tree,
                        "SAN604",
                        "error",
                        f"cluster kernel {kernel!r} is not claimed by "
                        "any DIST_PROTOCOL declaration",
                    )
        report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
        return report


def analyze_dist(index: ModuleIndex | None = None) -> DistReport:
    """SAN6xx certification of the in-tree cluster layer."""
    return DistAnalyzer(index).analyze()


def analyze_protocol_source(
    source: str, protocol: dict, path: str = "<dist-selftest>"
) -> DistReport:
    """Certify one standalone module against an inline protocol spec.

    Powers the seeded selftest: send-site derivation, wire-counter and
    partition obligations are skipped (the module stands alone), but
    SAN601/602/603/606 run in full.
    """
    index = ModuleIndex()
    info = ModuleInfo("dist_selftest_module", path, source)
    index.modules[info.name] = info
    index.by_path[path] = info
    analyzer = DistAnalyzer(index)
    report = DistReport()
    report.modules = 1
    spec = analyzer._spec_from_literal(info.name, protocol)
    analyzer._certify(spec, info, report)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return report

# ======================================================================
# proof manifest (mirrors the SAN5xx prove manifest)
# ======================================================================

DIST_MANIFEST_SCHEMA = "dist-manifest/v1"
DEFAULT_DIST_MANIFEST_PATH = Path(__file__).with_name("dist_manifest.json")


def dist_manifest_payload(report: DistReport) -> dict:
    """Committed-manifest shape of one analysis run."""
    return {
        "schema": DIST_MANIFEST_SCHEMA,
        "version": 1,
        "protocols": {
            name: report.certificates[name].as_dict()
            for name in sorted(report.certificates)
        },
        "kernels": dict(sorted(report.kernels.items())),
    }


# ======================================================================
# seeded selftest
# ======================================================================

_SELFTEST_PROTOCOL = {
    "name": "selftest",
    "kernels": ("selftest_kernel",),
    "estimates": ("est", "committed"),
    "live": ("est",),
    "compute_roots": (),
    "send_scopes": (),
    "recovery_roots": (),
    "rebuild_calls": (),
    "handler_roots": ("exchange",),
    "metrics": (),
    "lww": (),
}

_NONMONO_SOURCE = """\
import numpy as np

def driver(graph, cluster, est, results, frontiers):
    committed = est.copy()

    def exchange():
        for s in sorted(results):
            ids, vals, _ = results[s]
            cluster.network.send(s, 1 - s, 16 + 8 * len(ids))
            est[ids] = est[ids] + vals
    cluster.superstep("step", {}, exchange)
"""
#: the planted ``est[ids] = est[ids] + vals`` (may raise the estimate)
_NONMONO_LINE = 10

_NONMONO_FIXED_SOURCE = _NONMONO_SOURCE.replace(
    "est[ids] = est[ids] + vals",
    "est[ids] = np.minimum(est[ids], vals)",
)

_PHASE_SOURCE = """\
import numpy as np

def driver(graph, cluster, est, results, frontiers):
    committed = est.copy()

    def compute(node):
        results[0] = committed[frontiers].copy()
        cluster.network.send(0, 1, 24)

    def exchange():
        for s in sorted(results):
            cluster.network.send(s, 1 - s, 16 + 8 * len(results[s]))
            est[frontiers] = np.minimum(est[frontiers], results[s])
    cluster.superstep("step", {0: compute}, exchange)
"""
#: the planted compute-phase ``cluster.network.send`` (escapes exchange)
_PHASE_LINE = 8

_PHASE_FIXED_SOURCE = _PHASE_SOURCE.replace(
    "        cluster.network.send(0, 1, 24)\n", ""
)


def dist_selftest() -> tuple[bool, str]:
    """Plant a non-monotone boundary update and a phase-escaping send;
    SimDist must flag both with exact line attribution, and the fixed
    variants must certify clean."""
    report = analyze_protocol_source(_NONMONO_SOURCE, _SELFTEST_PROTOCOL)
    mono = [f for f in report.findings if f.code == "SAN601"]
    if len(mono) != 1 or report.errors != mono:
        return False, (
            "selftest: expected exactly one SAN601 for the planted "
            f"non-monotone update, got {[str(f) for f in report.findings]}"
        )
    if mono[0].line != _NONMONO_LINE:
        return False, (
            f"selftest: SAN601 attributed to line {mono[0].line}, "
            f"expected {_NONMONO_LINE}"
        )
    if report.certificates["selftest"].status != "violations":
        return False, "selftest: planted non-monotone source certified"
    fixed = analyze_protocol_source(_NONMONO_FIXED_SOURCE, _SELFTEST_PROTOCOL)
    if fixed.findings or fixed.certificates["selftest"].status != "certified":
        return False, (
            "selftest: min-combining fix did not certify — "
            f"{[str(f) for f in fixed.findings]}"
        )
    report = analyze_protocol_source(_PHASE_SOURCE, _SELFTEST_PROTOCOL)
    phase = [f for f in report.findings if f.code == "SAN602"]
    if len(phase) != 1 or report.errors != phase:
        return False, (
            "selftest: expected exactly one SAN602 for the planted "
            f"phase-escaping send, got {[str(f) for f in report.findings]}"
        )
    if phase[0].line != _PHASE_LINE:
        return False, (
            f"selftest: SAN602 attributed to line {phase[0].line}, "
            f"expected {_PHASE_LINE}"
        )
    if report.certificates["selftest"].status != "violations":
        return False, "selftest: planted phase-escaping source certified"
    fixed = analyze_protocol_source(_PHASE_FIXED_SOURCE, _SELFTEST_PROTOCOL)
    if fixed.findings or fixed.certificates["selftest"].status != "certified":
        return False, (
            "selftest: exchange-confined fix did not certify — "
            f"{[str(f) for f in fixed.findings]}"
        )
    return True, (
        "dist selftest passed: planted SAN601 (non-monotone boundary "
        f"update, line {_NONMONO_LINE}) and SAN602 (phase-escaping "
        f"send, line {_PHASE_LINE}) caught; fixed variants certified"
    )
