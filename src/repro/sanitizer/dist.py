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
protocol facts as plain literals — ``DIST_PROTOCOL`` per protocol
module, ``BSP_BARRIER`` (cluster), ``DIST_PARTITION`` (shard),
``WIRE_COUNTERS`` (network), ``LWW_FIELDS`` / ``METRIC_FIELDS``
(node) — and the analyzer proves the obligations against the AST.
It keeps no default copy of a declaration: a declaring module without
its fact is a finding under the rule that reads it.  The AST facts
come from the shared scaffold: SimFlow's module index (top-level
literals, scope resolution, owners) and CFG, lint's worker discovery
and binding-site walk, and SimProve's affine forms.  Like SAN5xx,
results are proof certificates: suppression markers are **not**
honored — a failed obligation must be fixed or the declaration
amended.

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
file; ``repro sanitize`` detects drift through the shared
:mod:`repro.sanitizer.manifest` checker, exactly like the SAN5xx
proof manifest.  Each certificate's ``sends`` records the derived
wire shape (``header_bytes + per_item_bytes * count``) of every send
site, so a changed message format gates as drift.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.sanitizer import effects
from repro.sanitizer.cfg import guarding_tests
from repro.sanitizer.flow import (
    FlowAnalyzer,
    ModuleIndex,
    ModuleInfo,
    default_index,
    owner_scope,
)
from repro.sanitizer.intervals import aff_const, affine_of
from repro.sanitizer.lint import (
    MUTATING_METHODS,
    CertifiedReport,
    Finding,
    _binding_sites,
    _body_locals,
    _find_workers,
    _store_targets,
    _walk_local,
    _WorkerInfo,
)
from repro.sanitizer.selftest import Planted, check_planted

__all__ = [
    "ProtocolCertificate",
    "DistReport",
    "DistAnalyzer",
    "analyze_dist",
    "analyze_protocol_source",
    "DIST_MANIFEST_SCHEMA",
    "DEFAULT_DIST_MANIFEST_PATH",
    "dist_selftest",
]

#: Package whose modules carry ``DIST_PROTOCOL`` declarations.
CLUSTER_PACKAGE = "repro.cluster"

#: Module holding the ``KERNELS`` registry.
KERNELS_MODULE = "repro.sanitizer.kernels"

#: Committed proof manifest, next to this module.
DEFAULT_DIST_MANIFEST_PATH = Path(__file__).with_name("dist_manifest.json")
DIST_MANIFEST_SCHEMA = "dist-manifest/v1"

#: ``min``-flavored callables accepted as min-combining folds.
_MIN_ATTRS = ("minimum", "fmin", "min")

#: Protocol facts the cluster layer declares once, each in one module:
#: literal -> (module tail, rule whose checks read it, well-formedness).
_DECLARATIONS = {
    "BSP_BARRIER": ("cluster", "SAN602", lambda v: isinstance(v, str)),
    "DIST_PARTITION": (
        "shard",
        "SAN603",
        lambda v: isinstance(v, dict) and {"builder", "owner"} <= v.keys(),
    ),
    "WIRE_COUNTERS": (
        "network",
        "SAN604",
        lambda v: isinstance(v, (tuple, list)),
    ),
}


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
class DistReport(CertifiedReport):
    """Outcome of one SimDist run over the cluster layer."""

    #: kernel name -> owning protocol (or "unclassified")
    kernels: dict[str, str] = field(default_factory=dict)


# ======================================================================
# AST helpers
# ======================================================================


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

    # -- scope machinery -----------------------------------------------

    def _bindings(self, fn: ast.AST) -> dict[str, list]:
        """name -> [("expr", value, 0) | ("unpack", value, idx)] in
        source order, from the function's own (non-nested) body."""
        cached = self._bindings_cache.get(id(fn))
        if cached is not None:
            return cached
        out: dict[str, list] = {}
        for site, target, value in _binding_sites(fn, nested=False):
            assigned = isinstance(site, (ast.Assign, ast.AnnAssign))
            if not assigned or value is None:
                continue
            if isinstance(target, ast.Name):
                out.setdefault(target.id, []).append(("expr", value, 0))
            elif isinstance(target, ast.Tuple):
                for idx, elt in enumerate(target.elts):
                    if isinstance(elt, ast.Name):
                        out.setdefault(elt.id, []).append(
                            ("unpack", value, idx)
                        )
        self._bindings_cache[id(fn)] = out
        return out

    def _lookup(
        self, info: ModuleInfo, owner: str, name: str
    ) -> tuple[list, str]:
        """Bindings of ``name`` visible from ``owner``, innermost-out."""
        parts = owner_scope(owner)
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

    def _declared_roots(
        self,
        info: ModuleInfo,
        names: tuple[str, ...],
        kind: str,
        code: str,
        cert: ProtocolCertificate,
        report: DistReport,
    ):
        """``(qual, fn)`` of every function the declared roots name; a
        root that names none is a ``code`` error."""
        for name in names:
            resolved = self._resolve_tail(info, name)
            if not resolved:
                self._emit(
                    report,
                    cert,
                    info,
                    info.tree,
                    code,
                    "error",
                    f"declared {kind} root {name!r} not found in {info.name}",
                )
            yield from resolved

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
                    owner = info.owners[id(node)]
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

    @staticmethod
    def _method_calls(
        info: ModuleInfo, attr: str | None
    ) -> list[tuple[ast.Call, str]]:
        """Every ``<receiver>.<attr>(...)`` call with its owning function
        qualpath, in source order."""
        sites = [
            (node, info.owners[id(node)])
            for node in ast.walk(info.tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr
        ]
        sites.sort(key=lambda s: (s[0].lineno, s[0].col_offset))
        return sites

    def _send_sites(self, info: ModuleInfo) -> list[tuple[ast.Call, str]]:
        """The ``.send(...)`` calls whose receiver chain mentions the
        network."""
        return [
            (call, owner)
            for call, owner in self._method_calls(info, "send")
            if "network" in _attr_chain(call.func.value)
        ]

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
                    qual = info.resolve_local(
                        owner_scope(value_owner), value.id
                    )
                    if qual:
                        roots.add(qual)
                elif isinstance(value, ast.Call) and isinstance(
                    value.func, ast.Name
                ):
                    factory = info.resolve_local(
                        owner_scope(value_owner), value.func.id
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
                    callee = info.resolve_local(
                        owner_scope(qual), node.func.id
                    )
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
        barrier: str | None,
    ) -> set[str]:
        steps = self._method_calls(info, barrier)
        allowed: set[str] = set()
        for call, owner in steps:
            arg = None
            if len(call.args) >= 3:
                arg = call.args[2]
            for kw in call.keywords:
                if kw.arg == "exchange":
                    arg = kw.value
            if isinstance(arg, ast.Name):
                qual = info.resolve_local(owner_scope(owner), arg.id)
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
                    cert.obligations.setdefault(
                        "phase:freeze",
                        "live state snapshotted (.copy()) before each "
                        "superstep",
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
            for qual, fn in self._declared_roots(
                info, spec.recovery_roots, "recovery", "SAN602", cert, report
            ):
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
        if shard_info is not None and partition is not None:
            builder = partition["builder"]
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
            for worker in _find_workers(fn):
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
        if partition is None:
            return  # no declared owner map to key frontier inserts by
        owner_name = partition["owner"]
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
        worker: _WorkerInfo,
        info: ModuleInfo,
        report: DistReport,
        cert: ProtocolCertificate,
    ) -> bool:
        item = worker.item
        if item is None:
            return True
        ok = True
        for node in _walk_local(worker.node):
            for target in _store_targets(node):
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
        for qual, fn in self._declared_roots(
            info, spec.handler_roots, "handler", "SAN606", cert, report
        ):
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
        args = fn.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [p for p in (args.vararg, args.kwarg) if p is not None]
        locals_ = _body_locals(fn) | {p.arg for p in params}
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
            for target in _store_targets(node):
                judge_target(node, target, isinstance(node, ast.AugAssign))
            if (
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
            literals = {
                const: value.value
                for const, value in info.top_level.items()
                if isinstance(value, ast.Constant)
                and type(value.value) is int
            }
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
        wire_counters: tuple[str, ...] | None,
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
        if network_info is not None and wire_counters is not None:
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
                for target in _store_targets(node):
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
        barrier: str | None,
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
        declared = {
            f.name: tuple(lit.get(f.name) or ())
            for f in fields(ProtocolSpec)
            if f.name not in ("name", "module")
        }
        name = str(lit.get("name", module.rsplit(".", 1)[-1]))
        return ProtocolSpec(name=name, module=module, **declared)

    def analyze(self) -> DistReport:
        """Certify every declared protocol in the cluster layer."""
        report = DistReport()
        modules = {
            name: info
            for name, info in self._index.modules.items()
            if name == CLUSTER_PACKAGE
            or name.startswith(CLUSTER_PACKAGE + ".")
        }
        kernels_info = self._index.modules.get(KERNELS_MODULE)
        node_info = modules.get(f"{CLUSTER_PACKAGE}.node")
        lww = frozenset((node_info and node_info.literal("LWW_FIELDS")) or ())
        metrics = frozenset(
            (node_info and node_info.literal("METRIC_FIELDS")) or ()
        )
        # a declaring module that is absent leaves its checks unrun; one
        # that is present must declare the fact
        declared: dict[str, object] = {}
        undeclared: list[tuple[ModuleInfo, str, str]] = []
        for literal, (tail, code, valid) in _DECLARATIONS.items():
            info = modules.get(f"{CLUSTER_PACKAGE}.{tail}")
            value = info.literal(literal) if info is not None else None
            if info is not None and not valid(value):
                undeclared.append((info, literal, code))
                value = None
            declared[literal] = value
        shard_info = modules.get(f"{CLUSTER_PACKAGE}.shard")
        certs: list[ProtocolCertificate] = []
        for name in sorted(modules):
            info = modules[name]
            lit = info.literal("DIST_PROTOCOL")
            if not isinstance(lit, dict):
                continue
            spec = self._spec_from_literal(name, lit)
            certs.append(
                self._certify(
                    spec,
                    info,
                    report,
                    barrier=declared["BSP_BARRIER"],
                    lww=lww,
                    metrics=metrics,
                    partition=declared["DIST_PARTITION"],
                    shard_info=shard_info,
                )
            )
        for info, literal, code in undeclared:
            self._fail_certs(certs)
            self._emit(
                report,
                None,
                info,
                info.tree,
                code,
                "error",
                f"{info.name} declares no well-formed {literal} — the "
                f"{code} checks that read it cannot run",
            )
        self._check_wire(
            modules,
            modules.get(f"{CLUSTER_PACKAGE}.network"),
            declared["WIRE_COUNTERS"],
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
    SAN601/602/603/606 run in full, against the cluster layer's own
    barrier and owner-map declarations.
    """
    from repro.cluster.cluster import BSP_BARRIER
    from repro.cluster.shard import DIST_PARTITION

    index, info = ModuleIndex.of_source(source, path, "dist_selftest_module")
    analyzer = DistAnalyzer(index)
    report = DistReport()
    spec = analyzer._spec_from_literal(info.name, protocol)
    analyzer._certify(
        spec, info, report, barrier=BSP_BARRIER, partition=DIST_PARTITION
    )
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return report

# ======================================================================
# seeded selftest
# ======================================================================

_SELFTEST_PROTOCOL = {
    "name": "selftest",
    "kernels": ("selftest_kernel",),
    "estimates": ("est", "committed"),
    "live": ("est",),
    "handler_roots": ("exchange",),
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

_PHASE_FIXED_SOURCE = _PHASE_SOURCE.replace(
    "        cluster.network.send(0, 1, 24)\n", ""
)


#: The seeded SAN6xx bugs ``dist_selftest`` must catch.
_PLANTED = (
    Planted(
        "non-monotone boundary update",
        _NONMONO_SOURCE,
        "SAN601",
        10,
        _NONMONO_FIXED_SOURCE,
    ),
    Planted(
        "phase-escaping send", _PHASE_SOURCE, "SAN602", 8, _PHASE_FIXED_SOURCE
    ),
)


def dist_selftest() -> tuple[bool, str]:
    """Plant a non-monotone boundary update and a phase-escaping send;
    SimDist must flag both with exact line attribution, and the fixed
    variants must certify clean."""
    return check_planted(
        _PLANTED,
        lambda src: analyze_protocol_source(src, _SELFTEST_PROTOCOL),
        lambda report: not report.findings
        and report.certified == ["selftest"],
    )
