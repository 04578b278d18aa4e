"""SimProve: SAN5xx static bounds proofs + determinism certification.

SimCheck establishes memory soundness *dynamically*: every recorded
access pays a read/write barrier, and only executed inputs are
covered.  SimProve establishes the same properties *statically*, once
per kernel, for all inputs (wall time measured by
``benchmarks/bench_analysis.py``).  Which call reads, writes or combines
what, and which argument indexes it, comes from the substrate's
effects table (:mod:`repro.sanitizer.effects`).

Three analyses over the PR-5 CFG/call-graph machinery:

**Bounds proofs (SAN501/SAN502).**  For every kernel in the registry,
walk the call graph to its ``parallel_for`` / ``parallel_slices``
workers and collect one *obligation* per array access: numpy subscript
stores/loads and slices of arrays with declared extents
(``KERNEL_EXTENTS`` on the kernels registry), recorded
``ctx.read/write/atomic(("name", idx))`` accesses whose constant name
has a declared extent, and Atomic* method calls
whose constructor is resolvable in-module (an ``AtomicArray(n,
name="pkc_deg")`` receiver self-declares extent ``n`` for location
name ``"pkc_deg"``).  The list argument of a bulk call
(``ctx.read_row("name", seq)``, ``recv.claim(ctx, seq)``,
``recv.add_row(ctx, seq, ...)``) is one obligation on an element of
``seq``, and a comprehension's target ranges over its iterable as a
for loop's does.  Each obligation is judged by an interval
fixpoint over the worker's CFG (:mod:`repro.sanitizer.intervals`):
``range`` loops bind tight intervals, ``start, end = item`` chunk
unpacking binds ``[0, n]``, CSR idioms supply value facts (elements of
``indices`` are vertex ids below ``len(indptr) - 1``; elements of
``indptr`` are offsets up to ``len(indices)``; ``np.searchsorted(a,
x)`` lands in ``[0, len(a)]``).  Verdicts: *proven*, *unproven*
(SAN502 warning — fail closed), or *violation* (SAN501 error — only
from *tight* intervals whose attained endpoint provably escapes).

**Determinism certification (SAN503).**  Combining operations
reachable from ``parallel_for`` are classified by the combine class
of their declaration: ``fetch_add``, the ``fetch_min`` folds, CAS
claims (``compare_and_swap``/``claim``/``add_if_absent``) and the
pivot union-find ops commute bitwise under the substrate's
deterministic schedule; ``add``/``add_row``/``add_many`` commute on
integers only, so float receivers are flagged SAN503 (order-sensitive
reduction), as are ``AtomicList.append`` and ``AtomicArray.store``.
A receiver's class and dtype resolve from its in-module constructor
site (``AtomicArray``'s default is ``np.int64``); an unresolved
receiver is looked up by method name only where every declaring
class agrees, and anything else is recorded as *assumed* — listed on
the certificate, never silently commutative.

**Certificates + manifest.**  Each kernel gets a
:class:`KernelCertificate` — ``certified`` iff zero SAN501 and not
order-sensitive (SAN502 residues are recorded on the certificate, not
hidden) — committed to ``prove_manifest.json`` with line-free keys.
``repro sanitize --prove`` regenerates and diffs against the committed
manifest; drift is an error in the 0/1/2 exit contract (refresh with
``--write-manifest``).  Suppression: a trailing ``# sani: ok -
reason`` skips that line's obligations and SAN503 sites, same as
every other SAN family.
"""

from __future__ import annotations

import ast
import re
from collections import deque
from copy import copy
from dataclasses import dataclass, field
from pathlib import Path

from repro.sanitizer import effects, manifest
from repro.sanitizer.cfg import CFG, build_cfg
from repro.sanitizer.flow import (
    FlowAnalyzer,
    FunctionRef,
    ModuleIndex,
    ModuleInfo,
    default_index,
)
from repro.sanitizer.intervals import (
    Affine,
    Interval,
    SymbolFacts,
    affine_of,
    aff_const,
    aff_repr,
    aff_sub,
    aff_sym,
    prove_le,
    prove_nonneg,
    upper_const,
)
from repro.sanitizer.lint import (
    _ATOMIC_CONSTRUCTORS,
    Finding,
    Report,
    _find_workers,
    _passes,
    _WorkerInfo,
)

__all__ = [
    "AtomicSite",
    "BoundsObligation",
    "DEFAULT_MANIFEST_PATH",
    "KernelCertificate",
    "MANIFEST_SCHEMA",
    "ProveReport",
    "manifest_payload",
    "prove_kernels",
    "prove_selftest",
    "prove_source",
]

#: Committed proof manifest, next to this module.
DEFAULT_MANIFEST_PATH = Path(__file__).with_name("prove_manifest.json")
MANIFEST_SCHEMA = "prove-manifest/v1"

#: ``# prove: item in [lo, hi)`` / ``# prove: chunks of [0, hi)`` /
#: ``# prove: slice of [lo, hi)`` assumption markers, attached to the
#: ``parallel_for`` / ``parallel_slices`` call line or the worker
#: ``def`` line.  They declare the work-item domain when it is
#: data-dependent (a frontier of vertex ids) — an assume-guarantee
#: boundary recorded verbatim on the certificate; the slice form says
#: every element of a ``parallel_slices`` worker's slice lies in the
#: range.  Assumed intervals are never tight, so they can prove
#: accesses in-bounds but can never escalate to SAN501.
_ASSUME_ITEM_RE = re.compile(
    r"#\s*prove:\s*item\s+in\s+\[\s*([^,\]]+?)\s*,\s*([^)\]]+?)\s*\)"
)
_ASSUME_CHUNK_RE = re.compile(
    r"#\s*prove:\s*chunks\s+of\s+\[\s*([^,\]]+?)\s*,\s*([^)\]]+?)\s*\)"
)
_ASSUME_SLICE_RE = re.compile(
    r"#\s*prove:\s*slice\s+of\s+\[\s*([^,\]]+?)\s*,\s*([^)\]]+?)\s*\)"
)

_MAX_BLOCK_VISITS = 8
_WIDEN_AFTER = 2


# ======================================================================
# findings / certificates
# ======================================================================


@dataclass
class BoundsObligation:
    """One array access the prover must discharge."""

    kernel: str
    path: str
    worker: str
    kind: str  # "store" | "load" | "slice" | "recorded" | "atomic"
    array: str
    index_repr: str
    line: int
    outcome: str = "unproven"  # "proven" | "unproven" | "violation"
    reason: str = ""

    @property
    def key(self) -> str:
        base = Path(self.path).name
        return f"{self.kind}:{base}:{self.worker}:{self.array}[{self.index_repr}]"


@dataclass
class AtomicSite:
    """One combining operation reachable from a kernel's workers."""

    path: str
    func: str
    recv: str
    method: str
    dtype: str  # "int" | "float" | "set" | "list" | "unknown" | "-"
    klass: str  # "commutative" | "order-sensitive" | "assumed"
    line: int

    @property
    def key(self) -> str:
        return f"{Path(self.path).name}:{self.func}:{self.recv}.{self.method}"


@dataclass
class KernelCertificate:
    """Per-kernel proof artifact, serialized into the manifest."""

    name: str
    status: str = "certified"  # | "violations" | "order-sensitive"
    determinism: str = "commutative"  # | "assumed" | "order-sensitive"
    fully_proven: bool = False
    proven_arrays: tuple = ()
    obligations: list = field(default_factory=list)
    atomics: list = field(default_factory=list)
    assumptions: tuple = ()

    @property
    def bounds(self) -> dict:
        counts = {"proven": 0, "unproven": 0, "violations": 0}
        for ob in self.obligations:
            if ob.outcome == "proven":
                counts["proven"] += 1
            elif ob.outcome == "violation":
                counts["violations"] += 1
            else:
                counts["unproven"] += 1
        return counts

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "determinism": self.determinism,
            "fully_proven": self.fully_proven,
            "proven_arrays": sorted(self.proven_arrays),
            "bounds": self.bounds,
            "obligations": {
                ob.key: ob.outcome
                for ob in sorted(self.obligations, key=lambda o: o.key)
            },
            "atomics": {
                site.key: site.klass
                for site in sorted(self.atomics, key=lambda s: s.key)
            },
            "assumptions": sorted(self.assumptions),
        }


@dataclass
class ProveReport(Report):
    """Everything one ``--prove`` run produced."""

    certificates: dict = field(default_factory=dict)
    #: (path, line) of ``# prove:`` markers consumed this run (SAN002)
    used_marker_lines: set = field(default_factory=set)

    @property
    def certified(self) -> list[str]:
        return manifest.certified(self.certificates)


# ======================================================================
# extent / assumption parsing
# ======================================================================


def _parse_extent(expr: str) -> Affine | None:
    """Parse a ``KERNEL_EXTENTS`` value like ``"n + 1"`` / ``"2 * m"``."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError:
        return None
    return affine_of(tree.body, aff_sym)


class _Assumptions:
    """``# prove:`` markers of one module, by source line."""

    def __init__(self, source: str) -> None:
        self.items: dict[int, tuple] = {}
        self.chunks: dict[int, tuple] = {}
        self.slices: dict[int, tuple] = {}
        #: lines whose marker actually seeded an environment this run
        #: (SAN002 dead-suppression support)
        self.used_lines: set[int] = set()
        for i, text in enumerate(source.splitlines(), start=1):
            m = _ASSUME_ITEM_RE.search(text)
            if m:
                lo, hi = _parse_extent(m.group(1)), _parse_extent(m.group(2))
                if lo is not None and hi is not None:
                    self.items[i] = (lo, hi, f"item in [{m.group(1)}, {m.group(2)})")
            m = _ASSUME_CHUNK_RE.search(text)
            if m:
                lo, hi = _parse_extent(m.group(1)), _parse_extent(m.group(2))
                if lo is not None and hi is not None:
                    self.chunks[i] = (lo, hi, f"chunks of [{m.group(1)}, {m.group(2)})")
            m = _ASSUME_SLICE_RE.search(text)
            if m:
                lo, hi = _parse_extent(m.group(1)), _parse_extent(m.group(2))
                if lo is not None and hi is not None:
                    self.slices[i] = (lo, hi, f"slice of [{m.group(1)}, {m.group(2)})")

    def item_at(self, *lines: int) -> tuple | None:
        for ln in lines:
            if ln in self.items:
                self.used_lines.add(ln)
                return self.items[ln]
        return None

    def chunk_at(self, *lines: int) -> tuple | None:
        for ln in lines:
            if ln in self.chunks:
                self.used_lines.add(ln)
                return self.chunks[ln]
        return None

    def slice_at(self, *lines: int) -> tuple | None:
        for ln in lines:
            if ln in self.slices:
                self.used_lines.add(ln)
                return self.slices[ln]
        return None


# ======================================================================
# receiver constructor resolution (Atomic* dtypes and extents)
# ======================================================================

_FLOAT_DTYPES = ("float16", "float32", "float64", "float128", "float")
_INT_DTYPES = (
    "int8",
    "int16",
    "int32",
    "int64",
    "uint8",
    "uint16",
    "uint32",
    "uint64",
    "int",
    "intp",
    "bool_",
)


def _dtype_class(node: ast.AST | None) -> str:
    """"int"/"float"/"unknown" from a ``dtype=`` argument node."""
    name = None
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    if name in _FLOAT_DTYPES:
        return "float"
    if name in _INT_DTYPES:
        return "int"
    return "unknown"


@dataclass
class _Ctor:
    """Resolved ``recv = Atomic*(...)`` constructor facts."""

    cls: str  # the Atomic* class the receiver is built from
    dtype: str  # "int" | "float" | "unknown" | "-"
    extent: Affine | None = None  # AtomicArray size argument
    runtime_name: str | None = None  # constant name= kwarg


def _resolve_ctor(info: ModuleInfo, recv: str) -> _Ctor | None:
    """Find the (unique) ``recv = Atomic*(...)`` assignment in-module.

    Conflicting assignments fail closed to None (dtype unknown).
    """
    found: _Ctor | None = None
    for node in ast.walk(info.tree):
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == recv
            and isinstance(node.value, ast.Call)
        ):
            continue
        func = node.value.func
        ctor_name = None
        from_array = False
        if isinstance(func, ast.Name):
            ctor_name = func.id
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            # classmethod, e.g. AtomicArray.from_array
            ctor_name = func.value.id
            from_array = func.attr == "from_array"
        if ctor_name not in _ATOMIC_CONSTRUCTORS:
            continue
        kwargs = {kw.arg: kw.value for kw in node.value.keywords if kw.arg}
        name_node = kwargs.get("name")
        runtime_name = (
            name_node.value
            if isinstance(name_node, ast.Constant)
            and isinstance(name_node.value, str)
            else None
        )
        if ctor_name == "AtomicCounter":
            ctor = _Ctor(ctor_name, "int", None, runtime_name)
        elif ctor_name != "AtomicArray":
            ctor = _Ctor(ctor_name, "-", None, runtime_name)
        elif from_array:
            ctor = _Ctor(ctor_name, "unknown", None, runtime_name)
        else:
            dtype = (
                _dtype_class(kwargs["dtype"]) if "dtype" in kwargs else "int"
            )  # the AtomicArray ctor defaults dtype=np.int64
            size = node.value.args[0] if node.value.args else None
            ctor = _Ctor(ctor_name, dtype, affine_of(size, aff_sym), runtime_name)
        if found is not None and (found.cls, found.dtype) != (ctor.cls, ctor.dtype):
            return None
        found = ctor
    return found


def _indexed_array_call(method: str):
    """The ``AtomicArray`` declaration of ``method`` if it takes an index."""
    eff = effects.EFFECTS.get(("AtomicArray", method))
    return eff if eff is not None and eff.index is not None else None


def _atomic_extents(info: ModuleInfo, worker: _WorkerInfo, ctor_cache: dict) -> dict:
    """Receivers of indexed ``AtomicArray`` calls in ``worker`` whose
    constructor resolves in-module: each self-declares its extent."""
    out: dict = {}
    for node in ast.walk(worker.node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and _indexed_array_call(node.func.attr) is not None
        ):
            recv = node.func.value.id
            if recv not in ctor_cache:
                ctor_cache[recv] = _resolve_ctor(info, recv)
            ctor = ctor_cache[recv]
            if ctor is not None and ctor.cls == "AtomicArray":
                out[recv] = ctor
    return out


# ======================================================================
# interval evaluation over worker CFGs
# ======================================================================


class _WorkerScope:
    """Everything the evaluator knows about one worker closure."""

    def __init__(
        self,
        worker: _WorkerInfo,
        locals_: set,
        extents: dict,
        value_facts: dict,
        facts: SymbolFacts,
        chunk_extent: Affine | None,
    ) -> None:
        self.worker = worker
        self.locals = locals_
        self.extents = extents
        self.value_facts = value_facts
        self.facts = facts
        self.chunk_extent = chunk_extent
        #: ``parallel_slices`` worker over a range: the bounds of its
        #: slice's ``start`` and ``stop``
        self.slice_bounds: Interval | None = None
        #: locals holding index sequences with an element fact
        #: (:func:`_seed_slice_locals`), bound in the env but never scalars
        self.sequence_locals: set[str] = set()


def _eval(node: ast.AST, env: dict, scope: _WorkerScope) -> Interval:
    """Interval of an expression under ``env``; unknown -> top."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, int):
            return Interval.top()
        return Interval.const(node.value)
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        if node.id in self_locals(scope) or node.id == scope.worker.item:
            return Interval.top()  # local not yet bound on this path
        return Interval.sym(node.id)  # captured name: terminal symbol
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _eval(node.operand, env, scope).neg()
    if (
        isinstance(node, ast.Attribute)
        and node.attr in ("start", "stop")
        and isinstance(node.value, ast.Name)
        and node.value.id == scope.worker.item
        and scope.slice_bounds is not None
    ):
        return scope.slice_bounds
    if isinstance(node, ast.BinOp):
        left = _eval(node.left, env, scope)
        right = _eval(node.right, env, scope)
        if isinstance(node.op, ast.Add):
            return left.add(right)
        if isinstance(node.op, ast.Sub):
            return left.sub(right)
        if isinstance(node.op, ast.Mult):
            return left.mul(right)
        return Interval.top()  # // and % are non-affine: fail closed
    if isinstance(node, ast.IfExp):
        a = _eval(node.body, env, scope)
        b = _eval(node.orelse, env, scope)
        return a.join(b, scope.facts)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "int" and node.args:
            return _eval(node.args[0], env, scope)
        if isinstance(func, ast.Name) and func.id == "len" and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Name) and arg.id in scope.extents:
                ext = scope.extents[arg.id]
                if ext is not None:
                    return Interval.exact(ext)
            return Interval.top()
        if isinstance(func, ast.Name) and func.id in ("min", "max") and len(node.args) == 2:
            a = _eval(node.args[0], env, scope)
            b = _eval(node.args[1], env, scope)
            if func.id == "min":
                hi = a.hi if a.hi is not None else b.hi
                if a.hi is not None and b.hi is not None:
                    hi = a.hi if prove_le(a.hi, b.hi, scope.facts) else b.hi
                lo = None
                if a.lo is not None and b.lo is not None:
                    if prove_le(a.lo, b.lo, scope.facts):
                        lo = a.lo
                    elif prove_le(b.lo, a.lo, scope.facts):
                        lo = b.lo
                return Interval(lo, hi, False)
            lo = a.lo if a.lo is not None else b.lo
            if a.lo is not None and b.lo is not None:
                lo = a.lo if prove_le(b.lo, a.lo, scope.facts) else b.lo
            hi = None
            if a.hi is not None and b.hi is not None:
                if prove_le(b.hi, a.hi, scope.facts):
                    hi = a.hi
                elif prove_le(a.hi, b.hi, scope.facts):
                    hi = b.hi
            return Interval(lo, hi, False)
        attr = func.attr if isinstance(func, ast.Attribute) else None
        name = func.id if isinstance(func, ast.Name) else None
        if (attr == "searchsorted" or name == "searchsorted") and node.args:
            arr = node.args[0]
            if isinstance(arr, ast.Name) and scope.extents.get(arr.id) is not None:
                return Interval(aff_const(0), scope.extents[arr.id], False)
        return Interval.top()
    if isinstance(node, ast.Subscript):
        base = node.value
        if isinstance(base, ast.Name) and base.id in scope.value_facts:
            if not isinstance(node.slice, ast.Slice):
                return scope.value_facts[base.id]
        return Interval.top()
    return Interval.top()


def self_locals(scope: _WorkerScope) -> set:
    return scope.locals


def _iter_interval(
    iter_expr: ast.AST, env: dict, scope: _WorkerScope
) -> Interval:
    """Domain of a ``for`` target given its iterable expression."""
    node = iter_expr
    # unwrap list(range(...)) / enumerate is left unknown
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "list"
        and node.args
    ):
        node = node.args[0]
    # <expr>.tolist() yields the same values as <expr>; any argument
    # (or an unknown receiver, below) stays top
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "tolist"
        and not node.args
        and not node.keywords
    ):
        node = node.func.value
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
    ):
        args = node.args
        if len(args) == 3:
            step = args[2]
            if not (isinstance(step, ast.Constant) and step.value == 1):
                return Interval.top()  # non-unit step: fail closed
        if len(args) == 1:
            lo_iv, hi_iv = Interval.const(0), _eval(args[0], env, scope)
        elif len(args) in (2, 3):
            lo_iv, hi_iv = _eval(args[0], env, scope), _eval(args[1], env, scope)
        else:
            return Interval.top()
        if lo_iv.lo is None or hi_iv.hi is None:
            return Interval.top()
        tight = lo_iv.tight and hi_iv.tight and lo_iv.is_point() and hi_iv.is_point()
        return Interval(lo_iv.lo, aff_sub(hi_iv.hi, aff_const(1)), tight)
    # iterating a declared array (or a slice of one) yields its values
    if isinstance(node, ast.Name) and node.id in scope.value_facts:
        return scope.value_facts[node.id]
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id in scope.value_facts
    ):
        return scope.value_facts[node.value.id]
    return Interval.top()


def _apply_stmt(stmt: ast.AST, env: dict, scope: _WorkerScope) -> None:
    """Transfer function of one straight-line statement (in place)."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            env[target.id] = _eval(stmt.value, env, scope)
            return
        if (
            isinstance(target, ast.Tuple)
            and len(target.elts) == 2
            and all(isinstance(e, ast.Name) for e in target.elts)
            and isinstance(stmt.value, ast.Name)
            and stmt.value.id == scope.worker.item
            and scope.chunk_extent is not None
        ):
            # start, end = item over pool.partition(X): 0 <= s, e <= X
            bound = Interval(aff_const(0), scope.chunk_extent, False)
            env[target.elts[0].id] = bound
            env[target.elts[1].id] = bound
            return
        for sub in ast.walk(target):
            # only names actually rebound lose their interval; index
            # expressions inside a subscript target are reads
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                env[sub.id] = Interval.top()
        return
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        env[stmt.target.id] = (
            _eval(stmt.value, env, scope) if stmt.value else Interval.top()
        )
        return
    if isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
        current = env.get(stmt.target.id, Interval.top())
        delta = _eval(stmt.value, env, scope)
        if isinstance(stmt.op, ast.Add):
            env[stmt.target.id] = current.add(delta)
        elif isinstance(stmt.op, ast.Sub):
            env[stmt.target.id] = current.sub(delta)
        elif isinstance(stmt.op, ast.Mult):
            env[stmt.target.id] = current.mul(delta)
        else:
            env[stmt.target.id] = Interval.top()
        return
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    env[sub.id] = Interval.top()


def _join_envs(a: dict, b: dict, facts: SymbolFacts) -> dict:
    """Pointwise join; names bound on only one path drop to unknown."""
    return {
        name: a[name].join(b[name], facts)
        for name in a.keys() & b.keys()
    }


def _envs_equal(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] == b[k] for k in a)


def _fixpoint(
    cfg: CFG, seed: dict, scope: _WorkerScope
) -> dict:
    """Entry environment of every block, to a widened fixpoint."""
    in_envs: dict[int, dict] = {cfg.entry: dict(seed)}
    visits: dict[int, int] = {}
    worklist = [cfg.entry]
    while worklist:
        bid = worklist.pop()
        visits[bid] = visits.get(bid, 0) + 1
        if visits[bid] > _MAX_BLOCK_VISITS * 4:
            continue  # pathological graph: freeze (envs stay sound)
        block = cfg.blocks[bid]
        env = dict(in_envs.get(bid, {}))
        for stmt in block.stmts:
            _apply_stmt(stmt, env, scope)
        for pos, succ in enumerate(block.succs):
            out = dict(env)
            if block.kind == "for" and block.test is not None:
                if pos == 0 and isinstance(block.target, ast.Name):
                    # body edge: bind the loop variable's domain
                    out[block.target.id] = _iter_interval(
                        block.test, env, scope
                    )
                elif isinstance(block.target, ast.Name):
                    # exit edge: final value is not tracked
                    out[block.target.id] = Interval.top()
                elif block.target is not None:
                    for sub in ast.walk(block.target):
                        if isinstance(sub, ast.Name):
                            out[sub.id] = Interval.top()
            existing = in_envs.get(succ)
            if existing is None:
                in_envs[succ] = out
                worklist.append(succ)
                continue
            merged = _join_envs(existing, out, scope.facts)
            header = cfg.blocks[succ].is_loop
            if header and visits.get(succ, 0) >= _WIDEN_AFTER:
                merged = {
                    name: existing[name].widen(merged[name])
                    if name in existing
                    else merged[name]
                    for name in merged
                }
            if not _envs_equal(merged, existing):
                in_envs[succ] = merged
                worklist.append(succ)
    return in_envs


# ======================================================================
# obligation extraction + judging
# ======================================================================


def _judge_index(
    iv: Interval,
    extent: Affine | None,
    facts: SymbolFacts,
    neg_is_violation: bool,
) -> tuple[str, str]:
    """Judge ``index in [0, extent)``; returns (outcome, reason)."""
    if extent is None:
        return "unproven", "extent unresolved"
    if iv.provably_empty(facts):
        # e.g. a loop variable of range(5, 3): the access never runs,
        # but an empty domain must fail closed, never certify
        return "unproven", "empty/inverted index range"
    last = aff_sub(extent, aff_const(1))
    ok_lo = iv.lo is not None and prove_nonneg(iv.lo, facts)
    ok_hi = iv.hi is not None and prove_le(iv.hi, last, facts)
    if ok_lo and ok_hi:
        return "proven", f"0 <= {aff_repr(iv.lo)} .. {aff_repr(iv.hi)} <= {aff_repr(last)}"
    if iv.tight:
        if iv.hi is not None and prove_le(extent, iv.hi, facts):
            return (
                "violation",
                f"index reaches {aff_repr(iv.hi)} >= extent {aff_repr(extent)}",
            )
        if neg_is_violation and iv.lo is not None:
            hi_of_lo = upper_const(iv.lo, facts)
            if hi_of_lo is not None and hi_of_lo <= -1:
                return (
                    "violation",
                    f"index is at most {hi_of_lo} < 0",
                )
    side = "lower" if not ok_lo else "upper"
    return "unproven", f"{side} bound {iv!r} not provable against {aff_repr(extent)}"


def _judge_slice(
    lo_iv: Interval | None,
    hi_iv: Interval | None,
    extent: Affine | None,
    facts: SymbolFacts,
) -> tuple[str, str]:
    """Judge ``arr[a:b]`` meaningful: ``0 <= a`` and ``b <= extent``."""
    if extent is None:
        return "unproven", "extent unresolved"
    ok_lo = lo_iv is None or (
        lo_iv.lo is not None and prove_nonneg(lo_iv.lo, facts)
    )
    ok_hi = hi_iv is None or (
        hi_iv.hi is not None and prove_le(hi_iv.hi, extent, facts)
    )
    if ok_lo and ok_hi:
        return "proven", f"slice within [0, {aff_repr(extent)}]"
    side = "lower" if not ok_lo else "upper"
    return "unproven", f"slice {side} bound not provable"


def _index_repr(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<expr>"


class _ObligationCollector:
    """Walks one statement's expressions under a point environment."""

    def __init__(
        self,
        scope: _WorkerScope,
        env: dict,
        out: list,
        kernel: str,
        path: str,
        worker_name: str,
        suppressed: set,
        atomic_extents: dict,
    ) -> None:
        self.scope = scope
        self.env = env
        self.out = out
        self.kernel = kernel
        self.path = path
        self.worker_name = worker_name
        self.suppressed = suppressed
        self.atomic_extents = atomic_extents

    def _add(
        self,
        kind: str,
        array: str,
        index_node: ast.AST | None,
        line: int,
        outcome: str,
        reason: str,
        index_repr: str | None = None,
    ) -> None:
        self.out.append(
            BoundsObligation(
                kernel=self.kernel,
                path=self.path,
                worker=self.worker_name,
                kind=kind,
                array=array,
                index_repr=(
                    index_repr
                    if index_repr is not None
                    else _index_repr(index_node)
                ),
                line=line,
                outcome=outcome,
                reason=reason,
            )
        )

    def visit(self, node: ast.AST) -> None:
        # ast.walk's breadth-first order, except that a one-generator
        # comprehension's element and filters are visited with its
        # target bound to what iterating its iterable yields, as a for
        # loop's body would be
        todo = deque([node])
        while todo:
            sub = todo.popleft()
            if (
                isinstance(sub, (ast.ListComp, ast.SetComp, ast.GeneratorExp))
                and len(sub.generators) == 1
                and isinstance(sub.generators[0].target, ast.Name)
            ):
                gen = sub.generators[0]
                todo.append(gen.iter)
                env = dict(self.env)
                env[gen.target.id] = _iter_interval(gen.iter, self.env, self.scope)
                inner = copy(self)
                inner.env = env
                for part in (sub.elt, *gen.ifs):
                    inner.visit(part)
                continue
            todo.extend(ast.iter_child_nodes(sub))
            if getattr(sub, "lineno", None) in self.suppressed:
                continue
            if isinstance(sub, ast.Subscript):
                self._subscript(sub)
            elif isinstance(sub, ast.Call):
                self._call(sub)

    def _subscript(self, node: ast.Subscript) -> None:
        base = node.value
        if not isinstance(base, ast.Name):
            return
        extent = self.scope.extents.get(base.id)
        if base.id not in self.scope.extents:
            return
        line = node.lineno
        if isinstance(node.slice, ast.Slice):
            sl = node.slice
            if sl.step is not None and not (
                isinstance(sl.step, ast.Constant) and sl.step.value == 1
            ):
                self._add(
                    "slice", base.id, None, line, "unproven",
                    "non-unit slice step", index_repr=_index_repr(node.slice),
                )
                return
            lo_iv = (
                _eval(sl.lower, self.env, self.scope)
                if sl.lower is not None
                else None
            )
            hi_iv = (
                _eval(sl.upper, self.env, self.scope)
                if sl.upper is not None
                else None
            )
            outcome, reason = _judge_slice(
                lo_iv, hi_iv, extent, self.scope.facts
            )
            self._add(
                "slice", base.id, None, line, outcome, reason,
                index_repr=_index_repr(node.slice),
            )
            return
        if isinstance(node.slice, ast.Tuple):
            return  # multi-dim fancy indexing: out of scope, no claim
        if (
            isinstance(node.slice, ast.Name)
            and (
                node.slice.id not in self.env
                or node.slice.id in self.scope.sequence_locals
            )
            and node.slice.id in self.scope.value_facts
        ):
            # fancy indexing by a sequence whose elements are bounded
            # (a thread's slice, a CSR array): every element is an index
            iv = self.scope.value_facts[node.slice.id]
            kind = "store" if isinstance(node.ctx, ast.Store) else "load"
            outcome, reason = _judge_index(
                iv, extent, self.scope.facts, neg_is_violation=False
            )
            self._add(
                kind, base.id, None, line, outcome, reason,
                index_repr="*" + node.slice.id,
            )
            return
        iv = _eval(node.slice, self.env, self.scope)
        kind = "store" if isinstance(node.ctx, ast.Store) else "load"
        # numpy subscripts wrap negative indices, so only the upper
        # bound can convict; recorded accesses (below) reject them
        outcome, reason = _judge_index(
            iv, extent, self.scope.facts, neg_is_violation=False
        )
        self._add(kind, base.id, node.slice, line, outcome, reason)

    def _element(self, seq: ast.AST) -> tuple[Interval, str]:
        """Interval and repr of one element of an index-list argument.

        ``[e for v in it ...]`` yields ``e`` with ``v`` ranging over
        ``it`` (filters only narrow it); any other list is named
        ``*seq`` and ranges over what iterating it yields.
        """
        if (
            isinstance(seq, ast.ListComp)
            and len(seq.generators) == 1
            and isinstance(seq.generators[0].target, ast.Name)
        ):
            gen = seq.generators[0]
            env = dict(self.env)
            env[gen.target.id] = _iter_interval(gen.iter, self.env, self.scope)
            return _eval(seq.elt, env, self.scope), _index_repr(seq.elt)
        return (
            _iter_interval(seq, self.env, self.scope),
            "*" + _index_repr(seq),
        )

    def _call(self, node: ast.Call) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
        ):
            return
        ctx = self.scope.worker.ctx
        if func.value.id == ctx:
            # recorded accesses: ctx.read(("name", i)), and per-element
            # ones: ctx.read_row("name", seq) reads name[v] for v in seq
            eff = effects.ctx_call(func.attr)
            index = effects.index_expr(eff, node) if eff else None
            array = effects.tag_of(node) if index is not None else None
            if array in self.scope.extents:
                self._judge(
                    "recorded", array, self.scope.extents[array], eff,
                    index, node.lineno,
                )
            return
        # indexed AtomicArray methods: recv.add(ctx, index, ...), and
        # per-element ones: recv.claim(ctx, indices) — a resolvable
        # receiver's ctor size argument self-declares the extent
        eff = _indexed_array_call(func.attr)
        ctor = self.atomic_extents.get(func.value.id)
        if (
            eff is not None
            and ctor is not None
            and len(node.args) > max(eff.ctx, eff.arg)
            and isinstance(node.args[eff.ctx], ast.Name)
            and node.args[eff.ctx].id == ctx
        ):
            self._judge(
                "atomic", ctor.runtime_name or func.value.id, ctor.extent,
                eff, node.args[eff.arg], node.lineno,
            )

    def _judge(self, kind, array, extent, eff, index, line) -> None:
        """One obligation on ``index``, or on an element of it for a
        per-element access."""
        if eff.index == effects.PER_ELEMENT:
            iv, index_repr = self._element(index)
        else:
            iv = _eval(index, self.env, self.scope)
            index_repr = _index_repr(index)
        outcome, reason = _judge_index(
            iv, extent, self.scope.facts, neg_is_violation=True
        )
        self._add(kind, array, None, line, outcome, reason, index_repr)


# ======================================================================
# per-worker proving
# ======================================================================


def _worker_name(worker: _WorkerInfo) -> str:
    node = worker.node
    return getattr(node, "name", "<lambda>")


def _worker_locals(worker: _WorkerInfo) -> set:
    locals_: set = set()
    body = worker.node.body if isinstance(worker.node.body, list) else []
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                locals_.add(sub.id)
            elif isinstance(sub, (ast.For, ast.AsyncFor)):
                for t in ast.walk(sub.target):
                    if isinstance(t, ast.Name):
                        locals_.add(t.id)
    return locals_


def _csr_value_facts(extents: dict) -> dict:
    """The CSR trust idiom: when a kernel declares both ``indptr``
    (extent ``n + 1``) and ``indices``, loads from ``indptr`` yield
    offsets in ``[0, len(indices)]`` and loads from ``indices`` yield
    vertex ids in ``[0, len(indptr) - 2]`` — the same contract
    ``validate_csr`` enforces dynamically at graph build time."""
    facts: dict = {}
    ep, ei = extents.get("indptr"), extents.get("indices")
    if ep is not None and ei is not None:
        facts["indptr"] = Interval(aff_const(0), ei, False)
        facts["indices"] = Interval(
            aff_const(0), aff_sub(ep, aff_const(2)), False
        )
    return facts


def _seed_item_env(
    worker: _WorkerInfo,
    scope: _WorkerScope,
    assumptions: _Assumptions,
    used: list,
) -> None:
    """Bind the worker's item parameter from the items expression or a
    ``# prove:`` assumption; unknown domains stay unbound (top)."""
    if worker.item is None:
        return
    lines = (
        worker.call_line,
        worker.call_line - 1,
        worker.node.lineno,
        worker.node.lineno - 1,
    )
    if worker.slices:
        _seed_slice_env(worker, scope, assumptions, used, lines)
        return
    assumed = assumptions.item_at(*lines)
    if assumed is not None:
        lo, hi, text = assumed
        scope.base_env[worker.item] = Interval(
            lo, aff_sub(hi, aff_const(1)), False
        )
        used.append(f"{_worker_name(worker)}: {text}")
        return
    chunk = assumptions.chunk_at(*lines)
    if chunk is not None:
        _lo, hi, text = chunk
        scope.chunk_extent = hi
        used.append(f"{_worker_name(worker)}: {text}")
        return
    items = worker.items
    if items is None:
        return
    # pool.partition(X, ...) -> chunk tuples with 0 <= start,end <= X
    if (
        isinstance(items, ast.Call)
        and isinstance(items.func, ast.Attribute)
        and items.func.attr == "partition"
        and items.args
    ):
        extent = affine_of(items.args[0], aff_sym)
        if extent is not None:
            scope.chunk_extent = extent
        return
    iv = _iter_interval(items, {}, scope)
    if not iv.is_top:
        scope.base_env[worker.item] = iv


def _seed_slice_env(
    worker: _WorkerInfo,
    scope: _WorkerScope,
    assumptions: _Assumptions,
    used: list,
    lines: tuple,
) -> None:
    """Bind what iterating a ``parallel_slices`` worker's slice yields,
    from a ``# prove: slice of`` assumption or a ``range`` items
    expression (whose slices are ranges: ``start`` and ``stop`` are
    bounded too); unknown domains stay unbound."""
    assumed = assumptions.slice_at(*lines)
    if assumed is not None:
        lo, hi, text = assumed
        scope.value_facts[worker.item] = Interval(
            lo, aff_sub(hi, aff_const(1)), False
        )
        used.append(f"{_worker_name(worker)}: {text}")
        return
    if worker.items is None:
        return
    iv = _iter_interval(worker.items, {}, scope)
    if iv.lo is None or iv.hi is None:
        return
    scope.value_facts[worker.item] = Interval(iv.lo, iv.hi, False)
    if (
        isinstance(worker.items, ast.Call)
        and isinstance(worker.items.func, ast.Name)
        and worker.items.func.id == "range"
    ):
        scope.slice_bounds = Interval(
            iv.lo, aff_sub(iv.hi, aff_const(-1)), False
        )


def _seed_slice_locals(worker: _WorkerInfo, scope: _WorkerScope) -> None:
    """Element facts of a slice worker's local index sequences.

    A local all of whose assignments build a sequence of known elements
    — an empty list, a one-generator comprehension yielding its target
    (filters only narrow it), the rows ``<g>.gather_rows(...)`` returns
    first (elements of ``indices``) or a subscript of a sequence with
    the same fact (a mask or a fancy index keeps elements) — iterates
    over the join of those facts, like a declared array.  A local the
    worker may change in any other way gets no fact: a method call on
    it other than :data:`_READ_ONLY_METHODS`, a store into or deletion
    of one of its elements, any other augmented assignment, or a
    rebinding by ``for``, ``with``, ``:=``, ``del`` or a tuple target.
    """
    found: dict = {}
    changed = _changed_locals(worker.node)
    for node in ast.walk(worker.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            target, value = node.target, node.value
        else:
            continue
        if (
            isinstance(target, ast.Tuple)
            and target.elts
            and isinstance(target.elts[0], ast.Name)
            and isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "gather_rows"
        ):
            found.setdefault(target.elts[0].id, []).append(
                scope.value_facts.get("indices")
            )
        elif isinstance(target, ast.Name):
            found.setdefault(target.id, []).append(value)
    for name, values in found.items():
        fact = None
        for value in values:
            if isinstance(value, Interval) or value is None:
                iv = value
            elif isinstance(value, ast.List) and not value.elts:
                continue
            elif (
                isinstance(value, ast.ListComp)
                and len(value.generators) == 1
                and isinstance(value.elt, ast.Name)
                and isinstance(value.generators[0].target, ast.Name)
                and value.elt.id == value.generators[0].target.id
            ):
                iv = _iter_interval(value.generators[0].iter, {}, scope)
            elif (
                isinstance(value, ast.Subscript)
                and isinstance(value.value, ast.Name)
                and value.value.id == name
            ):
                continue
            else:
                iv = None
            if iv is None or iv.lo is None or iv.hi is None:
                fact = None
                break
            fact = iv if fact is None else fact.join(iv, scope.facts)
        if (
            fact is not None
            and name not in changed
            and name not in scope.value_facts
        ):
            scope.value_facts[name] = Interval(fact.lo, fact.hi, False)
            scope.sequence_locals.add(name)


#: Methods that leave a local index sequence's elements as they are.
_READ_ONLY_METHODS = frozenset({"tolist", "copy", "astype", "index", "count"})


def _changed_locals(func: ast.AST) -> set[str]:
    """Names whose elements ``func`` may change other than by the
    ``=`` / ``+=`` assignments :func:`_seed_slice_locals` reads."""
    changed: set[str] = set()

    def names(target: ast.AST) -> None:
        changed.update(
            n.id for n in ast.walk(target) if isinstance(n, ast.Name)
        )

    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            names(node.target)
        elif isinstance(node, ast.withitem) and node.optional_vars:
            names(node.optional_vars)
        elif isinstance(node, ast.NamedExpr):
            names(node.target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                names(target)
        elif isinstance(node, ast.AnnAssign):
            names(node.target)
        elif isinstance(node, ast.AugAssign) and not isinstance(node.op, ast.Add):
            names(node.target)
        elif isinstance(node, ast.Assign) and (
            len(node.targets) > 1 or not isinstance(node.targets[0], ast.Name)
        ):
            gathered = (
                isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "gather_rows"
            )
            for target in node.targets:
                if isinstance(target, ast.Tuple) and gathered:
                    for elt in target.elts[1:]:
                        names(elt)
                elif not isinstance(target, ast.Subscript):
                    names(target)
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and isinstance(node.value, ast.Name)
        ):
            changed.add(node.value.id)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.attr not in _READ_ONLY_METHODS
        ):
            changed.add(node.func.value.id)
    return changed


def _prove_worker(
    kernel: str,
    info: ModuleInfo,
    worker: _WorkerInfo,
    extents: dict,
    facts: SymbolFacts,
    assumptions: _Assumptions,
    atomic_extents: dict,
    used_assumptions: list,
) -> list:
    """All bounds obligations of one worker closure, judged."""
    node = worker.node
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return []
    locals_ = _worker_locals(worker)
    scope = _WorkerScope(
        worker, locals_, extents, _csr_value_facts(extents), facts, None
    )
    scope.base_env = {}
    _seed_item_env(worker, scope, assumptions, used_assumptions)
    if worker.slices:
        _seed_slice_locals(worker, scope)
    cfg = build_cfg(node)
    envs = _fixpoint(cfg, scope.base_env, scope)
    obligations: list = []
    for block in cfg.blocks:
        env = dict(envs.get(block.bid, {}))
        collector = _ObligationCollector(
            scope,
            env,
            obligations,
            kernel,
            info.path,
            _worker_name(worker),
            info.suppressed,
            atomic_extents,
        )
        if block.test is not None and getattr(
            block.test, "lineno", None
        ) not in info.suppressed:
            collector.visit(block.test)
        for stmt in block.stmts:
            collector.visit(stmt)
            _apply_stmt(stmt, env, scope)
    return obligations


# ======================================================================
# determinism classification
# ======================================================================


def _classify_sites(
    info: ModuleInfo,
    func_name: str,
    worker: _WorkerInfo,
    ctor_cache: dict,
) -> list:
    """Combining-operation sites inside one worker closure.

    Only method calls that pass the worker's ``ctx`` participate in
    the simulated-memory protocol; bare ``ctx.atomic`` ticks carry no
    combined value (cost/event modelling only) and are skipped.
    """
    sites: list = []
    ctx_name = worker.ctx
    if ctx_name is None:
        return sites
    for node in ast.walk(worker.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id != ctx_name
        ):
            continue
        if not _passes(node, ctx_name):
            continue
        method = func.attr
        recv = func.value.id
        if recv not in ctor_cache:
            ctor_cache[recv] = _resolve_ctor(info, recv)
        ctor = ctor_cache[recv]
        # key by the constructor's class; an unresolved receiver by
        # name, only where every declaring class agrees
        combine = (
            getattr(effects.EFFECTS.get((ctor.cls, method)), "combine", None)
            if ctor is not None
            else effects.agreed(method, "combine")
        )
        if combine == effects.PURE_READ:
            continue  # pure reads do not combine
        if node.lineno in info.suppressed:
            continue
        dtype = ctor.dtype if ctor is not None else "unknown"
        if combine == effects.DTYPE:
            klass = {
                "int": "commutative",
                "float": "order-sensitive",
            }.get(dtype, "assumed")
        elif combine in (effects.COMMUTATIVE, effects.ORDER_SENSITIVE):
            klass = combine
        else:
            klass = "assumed"
        sites.append(
            AtomicSite(
                path=info.path,
                func=func_name,
                recv=recv,
                method=method,
                dtype=dtype,
                klass=klass,
                line=node.lineno,
            )
        )
    return sites


# ======================================================================
# the analyzer
# ======================================================================


class ProveAnalyzer:
    """SimProve over a module index; reusable across kernels."""

    def __init__(self, index: ModuleIndex | None = None) -> None:
        self.index = index if index is not None else default_index()
        self._flow = FlowAnalyzer(self.index)
        self._assumptions: dict[str, _Assumptions] = {}
        self._ctors: dict[str, dict] = {}

    # ------------------------------------------------------------------

    def _module_assumptions(self, info: ModuleInfo) -> _Assumptions:
        if info.path not in self._assumptions:
            try:
                source = Path(info.path).read_text(encoding="utf-8")
            except OSError:
                source = ""
            self._assumptions[info.path] = _Assumptions(source)
        return self._assumptions[info.path]

    # ------------------------------------------------------------------

    def prove_entry(
        self,
        kernel: str,
        entry: FunctionRef,
        extent_exprs: dict,
    ) -> tuple[KernelCertificate, list]:
        """Prove one kernel entry point; returns the certificate and
        its findings as ``(ordering key, finding)`` pairs."""
        workers = [
            (ref.module, ref.qualpath, worker)
            for ref, worker in self._flow.reachable_workers(entry)
        ]
        return self._prove_workers(kernel, workers, extent_exprs)

    def _prove_workers(
        self, kernel: str, workers: list, extent_exprs: dict
    ) -> tuple[KernelCertificate, list]:
        """Prove ``(module, function name, worker)`` triples as one kernel."""
        extents: dict = {}
        facts = SymbolFacts()
        for array, expr in sorted(extent_exprs.items()):
            aff = _parse_extent(str(expr))
            extents[array] = aff  # None -> obligations fail closed
            for sym in aff or ():
                if sym:
                    # size symbols are nonnegative by construction
                    facts.declare(sym, Interval(aff_const(0), None, False))
        obligations: list = []
        sites: list = []
        assumptions_used: list = []
        for info, func_name, worker in workers:
            ctor_cache = self._ctors.setdefault(info.path, {})
            obligations.extend(
                _prove_worker(
                    kernel,
                    info,
                    worker,
                    extents,
                    facts,
                    self._module_assumptions(info),
                    _atomic_extents(info, worker, ctor_cache),
                    assumptions_used,
                )
            )
            sites.extend(_classify_sites(info, func_name, worker, ctor_cache))
        return self._certify(kernel, obligations, sites, assumptions_used)

    def _certify(
        self,
        kernel: str,
        obligations: list,
        sites: list,
        assumptions_used: list,
    ) -> tuple[KernelCertificate, list]:
        # each finding's line-free ordering key, in step with findings
        keys: list[str] = []
        findings: list = []
        violations = [o for o in obligations if o.outcome == "violation"]
        unproven = [o for o in obligations if o.outcome == "unproven"]
        order_sites = [s for s in sites if s.klass == "order-sensitive"]
        assumed_sites = [s for s in sites if s.klass == "assumed"]
        for ob in violations:
            keys.append(f"SAN501:{kernel}:{ob.key}")
            findings.append(
                Finding(
                    path=ob.path,
                    line=ob.line,
                    col=0,
                    code="SAN501",
                    severity="error",
                    message=(
                        f"kernel {kernel!r}: provable out-of-bounds "
                        f"{ob.kind} {ob.array}[{ob.index_repr}] in worker "
                        f"{ob.worker!r}: {ob.reason}"
                    ),
                )
            )
        for ob in unproven:
            keys.append(f"SAN502:{kernel}:{ob.key}")
            findings.append(
                Finding(
                    path=ob.path,
                    line=ob.line,
                    col=0,
                    code="SAN502",
                    severity="warning",
                    message=(
                        f"kernel {kernel!r}: unproven {ob.kind} "
                        f"{ob.array}[{ob.index_repr}] in worker "
                        f"{ob.worker!r}: {ob.reason}"
                    ),
                )
            )
        for site in order_sites:
            keys.append(f"SAN503:{kernel}:{site.key}")
            findings.append(
                Finding(
                    path=site.path,
                    line=site.line,
                    col=0,
                    code="SAN503",
                    severity="warning",
                    message=(
                        f"kernel {kernel!r}: order-sensitive reduction "
                        f"{site.recv}.{site.method} (dtype {site.dtype}) "
                        f"reachable from parallel_for in {site.func!r}; "
                        "result depends on combining order"
                    ),
                )
            )
        if order_sites:
            determinism = "order-sensitive"
        elif assumed_sites:
            determinism = "assumed"
        else:
            determinism = "commutative"
        if violations:
            status = "violations"
        elif order_sites:
            status = "order-sensitive"
        else:
            status = "certified"
        by_array: dict[str, list] = {}
        for ob in obligations:
            by_array.setdefault(ob.array, []).append(ob)
        proven_arrays = tuple(
            sorted(
                array
                for array, obs in by_array.items()
                if all(o.outcome == "proven" for o in obs)
            )
        )
        cert = KernelCertificate(
            name=kernel,
            status=status,
            determinism=determinism,
            fully_proven=(
                status == "certified"
                and bool(obligations)
                and not unproven
            ),
            proven_arrays=proven_arrays,
            obligations=obligations,
            atomics=sites,
            assumptions=tuple(assumptions_used),
        )
        return cert, list(zip(keys, findings))

    # ------------------------------------------------------------------

    def prove_kernels(
        self,
        names: list | None = None,
        kernels_module: str = "repro.sanitizer.kernels",
    ) -> ProveReport:
        from repro.sanitizer.kernels import KERNEL_EXTENTS

        table = self._flow.kernel_table(kernels_module)
        info = self.index.modules.get(kernels_module)
        report = ProveReport()
        if info is None:
            return report
        keyed: list = []
        selected = names if names is not None else sorted(table)
        for name in selected:
            fn_name = table.get(name)
            if fn_name is None:
                continue
            entry = self.index.get_function(kernels_module, fn_name)
            if entry is None:
                continue
            cert, findings = self.prove_entry(
                name, entry, KERNEL_EXTENTS.get(name, {})
            )
            report.certificates[name] = cert
            keyed.extend(findings)
        for path, assumes in self._assumptions.items():
            for ln in assumes.used_lines:
                report.used_marker_lines.add((path, ln))
        report.findings = _ordered(keyed)
        return report


def _ordered(keyed: list) -> list:
    """The findings of ``(key, finding)`` pairs by path, line and
    line-free key, so their order never depends on the kernel order."""
    keyed = sorted(keyed, key=lambda kf: (kf[1].path, kf[1].line, kf[0]))
    return [finding for _, finding in keyed]


def prove_kernels(
    names: list | None = None, index: ModuleIndex | None = None
) -> ProveReport:
    """Prove every registered kernel (or ``names``) and certify."""
    return ProveAnalyzer(index).prove_kernels(names)


def prove_source(
    source: str,
    path: str = "<prove>",
    extents: dict | None = None,
    kernel: str = "<source>",
) -> ProveReport:
    """Prove the workers of a source string — the selftest/test entry.

    ``extents`` maps array/location names to extent expressions, the
    same contract as ``KERNEL_EXTENTS`` values.
    """
    info = ModuleInfo("<prove>", path, source)
    analyzer = ProveAnalyzer(ModuleIndex())
    analyzer._assumptions[info.path] = _Assumptions(source)
    cert, findings = analyzer._prove_workers(
        kernel,
        [(info, "<module>", worker) for worker in _find_workers(info.tree)],
        dict(extents or {}),
    )
    report = ProveReport()
    report.certificates[kernel] = cert
    report.findings = _ordered(findings)
    return report


# ======================================================================
# manifest
# ======================================================================


def manifest_payload(report: ProveReport) -> dict:
    """Committed-manifest JSON payload for a full prove run."""
    return {
        "schema": MANIFEST_SCHEMA,
        "version": 1,
        "kernels": {
            name: report.certificates[name].as_dict()
            for name in sorted(report.certificates)
        },
    }


# ======================================================================
# seeded selftest
# ======================================================================

# A worker that provably stores one past the end of ``out`` (extent
# n): ``i`` attains ``n - 1`` so ``i + 1`` attains ``n``.  The exact
# line of the planted store is asserted by the selftest.
_OOB_SOURCE = '''\
def run_oob(pool, out, n):
    def worker(i, ctx):
        ctx.write(("out", int(i)))
        out[i + 1] = 0.0
    pool.parallel_for(range(n), worker, label="selftest:prove-oob")
'''
_OOB_LINE = 4

_OOB_FIXED_SOURCE = '''\
def run_oob_fixed(pool, out, n):
    def worker(i, ctx):
        ctx.write(("out", int(i)))
        out[i] = 0.0
    pool.parallel_for(range(n), worker, label="selftest:prove-oob")
'''

# A float fetch-add reduction: bitwise result depends on combining
# order, so the kernel must be flagged SAN503 and refused a
# determinism certificate.  The fixed variant accumulates in int64.
_FLOAT_SOURCE = '''\
def run_float(pool, values, n):
    sink = AtomicArray(4, dtype=np.float64, name="selftest_sink")
    def worker(i, ctx):
        sink.add(ctx, 0, values[i])
    pool.parallel_for(range(n), worker, label="selftest:prove-float")
'''
_FLOAT_LINE = 4

_FLOAT_FIXED_SOURCE = '''\
def run_float_fixed(pool, values, n):
    sink = AtomicArray(4, dtype=np.int64, name="selftest_sink")
    def worker(i, ctx):
        sink.add(ctx, 0, values[i])
    pool.parallel_for(range(n), worker, label="selftest:prove-float")
'''


def prove_selftest() -> tuple[bool, str]:
    """Plant an OOB store and a float reduction; the prover must catch
    both with exact line attribution and certify the fixed variants."""
    oob = prove_source(_OOB_SOURCE, path="<selftest:oob>", extents={"out": "n"})
    san501 = [f for f in oob.findings if f.code == "SAN501"]
    if len(san501) != 1:
        return False, f"expected 1 SAN501, got {len(san501)}"
    if san501[0].line != _OOB_LINE:
        return False, (
            f"SAN501 attributed to line {san501[0].line}, expected {_OOB_LINE}"
        )
    cert = oob.certificates["<source>"]
    if cert.status != "violations":
        return False, f"planted OOB certificate status {cert.status!r}"

    fixed = prove_source(
        _OOB_FIXED_SOURCE, path="<selftest:oob-fixed>", extents={"out": "n"}
    )
    fcert = fixed.certificates["<source>"]
    if fcert.status != "certified" or not fcert.fully_proven:
        return False, (
            "fixed OOB variant must certify fully proven, got "
            f"{fcert.status!r} (fully_proven={fcert.fully_proven})"
        )
    if [f for f in fixed.findings if f.code in ("SAN501", "SAN502")]:
        return False, "fixed OOB variant has residual bounds findings"

    flt = prove_source(_FLOAT_SOURCE, path="<selftest:float>")
    san503 = [f for f in flt.findings if f.code == "SAN503"]
    if len(san503) != 1:
        return False, f"expected 1 SAN503, got {len(san503)}"
    if san503[0].line != _FLOAT_LINE:
        return False, (
            f"SAN503 attributed to line {san503[0].line}, expected {_FLOAT_LINE}"
        )
    if flt.certificates["<source>"].status != "order-sensitive":
        return False, "float reduction kernel must be order-sensitive"

    ffixed = prove_source(_FLOAT_FIXED_SOURCE, path="<selftest:float-fixed>")
    fxcert = ffixed.certificates["<source>"]
    if fxcert.status != "certified" or fxcert.determinism != "commutative":
        return False, (
            "int64 reduction variant must certify commutative, got "
            f"{fxcert.status!r}/{fxcert.determinism!r}"
        )
    return True, (
        "planted OOB caught (SAN501 line "
        f"{_OOB_LINE}), float reduction caught (SAN503 line {_FLOAT_LINE}), "
        "fixed variants certified"
    )
