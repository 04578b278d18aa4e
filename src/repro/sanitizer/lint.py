"""Static AST lint for parallel-for worker closures (SimTSan lint).

The dynamic detector only sees accesses that were recorded; a worker
that mutates captured Python state *without* going through the
``ctx``/``Atomic*`` APIs is invisible to it — and uncharged, which
also skews the cost model.  This pass closes that hole by walking
every ``pool.parallel_for(items, worker, ...)`` and
``pool.parallel_slices(items, worker, ...)`` call site and analysing the
worker body syntactically (a slice worker's first parameter is its
thread's slice of the items).

Rules
-----
=======  ========  =======================================================
code     severity  meaning
=======  ========  =======================================================
SAN001   warning   bare ``# sani: ok`` suppression with no trailing
                   reason — the escape hatch must document why
SAN002   warning   dead suppression: a reasoned ``# sani: ok`` or a
                   ``# prove:`` assumption on a line no analysis ever
                   flags or consumes — stale escapes rot; delete them
SAN101   error     subscript store into a captured container at an index
                   not derived from the loop item — overlapping writes
                   across virtual threads
SAN102   error     mutating method call (``append``/``add``/``update``/…)
                   on a captured non-Atomic container
SAN103   error     attribute store on a captured object, or store to a
                   ``nonlocal``/``global`` name
SAN201   warning   bare subscript store at an item-derived index without
                   a ``ctx.write``/``ctx.read`` record anywhere in the
                   worker — disjoint per item, but uncharged and
                   invisible to the race detector
SAN202   warning   worker performs no ``ctx`` call at all — its work is
                   free under the cost model
SAN301   warning   unpoisoned ``np.empty``/``np.empty_like`` of non-zero
                   size — stale memory readable without a trap; use
                   ``san_empty`` so SimCheck can catch uninitialized
                   reads
SAN302   warning   data-dependent subscript (``arr[other[i]]``) on a
                   captured non-CSR array inside a parallel worker —
                   the loaded index is unchecked and a negative value
                   silently wraps
SAN303   warning   narrowing ``.astype(...)`` to a smaller dtype — use
                   ``checked_cast`` so out-of-range values report
                   instead of wrapping
SAN304   warning   float expression accumulated into a known int-dtype
                   array — silently truncates; accumulate in float or
                   use ``checked_sum``
=======  ========  =======================================================

SAN1xx/2xx (SimTSan) analyse ``parallel_for`` worker closures; SAN3xx
(SimCheck) is a module-wide pass, except SAN302 which also scopes to
workers.  Two further families live in sibling modules: SAN4xx
(SimFlow, :mod:`repro.sanitizer.flow`) and SAN5xx (SimProve,
:mod:`repro.sanitizer.prove` — SAN501 provable OOB, SAN502 unproven
access, SAN503 order-sensitive reduction).

Escapes
-------
* Receivers subscripted by ``ctx.thread_id`` are thread-local buffers
  and exempt from SAN102 (the standard per-thread-bucket idiom).
* Names bound to ``Atomic*`` constructors (or
  ``AtomicArray.from_array``) module-wide are exempt everywhere.
* ``np.empty`` with a literal-zero shape (``np.empty(0)``, a tuple
  containing ``0``) is exempt from SAN301 — empty sentinels hold no
  readable memory.
* Names assigned from ``<graph>.indptr`` / ``<graph>.indices`` are
  *trusted CSR arrays* (validated by construction or via
  ``CheckedGraph``) and exempt from SAN302, so the ubiquitous
  ``indices[indptr[v]:indptr[v+1]]`` idiom stays clean.
* A trailing ``# sani: ok`` comment suppresses all findings on that
  line; a reason is required, e.g. ``# sani: ok - permutation
  scatter`` — a bare marker is itself flagged (SAN001) and cannot
  suppress its own finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.sanitizer import effects

__all__ = [
    "Finding",
    "Report",
    "lint_source",
    "lint_file",
    "lint_paths",
    "source_files",
    "dead_suppressions",
]

SUPPRESS_MARKER = "# sani: ok"

#: Prefix of SimProve assumption comments (consumed by prove.py).
ASSUME_MARKER = "# prove:"

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "discard",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "sort",
        "reverse",
        "appendleft",
        "fill",
        "itemset",
        "put",
    }
)

#: Pure builtins allowed inside item-derived index expressions.
SAFE_BUILTINS = frozenset(
    {
        "int",
        "float",
        "bool",
        "len",
        "min",
        "max",
        "abs",
        "range",
        "divmod",
        "round",
        "sum",
        "enumerate",
        "zip",
        "sorted",
        "tuple",
        "frozenset",
    }
)

_ATOMIC_CONSTRUCTORS = frozenset(
    {"AtomicCounter", "AtomicArray", "AtomicSet", "AtomicList"}
)

#: dtypes a cast *into* loses range/precision relative to the int64 /
#: float64 the substrate computes in (SAN303).
_NARROWING_DTYPES = frozenset(
    {
        "int32",
        "int16",
        "int8",
        "uint8",
        "uint16",
        "uint32",
        "intc",
        "short",
        "byte",
        "single",
        "half",
        "float32",
        "float16",
    }
)

#: Integer dtype spellings recognized when classifying allocations for
#: SAN304 (``dtype=np.int64``, ``dtype="int32"``, ``dtype=int``).
_INT_DTYPE_NAMES = frozenset(
    {
        "int",
        "int8",
        "int16",
        "int32",
        "int64",
        "uint8",
        "uint16",
        "uint32",
        "uint64",
        "intp",
        "intc",
        "short",
        "byte",
        "long",
        "longlong",
    }
)

#: numpy allocators whose result dtype we can classify statically.
_ARRAY_ALLOCATORS = frozenset(
    {"zeros", "ones", "empty", "full", "arange", "zeros_like", "full_like"}
)


@dataclass(frozen=True)
class Finding:
    """One static finding of any SAN family, printable as
    ``path:line:col CODE [severity] message``."""

    path: str
    line: int
    col: int
    code: str
    severity: str  # "error" | "warning"
    message: str

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col} {self.code} "
            f"[{self.severity}] {self.message}"
        )


@dataclass
class Report:
    """Findings of one flow/prove/dist run, split by severity."""

    findings: list = field(default_factory=list)

    @property
    def errors(self) -> list:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list:
        return [f for f in self.findings if f.severity == "warning"]


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _annotation_is_atomic(ann: ast.expr | None) -> bool:
    if ann is None:
        return False
    for n in ast.walk(ann):
        if isinstance(n, ast.Name) and n.id in _ATOMIC_CONSTRUCTORS:
            return True
        if isinstance(n, ast.Attribute) and n.attr in _ATOMIC_CONSTRUCTORS:
            return True
        if isinstance(n, ast.Constant) and isinstance(n.value, str):
            if any(c in n.value for c in _ATOMIC_CONSTRUCTORS):
                return True
    return False


def _collect_atomic_names(tree: ast.Module) -> set[str]:
    """Names bound to ``Atomic*`` constructors or annotations, module-wide."""
    atomic: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # parameters annotated Atomic* (e.g. ``out: AtomicArray``)
            all_args = (
                node.args.posonlyargs
                + node.args.args
                + node.args.kwonlyargs
            )
            for arg in all_args:
                if _annotation_is_atomic(arg.annotation):
                    atomic.add(arg.arg)
            continue
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if _annotation_is_atomic(node.annotation):
                atomic.add(node.target.id)
            continue
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        func = node.value.func
        ctor = None
        if isinstance(func, ast.Name) and func.id in _ATOMIC_CONSTRUCTORS:
            ctor = func.id
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in _ATOMIC_CONSTRUCTORS
        ):
            ctor = func.value.id  # classmethod, e.g. AtomicArray.from_array
        if ctor is None:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                atomic.add(target.id)
    return atomic


def _collect_trusted_csr(tree: ast.Module) -> set[str]:
    """Names assigned from ``<x>.indptr`` / ``<x>.indices`` (or their
    ``.tolist()``) anywhere.

    Those arrays come out of a validated :class:`Graph` (or a
    ``CheckedGraph`` for untrusted inputs), so data-dependent indexing
    *with* them — ``indices[indptr[v]:indptr[v+1]]`` — is the trusted
    CSR traversal idiom, exempt from SAN302.
    """
    trusted: set[str] = set()

    def _bind(target: ast.expr, value: ast.expr) -> None:
        # <x>.indices.tolist() holds the same values as a list
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "tolist"
            and not value.args
        ):
            value = value.func.value
        if (
            isinstance(target, ast.Name)
            and isinstance(value, ast.Attribute)
            and value.attr in ("indptr", "indices")
        ):
            trusted.add(target.id)

    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            # plain: indices = g.indices — and tuple unpack:
            # indptr, indices = g.indptr, g.indices
            if isinstance(target, ast.Tuple) and isinstance(
                node.value, ast.Tuple
            ):
                if len(target.elts) == len(node.value.elts):
                    for t, v in zip(target.elts, node.value.elts):
                        _bind(t, v)
            else:
                _bind(target, node.value)
    return trusted


def _dtype_name(expr: ast.expr | None) -> str | None:
    """The dtype spelling of ``np.int64`` / ``"int32"`` / ``int``, if any."""
    if expr is None:
        return None
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    return None


def _collect_int_arrays(tree: ast.Module) -> set[str]:
    """Names bound to integer-dtype numpy allocations, module-wide."""
    known: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        func = node.value.func
        dtype: str | None = None
        if isinstance(func, ast.Attribute) and func.attr in _ARRAY_ALLOCATORS:
            for kw in node.value.keywords:
                if kw.arg == "dtype":
                    dtype = _dtype_name(kw.value)
            if dtype is None and func.attr == "arange":
                dtype = "int64"  # numpy default for int start/stop
        elif isinstance(func, ast.Name) and func.id == "san_empty":
            args = node.value.args
            dtype = _dtype_name(args[1]) if len(args) >= 2 else "int64"
            for kw in node.value.keywords:
                if kw.arg == "dtype":
                    dtype = _dtype_name(kw.value)
        if dtype is None or dtype not in _INT_DTYPE_NAMES:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                known.add(target.id)
    return known


def _suppressed_lines(source: str) -> set[int]:
    return {
        i
        for i, line in enumerate(source.splitlines(), start=1)
        if SUPPRESS_MARKER in line
    }


def _bare_suppressions(source: str, path: str) -> list["Finding"]:
    """SAN001: suppression markers with no trailing reason.

    Only real ``COMMENT`` tokens count — the marker may legitimately
    appear inside string literals (this module defines it in one).  A
    bare marker cannot suppress its own finding: reasonless escapes
    are exactly what the rule exists to surface.
    """
    import io
    import tokenize

    findings: list[Finding] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            comment = tok.string
            idx = comment.find(SUPPRESS_MARKER)
            if idx < 0:
                continue
            rest = comment[idx + len(SUPPRESS_MARKER) :].strip()
            if rest.startswith("-") and rest[1:].strip():
                continue
            findings.append(
                Finding(
                    path=path,
                    line=tok.start[0],
                    col=tok.start[1],
                    code="SAN001",
                    severity="warning",
                    message=(
                        "bare '# sani: ok' with no reason: suppressions "
                        "must say why, e.g. "
                        "'# sani: ok - permutation scatter'"
                    ),
                )
            )
    except tokenize.TokenizeError:
        pass  # SAN000 already covers unparsable files
    return findings


def _base_name(node: ast.expr) -> str | None:
    """The root ``Name`` of a subscript/attribute chain, if any."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _assigned_names(node: ast.AST) -> set[str]:
    """All names bound (as locals) inside a function body."""
    names: set[str] = set()

    class _V(ast.NodeVisitor):
        def _targets(self, target: ast.expr) -> None:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    self._targets(elt)

        def visit_Assign(self, n: ast.Assign) -> None:
            for t in n.targets:
                self._targets(t)
            self.generic_visit(n)

        def visit_AnnAssign(self, n: ast.AnnAssign) -> None:
            self._targets(n.target)
            self.generic_visit(n)

        def visit_AugAssign(self, n: ast.AugAssign) -> None:
            self._targets(n.target)
            self.generic_visit(n)

        def visit_For(self, n: ast.For) -> None:
            self._targets(n.target)
            self.generic_visit(n)

        def visit_withitem(self, n: ast.withitem) -> None:
            if n.optional_vars is not None:
                self._targets(n.optional_vars)
            self.generic_visit(n)

        def visit_comprehension(self, n: ast.comprehension) -> None:
            self._targets(n.target)
            self.generic_visit(n)

        def visit_FunctionDef(self, n: ast.FunctionDef) -> None:
            names.add(n.name)  # nested defs bind their name; don't descend

        def visit_Lambda(self, n: ast.Lambda) -> None:
            pass

    _V().visit(node)
    return names


def _passes(call: ast.Call, name: str | None) -> bool:
    """Whether ``call`` passes the variable ``name`` as an argument."""
    args = [*call.args, *(kw.value for kw in call.keywords)]
    return name is not None and any(
        isinstance(a, ast.Name) and a.id == name for a in args
    )


def _free_names(node: ast.expr) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class _WorkerInfo:
    """Resolved worker function plus the names of its two parameters.

    ``items`` is the first argument of the ``parallel_for`` call (the
    iterable of work items) — the SimFlow disjoint-write analysis uses
    it to decide whether items are provably contiguous integers.
    ``slices`` marks a ``parallel_slices`` worker, whose first parameter
    is the thread's slice of the items rather than one item: iterating
    it yields items, and distinct threads' slices are disjoint.
    """

    __slots__ = ("node", "item", "ctx", "call_line", "items", "slices")

    def __init__(
        self,
        node,
        item: str | None,
        ctx: str | None,
        call_line: int,
        items: ast.expr | None = None,
        slices: bool = False,
    ):
        self.node = node
        self.item = item
        self.ctx = ctx
        self.call_line = call_line
        self.items = items
        self.slices = slices

    def slice_loop(self, node: ast.AST) -> bool:
        """Whether ``node`` is a ``for`` loop or comprehension over the
        slice parameter itself (its target then ranges over items)."""
        return (
            self.slices
            and isinstance(node, (ast.For, ast.comprehension))
            and isinstance(node.iter, ast.Name)
            and node.iter.id == self.item
            and isinstance(node.target, ast.Name)
        )


def _worker_params(fn) -> tuple[str | None, str | None]:
    args = fn.args.posonlyargs + fn.args.args
    item = args[0].arg if len(args) >= 1 else None
    ctx = args[1].arg if len(args) >= 2 else None
    return item, ctx


def _find_workers(tree: ast.Module) -> list[_WorkerInfo]:
    """Resolve the worker function of every ``parallel_for`` and
    ``parallel_slices`` call."""
    defs: list[ast.FunctionDef] = [
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
    ]
    workers: list[_WorkerInfo] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # a region call that runs a worker closure per item or per slice
        shape = (
            effects.agreed(func.attr, "worker")
            if isinstance(func, ast.Attribute)
            else None
        )
        if shape is None:
            continue
        slices = shape == "slice"
        worker_expr = None
        items_expr = node.args[0] if node.args else None
        if len(node.args) >= 2:
            worker_expr = node.args[1]
        else:
            for kw in node.keywords:
                if kw.arg == "fn":
                    worker_expr = kw.value
        if worker_expr is None:
            continue
        if isinstance(worker_expr, ast.Lambda):
            args = worker_expr.args.posonlyargs + worker_expr.args.args
            item = args[0].arg if len(args) >= 1 else None
            ctx = args[1].arg if len(args) >= 2 else None
            workers.append(
                _WorkerInfo(
                    worker_expr, item, ctx, node.lineno, items_expr, slices
                )
            )
        elif isinstance(worker_expr, ast.Name):
            # nearest preceding def with that name (closures are defined
            # just above their parallel_for in this codebase's idiom)
            candidates = [
                d
                for d in defs
                if d.name == worker_expr.id and d.lineno <= node.lineno
            ]
            if candidates:
                fn = max(candidates, key=lambda d: d.lineno)
                item, ctx = _worker_params(fn)
                workers.append(
                    _WorkerInfo(fn, item, ctx, node.lineno, items_expr, slices)
                )
    return workers


# ----------------------------------------------------------------------
# per-worker analysis
# ----------------------------------------------------------------------


class _WorkerLinter:
    def __init__(
        self,
        worker: _WorkerInfo,
        atomic_names: set[str],
        suppressed: set[int],
        path: str,
        trusted_csr: set[str] | None = None,
    ) -> None:
        self.w = worker
        self.atomic = atomic_names
        self.suppressed = suppressed
        self.path = path
        self.trusted_csr = trusted_csr or set()
        self.findings: list[Finding] = []
        body = worker.node.body
        self.body_nodes = body if isinstance(body, list) else [body]
        self.locals = set()
        for stmt in self.body_nodes:
            self.locals |= _assigned_names(stmt)
        self.params = {p for p in (worker.item, worker.ctx) if p}
        # Subscripts inside type annotations (dict[int, ...]) are not
        # array accesses; exclude their subtrees from SAN302.
        self._annotation_nodes: set[int] = set()
        for stmt in self.body_nodes:
            for node in ast.walk(stmt):
                anns: list[ast.expr] = []
                if isinstance(node, ast.AnnAssign):
                    anns.append(node.annotation)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node.returns is not None:
                        anns.append(node.returns)
                    for arg in (
                        node.args.posonlyargs
                        + node.args.args
                        + node.args.kwonlyargs
                    ):
                        if arg.annotation is not None:
                            anns.append(arg.annotation)
                for ann in anns:
                    for inner in ast.walk(ann):
                        self._annotation_nodes.add(id(inner))
        # names derived purely from the loop item
        self.derived: set[str] = {worker.item} if worker.item else set()
        self._infer_derived()
        self.has_ctx_call = self._has_ctx_call()
        self.has_record_call = self._has_record_call()

    # -- taint ---------------------------------------------------------

    def _item_derived(self, expr: ast.expr) -> bool:
        """All free names of ``expr`` are item-derived or safe builtins."""
        free = _free_names(expr)
        return bool(free) and all(
            n in self.derived or n in SAFE_BUILTINS for n in free
        )

    def _infer_derived(self) -> None:
        # fixed point over simple assignments: x = f(item) makes x derived
        changed = True
        while changed:
            changed = False
            for stmt in self.body_nodes:
                for node in ast.walk(stmt):
                    if self.w.slice_loop(node):
                        # each element of a thread's slice is an item
                        if node.target.id not in self.derived:
                            self.derived.add(node.target.id)
                            changed = True
                        continue
                    if not isinstance(node, ast.Assign):
                        continue
                    if not self._item_derived(node.value):
                        continue
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id not in self.derived
                        ):
                            self.derived.add(target.id)
                            changed = True

    # -- ctx usage -----------------------------------------------------

    def _ctx_calls(self):
        ctx = self.w.ctx
        if not ctx:
            return
        for stmt in self.body_nodes:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == ctx
                ):
                    yield node

    def _has_ctx_call(self) -> bool:
        if any(True for _ in self._ctx_calls()):
            return True
        # calls that *pass* ctx (kernel helpers, Atomic methods) count too
        return any(
            isinstance(node, ast.Call) and _passes(node, self.w.ctx)
            for stmt in self.body_nodes
            for node in ast.walk(stmt)
        )

    def _has_record_call(self) -> bool:
        """A plain read or write (or a raw event) recorded through ctx."""
        return any(
            getattr(effects.ctx_call(call.func.attr), "access", None)
            in (effects.READ, effects.WRITE, effects.RAW)
            for call in self._ctx_calls()
        )

    # -- reporting -----------------------------------------------------

    def _emit(
        self, node: ast.AST, code: str, severity: str, message: str
    ) -> None:
        line = getattr(node, "lineno", self.w.call_line)
        if line in self.suppressed:
            return
        self.findings.append(
            Finding(
                path=self.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                code=code,
                severity=severity,
                message=message,
            )
        )

    def _is_captured(self, name: str | None) -> bool:
        return (
            name is not None
            and name not in self.locals
            and name not in self.params
            and name not in SAFE_BUILTINS
        )

    # -- rules ---------------------------------------------------------

    def run(self) -> list[Finding]:
        nonlocal_names: set[str] = set()
        for stmt in self.body_nodes:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Nonlocal, ast.Global)):
                    nonlocal_names |= set(node.names)

        for stmt in self.body_nodes:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        self._check_store(target, nonlocal_names)
                elif isinstance(node, ast.Call):
                    self._check_mutating_call(node)
                elif isinstance(node, ast.Subscript) and isinstance(
                    node.ctx, ast.Load
                ):
                    self._check_unchecked_index(node)

        if not self.has_ctx_call:
            self._emit(
                self.w.node,
                "SAN202",
                "warning",
                "worker performs no ctx call: its work is invisible to "
                "the cost model (add ctx.charge/read/write or pass ctx "
                "to a charged helper)",
            )
        return self.findings

    def _check_store(self, target: ast.expr, nonlocal_names: set[str]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_store(elt, nonlocal_names)
            return
        if isinstance(target, ast.Name):
            if target.id in nonlocal_names:
                self._emit(
                    target,
                    "SAN103",
                    "error",
                    f"store to nonlocal/global {target.id!r} from a "
                    "parallel worker: every virtual thread writes the "
                    "same cell (use an Atomic* wrapper or per-thread "
                    "buffers)",
                )
            return
        if isinstance(target, ast.Attribute):
            base = _base_name(target)
            if self._is_captured(base) and base not in self.atomic:
                self._emit(
                    target,
                    "SAN103",
                    "error",
                    f"attribute store on captured {base!r} inside a "
                    "parallel worker",
                )
            return
        if not isinstance(target, ast.Subscript):
            return
        base = _base_name(target.value)
        if not self._is_captured(base):
            return  # store into a worker-local container
        if base in self.atomic and not self._subscripts_data(target):
            return  # atomic wrapper API handles its own accounting
        # thread-local buffer idiom: bufs[ctx.thread_id][...] = x
        if self._thread_local_receiver(target.value):
            return
        if self._item_derived(target.slice):
            if not self.has_record_call:
                self._emit(
                    target,
                    "SAN201",
                    "warning",
                    f"bare store into captured {base!r} at an "
                    "item-derived index: disjoint across threads, but "
                    "uncharged and invisible to the race detector "
                    "(record it with ctx.write)",
                )
            return
        self._emit(
            target,
            "SAN101",
            "error",
            f"store into captured {base!r} at an index not derived "
            "from the loop item: virtual threads may write the same "
            "slot (use an Atomic* wrapper)",
        )

    def _subscripts_data(self, target: ast.Subscript) -> bool:
        """True for ``atomic.data[i] = x`` — bypassing the wrapper."""
        value = target.value
        return (
            isinstance(value, ast.Attribute)
            and value.attr in ("data", "_items", "_value")
            and isinstance(value.value, ast.Name)
            and value.value.id in self.atomic
        )

    def _thread_local_receiver(self, node: ast.expr) -> bool:
        """Is ``node`` (or a prefix of it) subscripted by ``ctx.thread_id``?"""
        ctx = self.w.ctx
        if not ctx:
            return False
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            if isinstance(node, ast.Subscript):
                sl = node.slice
                if (
                    isinstance(sl, ast.Attribute)
                    and sl.attr == "thread_id"
                    and isinstance(sl.value, ast.Name)
                    and sl.value.id == ctx
                ):
                    return True
            node = node.value
        return False

    def _check_unchecked_index(self, node: ast.Subscript) -> None:
        """SAN302: ``arr[other[i]]`` on a captured non-CSR array."""
        if id(node) in self._annotation_nodes:
            return
        base = _base_name(node.value)
        if (
            not self._is_captured(base)
            or base in self.atomic
            or base in self.trusted_csr
            or base == self.w.ctx
        ):
            return
        if self._thread_local_receiver(node.value):
            return
        slice_parts: list[ast.expr] = []
        if isinstance(node.slice, ast.Slice):
            slice_parts = [
                part
                for part in (node.slice.lower, node.slice.upper, node.slice.step)
                if part is not None
            ]
        else:
            slice_parts = [node.slice]
        nested = any(
            isinstance(inner, ast.Subscript)
            for part in slice_parts
            for inner in ast.walk(part)
        )
        if not nested:
            return
        self._emit(
            node,
            "SAN302",
            "warning",
            f"data-dependent index into captured {base!r}: the index is "
            "loaded from another array and unchecked — a corrupt value "
            "reads out of bounds (or wraps negative) silently; bind the "
            "index to a checked local, or suppress with a bounds proof",
        )

    def _check_mutating_call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in MUTATING_METHODS:
            return
        base = _base_name(func.value)
        if not self._is_captured(base) or base in self.atomic:
            return
        if self._thread_local_receiver(func.value):
            return
        # ctx.charge(...) etc. are not container mutations
        if base == self.w.ctx:
            return
        self._emit(
            node,
            "SAN102",
            "error",
            f"mutating call .{func.attr}() on captured non-Atomic "
            f"{base!r} inside a parallel worker (use AtomicList/"
            "AtomicSet or per-thread buffers indexed by "
            "ctx.thread_id)",
        )


# ----------------------------------------------------------------------
# module-wide analysis (SAN3xx — SimCheck lint)
# ----------------------------------------------------------------------


class _ModuleLinter:
    """Memory & numeric soundness rules over the whole module."""

    def __init__(
        self, tree: ast.Module, suppressed: set[int], path: str
    ) -> None:
        self.tree = tree
        self.suppressed = suppressed
        self.path = path
        self.int_arrays = _collect_int_arrays(tree)
        self.findings: list[Finding] = []

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if line in self.suppressed:
            return
        self.findings.append(
            Finding(
                path=self.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                code=code,
                severity="warning",
                message=message,
            )
        )

    def run(self) -> list[Finding]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                self._check_empty(node)
                self._check_narrowing_cast(node)
            elif isinstance(node, ast.AugAssign):
                self._check_float_into_int(node)
        return self.findings

    @staticmethod
    def _zero_size(shape: ast.expr | None) -> bool:
        """Shape provably allocates nothing (literal 0 somewhere)."""
        if shape is None:
            return False
        if isinstance(shape, ast.Constant):
            return shape.value == 0
        if isinstance(shape, ast.Tuple):
            return any(
                isinstance(e, ast.Constant) and e.value == 0
                for e in shape.elts
            )
        return False

    def _check_empty(self, node: ast.Call) -> None:
        """SAN301: unpoisoned ``np.empty`` / ``np.empty_like``."""
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in ("empty", "empty_like")
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        ):
            return
        shape = node.args[0] if node.args else None
        for kw in node.keywords:
            if kw.arg == "shape":
                shape = kw.value
        if func.attr == "empty" and self._zero_size(shape):
            return  # empty sentinel: no readable memory to poison
        self._emit(
            node,
            "SAN301",
            f"np.{func.attr} hands out unpoisoned memory: a missed "
            "initialization is silently read as stale garbage; use "
            "sanitizer.memcheck.san_empty so SimCheck traps "
            "uninitialized reads",
        )

    def _check_narrowing_cast(self, node: ast.Call) -> None:
        """SAN303: ``.astype(<narrower dtype>)``."""
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "astype"):
            return
        dtype = _dtype_name(node.args[0]) if node.args else None
        for kw in node.keywords:
            if kw.arg == "dtype":
                dtype = _dtype_name(kw.value)
        if dtype is None or dtype not in _NARROWING_DTYPES:
            return
        self._emit(
            node,
            "SAN303",
            f"narrowing astype({dtype}) silently wraps out-of-range "
            "values; use sanitizer.memcheck.checked_cast to detect "
            "overflow",
        )

    @staticmethod
    def _is_floaty(expr: ast.expr) -> bool:
        """Expression that plausibly produces a float value."""
        for n in ast.walk(expr):
            if isinstance(n, ast.Constant) and isinstance(n.value, float):
                return True
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div):
                return True
            if isinstance(n, ast.Attribute) and n.attr in (
                "float64",
                "float32",
                "float16",
                "mean",
                "average",
            ):
                return True
            if isinstance(n, ast.Name) and n.id == "float":
                return True
        return False

    def _check_float_into_int(self, node: ast.AugAssign) -> None:
        """SAN304: float expression accumulated into an int array."""
        target = node.target
        if not isinstance(target, ast.Subscript):
            return
        base = _base_name(target.value)
        if base is None or base not in self.int_arrays:
            return
        if not self._is_floaty(node.value):
            return
        self._emit(
            node,
            "SAN304",
            f"float expression accumulated into int array {base!r} "
            "truncates silently; accumulate in a float array or use "
            "sanitizer.memcheck.checked_sum",
        )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one module's source text; returns findings sorted by line."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                code="SAN000",
                severity="error",
                message=f"syntax error: {exc.msg}",
            )
        ]
    atomic_names = _collect_atomic_names(tree)
    trusted_csr = _collect_trusted_csr(tree)
    suppressed = _suppressed_lines(source)
    findings: list[Finding] = []
    for worker in _find_workers(tree):
        findings.extend(
            _WorkerLinter(
                worker, atomic_names, suppressed, path, trusted_csr
            ).run()
        )
    findings.extend(_ModuleLinter(tree, suppressed, path).run())
    findings.extend(_bare_suppressions(source, path))
    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return findings


def _findings_unsuppressed(source: str, path: str) -> list[Finding]:
    """The SAN1xx-3xx findings a module would get with every
    ``# sani: ok`` marker disabled (SAN002 support: a marker is alive
    only if this run flags its line)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return []
    atomic_names = _collect_atomic_names(tree)
    trusted_csr = _collect_trusted_csr(tree)
    findings: list[Finding] = []
    for worker in _find_workers(tree):
        findings.extend(
            _WorkerLinter(
                worker, atomic_names, set(), path, trusted_csr
            ).run()
        )
    findings.extend(_ModuleLinter(tree, set(), path).run())
    return findings


def dead_suppressions(
    source: str,
    path: str = "<string>",
    used_lines: frozenset[int] | set[int] = frozenset(),
) -> list[Finding]:
    """SAN002: suppression/assumption markers that suppress nothing.

    A reasoned ``# sani: ok`` is alive if a suppression-disabled lint
    run flags its line, or if another analysis reported consuming it
    (``used_lines`` — the CLI feeds in SimFlow's suppressed-store hits).
    A ``# prove:`` assumption is alive only via ``used_lines`` (SimProve
    records which assumption lines seeded an environment).  Everything
    else is a stale escape: the hazard it excused is gone, and keeping
    the marker would silently excuse the *next* hazard on that line.
    """
    import io
    import tokenize

    flagged = {f.line for f in _findings_unsuppressed(source, path)}
    findings: list[Finding] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            comment = tok.string
            line = tok.start[0]
            if line in used_lines:
                continue
            idx = comment.find(SUPPRESS_MARKER)
            if idx >= 0:
                rest = comment[idx + len(SUPPRESS_MARKER) :].strip()
                if not (rest.startswith("-") and rest[1:].strip()):
                    continue  # bare marker: SAN001's problem, not ours
                if line in flagged:
                    continue
                marker = SUPPRESS_MARKER
            elif comment.startswith(ASSUME_MARKER):
                marker = ASSUME_MARKER
            else:
                continue
            findings.append(
                Finding(
                    path=path,
                    line=line,
                    col=tok.start[1],
                    code="SAN002",
                    severity="warning",
                    message=(
                        f"dead suppression: {marker!r} marker "
                        "suppresses nothing — no analysis flags this "
                        "line; delete the marker"
                    ),
                )
            )
    except tokenize.TokenizeError:
        pass
    return findings


def lint_file(path: str | Path) -> list[Finding]:
    """Lint one Python file; undecodable bytes are a SAN000 error."""
    p = Path(path)
    try:
        source = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        return [
            Finding(
                path=str(p),
                line=0,
                col=0,
                code="SAN000",
                severity="error",
                message=f"cannot decode source: {exc}",
            )
        ]
    return lint_source(source, str(p))


def source_files(paths: list[str | Path]) -> list[Path]:
    """The files, plus every ``*.py`` under the directories, in order."""
    files: list[Path] = []
    for entry in paths:
        p = Path(entry)
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return files


def lint_paths(paths: list[str | Path]) -> list[Finding]:
    """Lint files and/or directories (recursing into ``*.py``)."""
    return [f for p in source_files(paths) for f in lint_file(p)]
