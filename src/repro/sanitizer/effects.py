"""One declaration per substrate call: what it touches and how it combines.

One :class:`Effect` per public method of ``ThreadContext``, the pool's
region methods, the ``Atomic*`` wrappers and both pivot union-find
engines, keyed by ``(class, method)``.  Lint, SimFlow, SimProve and
SimDist resolve calls here instead of keeping method-name lists
(DESIGN.md §7, "The substrate effects table").  An entry gives:

* ``access`` — plain :data:`READ`/:data:`WRITE` (race-checked), atomic
  :data:`LOAD`/:data:`RMW`/:data:`STORE`, a :data:`CAS` claim that
  publishes at most once, :data:`MIN_FOLD`, :data:`APPEND`,
  :data:`CHARGE` (no location), :data:`RAW` (the event kind is an
  argument); for the pool :data:`REGION` (``worker``: ``"item"`` or
  ``"slice"``) or :data:`BARRIER`;
* ``location`` — :data:`TAG` (the first argument's tag, ``("name", i)``
  or ``"name"``) or :data:`RECEIVER` (the structure's runtime name);
* ``index`` — ``None``, :data:`SCALAR` or :data:`PER_ELEMENT`, with
  ``arg`` its argument position (for a scalar tag, the tuple's);
* ``combine`` — SimProve's class for the combined value:
  :data:`COMMUTATIVE`, :data:`DTYPE` (integers commute, floats do not),
  :data:`ORDER_SENSITIVE`, :data:`PURE_READ`, or ``None``;
* ``ctx`` — the ``ctx`` argument's position in a structure method.

The substrate never imports this module and no runtime method is
wrapped; ``tests/test_effects.py`` checks the table against the classes
and against the events each method records.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

# access kinds
READ = "read"
WRITE = "write"
LOAD = "load"
RMW = "rmw"
STORE = "store"
CAS = "cas"
MIN_FOLD = "min-fold"
APPEND = "append"
CHARGE = "charge"
RAW = "raw"
REGION = "region"
BARRIER = "barrier"
#: Access kinds that write a word atomically.
ATOMIC_WRITES = frozenset({RMW, STORE, CAS, MIN_FOLD, APPEND})
# location sources, index shapes
TAG = "tag"
RECEIVER = "receiver"
SCALAR = "scalar"
PER_ELEMENT = "per-element"
# combine classes
COMMUTATIVE = "commutative"
DTYPE = "dtype"
ORDER_SENSITIVE = "order-sensitive"
PURE_READ = "pure-read"

CONTEXT = "ThreadContext"


@dataclass(frozen=True)
class Effect:
    """What one substrate method touches (see the module docstring)."""

    cls: str
    method: str
    access: str
    location: str | None = None
    index: str | None = None
    arg: int | None = None
    combine: str | None = None
    ctx: int | None = None
    worker: str | None = None


def _table(*entries: Effect) -> dict[tuple[str, str], Effect]:
    table: dict[tuple[str, str], Effect] = {}
    for e in entries:
        if (e.cls, e.method) in table:
            raise ValueError(f"{e.cls}.{e.method} declared twice")
        table[(e.cls, e.method)] = e
    return table


def _ctx(method: str, access: str, index: str | None = None, combine=None):
    arg = {SCALAR: 0, PER_ELEMENT: 1}.get(index)
    location = None if access in (CHARGE, RAW) else TAG
    return Effect(CONTEXT, method, access, location, index, arg, combine)


def _recv(cls, method, access, index, arg, combine, ctx=0):
    return Effect(cls, method, access, RECEIVER, index, arg, combine, ctx)


def _uf(cls: str) -> tuple[Effect, ...]:
    # find compresses paths with CAS re-pointing, union links by CAS;
    # the pivot rule fixes the merge order (the paper's determinism
    # argument), so every operation commutes
    return (
        _recv(cls, "find", CAS, SCALAR, 0, COMMUTATIVE, ctx=1),
        _recv(cls, "get_pivot", CAS, SCALAR, 0, COMMUTATIVE, ctx=1),
        _recv(cls, "same_set", CAS, SCALAR, 0, COMMUTATIVE, ctx=2),
        _recv(cls, "union", CAS, SCALAR, 0, COMMUTATIVE, ctx=2),
        _recv(cls, "union_rows", CAS, PER_ELEMENT, 0, COMMUTATIVE, ctx=4),
    )


_ARRAY = "AtomicArray"

#: Every declared substrate call, keyed by ``(class, method)``.
EFFECTS: dict[tuple[str, str], Effect] = _table(
    _ctx("charge", CHARGE),
    _ctx("commit_row", CHARGE),
    _ctx("record", RAW),
    _ctx("read", READ, SCALAR, PURE_READ),
    _ctx("read_row", READ, PER_ELEMENT, PURE_READ),
    _ctx("atomic_load", LOAD, SCALAR, PURE_READ),
    _ctx("write", WRITE, SCALAR),
    # ``values=`` carries the stored values to memcheck, not a location
    _ctx("write_row", WRITE, PER_ELEMENT),
    _ctx("atomic", RMW, SCALAR),
    _ctx("atomic_row", CAS, PER_ELEMENT),
    # the suffixes extend the prefix tuple: no index into an array
    _ctx("relaxed_row", RMW),
    Effect("SimulatedPool", "parallel_for", REGION, worker="item"),
    Effect("SimulatedPool", "parallel_slices", REGION, worker="slice"),
    Effect("SimulatedPool", "serial_region", REGION),
    Effect("SimulatedPool", "phase", BARRIER),
    _recv("AtomicCounter", "fetch_add", RMW, None, None, COMMUTATIVE),
    _recv("AtomicCounter", "load", LOAD, None, None, PURE_READ),
    _recv(_ARRAY, "add", RMW, SCALAR, 1, DTYPE),
    _recv(_ARRAY, "add_row", RMW, PER_ELEMENT, 1, DTYPE),
    _recv(_ARRAY, "add_many", RMW, PER_ELEMENT, 1, DTYPE),
    _recv(_ARRAY, "store", STORE, SCALAR, 1, ORDER_SENSITIVE),
    _recv(_ARRAY, "compare_and_swap", CAS, SCALAR, 1, COMMUTATIVE),
    _recv(_ARRAY, "claim", CAS, PER_ELEMENT, 1, COMMUTATIVE),
    _recv(_ARRAY, "fetch_min", MIN_FOLD, SCALAR, 1, COMMUTATIVE),
    _recv(_ARRAY, "fetch_min_many", MIN_FOLD, PER_ELEMENT, 1, COMMUTATIVE),
    _recv(_ARRAY, "load", LOAD, SCALAR, 1, PURE_READ),
    _recv(_ARRAY, "load_le", LOAD, PER_ELEMENT, 1, PURE_READ),
    _recv("AtomicSet", "add_if_absent", CAS, SCALAR, 1, COMMUTATIVE),
    _recv("AtomicSet", "add_pivots", CAS, PER_ELEMENT, 2, COMMUTATIVE),
    _recv("AtomicList", "append", APPEND, None, None, ORDER_SENSITIVE),
    *_uf("PivotUnionFind"),
    *_uf("SimulatedWaitFreeUnionFind"),
)


def ctx_call(method: str) -> Effect | None:
    """The declaration of ``ThreadContext.method``, or ``None``."""
    return EFFECTS.get((CONTEXT, method))


def agreed(method: str, field: str):
    """``field`` of ``method`` when every class declaring the name
    agrees on it; ``None`` when none declares it or two disagree."""
    values = {
        getattr(e, field) for e in EFFECTS.values() if e.method == method
    }
    return values.pop() if len(values) == 1 else None


def index_expr(effect: Effect, call: ast.Call) -> ast.expr | None:
    """The index a call passes: ``i`` of a ``("name", i)`` tag for a
    scalar ``ThreadContext`` access, else the argument at
    ``effect.arg`` (a sequence for a per-element access)."""
    if effect.arg is None or len(call.args) <= effect.arg:
        return None
    arg = call.args[effect.arg]
    if effect.location == TAG and effect.index == SCALAR:
        if isinstance(arg, ast.Tuple) and len(arg.elts) >= 2:
            return arg.elts[1]
        return None
    return arg


def tag_of(call: ast.Call) -> str | None:
    """The constant name a ``ThreadContext`` call's first argument
    tags: ``"name"`` of ``("name", i)``, ``("name", ...)`` or ``"name"``."""
    tag = call.args[0] if call.args else None
    if isinstance(tag, ast.Tuple) and tag.elts:
        tag = tag.elts[0]
    if isinstance(tag, ast.Constant) and isinstance(tag.value, str):
        return tag.value
    return None
