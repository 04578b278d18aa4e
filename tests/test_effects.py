"""The substrate effects table (repro.sanitizer.effects).

Completeness: every public method of the declared classes that takes a
``ctx``, plus ``ThreadContext``'s access methods and the pool's region
methods, has exactly one entry, and every entry names a real method
whose ``ctx`` and index positions match its signature.  Conformance:
each declared ``ThreadContext``, ``Atomic*`` and union-find method,
called once under a recording context, records the event kinds its
access kind promises on locations that carry the receiver's name.
Load-bearing: dropping one entry changes what the analyzers report.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.parallel.atomics import (
    AtomicArray,
    AtomicCounter,
    AtomicList,
    AtomicSet,
)
from repro.parallel.context import (
    EV_ATOMIC_READ,
    EV_ATOMIC_WRITE,
    EV_READ,
    EV_WRITE,
    ThreadContext,
)
from repro.parallel.cost_model import DEFAULT_COST_MODEL
from repro.parallel.scheduler import SimulatedPool
from repro.sanitizer import effects
from repro.unionfind.pivot import PivotUnionFind
from repro.unionfind.waitfree import SimulatedWaitFreeUnionFind

CLASSES = {
    cls.__name__: cls
    for cls in (
        ThreadContext,
        SimulatedPool,
        AtomicCounter,
        AtomicArray,
        AtomicSet,
        AtomicList,
        PivotUnionFind,
        SimulatedWaitFreeUnionFind,
    )
}
#: ThreadContext methods that attach observers, not accesses
OBSERVER_HOOKS = {"begin_recording", "end_recording", "set_memcheck"}
POOL_REGIONS = {"parallel_for", "parallel_slices", "serial_region", "phase"}


def _methods(cls) -> dict:
    return {
        name: fn
        for name, fn in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(fn)
    }


def _params(cls, method) -> list[str]:
    return list(inspect.signature(getattr(cls, method)).parameters)[1:]


def _expected(name: str) -> set[str]:
    cls = CLASSES[name]
    if cls is ThreadContext:
        return set(_methods(cls)) - OBSERVER_HOOKS
    if cls is SimulatedPool:
        return POOL_REGIONS
    return {m for m in _methods(cls) if "ctx" in _params(cls, m)}


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_every_method_has_exactly_one_entry(name):
    declared = {m for (c, m) in effects.EFFECTS if c == name}
    assert declared == _expected(name)


def test_every_entry_names_a_method_that_exists():
    for (cls, method), eff in effects.EFFECTS.items():
        assert (eff.cls, eff.method) == (cls, method)
        assert cls in CLASSES, cls
        assert method in _methods(CLASSES[cls]), f"{cls}.{method}"


def test_positions_match_signatures():
    for (cls, method), eff in effects.EFFECTS.items():
        params = _params(CLASSES[cls], method)
        if eff.location == effects.RECEIVER:
            assert params[eff.ctx] == "ctx", (cls, method)
        if eff.arg is not None:
            assert eff.arg < len(params) and params[eff.arg] != "ctx"
        assert (eff.arg is None) == (eff.index is None), (cls, method)


def test_duplicate_entry_is_refused():
    entry = effects.EFFECTS[("AtomicArray", "add")]
    with pytest.raises(ValueError):
        effects._table(entry, entry)


def test_name_lookup_only_where_declarers_agree():
    # both union-find engines agree on union_rows
    assert effects.agreed("union_rows", "combine") == effects.COMMUTATIVE
    # AtomicCounter.load(ctx) and AtomicArray.load(ctx, index) do not
    assert effects.agreed("load", "access") == effects.LOAD
    assert effects.agreed("load", "index") is None
    assert effects.agreed("no_such_method", "access") is None


# ----------------------------------------------------------------------
# conformance: recorded events against the declared access kind
# ----------------------------------------------------------------------

#: event kinds each access kind may record
ALLOWED = {
    effects.READ: {EV_READ},
    effects.WRITE: {EV_WRITE},
    effects.LOAD: {EV_ATOMIC_READ},
    effects.RMW: {EV_ATOMIC_WRITE},
    effects.STORE: {EV_ATOMIC_WRITE},
    effects.APPEND: {EV_ATOMIC_WRITE},
    effects.CAS: {EV_ATOMIC_READ, EV_ATOMIC_WRITE},
    effects.MIN_FOLD: {EV_ATOMIC_READ, EV_ATOMIC_WRITE},
    effects.CHARGE: set(),
    effects.RAW: {EV_WRITE},
}


def _array():
    arr = AtomicArray(8, name="arr")
    arr.data[:] = 5
    return arr


def _uf(engine):
    """Node 3 sits two links below its root, so a find compresses."""
    uf = engine(np.arange(8, dtype=np.int64)[::-1].copy(), name="uf")
    for x, y in ((0, 1), (2, 3), (0, 2)):
        uf.union(x, y)
    return uf


#: the runtime names each class's locations may carry, its own first
#: (``add_pivots`` also touches the union-find it is handed)
NAMES = {
    "ThreadContext": ("tag",),
    "AtomicCounter": ("ctr",),
    "AtomicArray": ("arr",),
    "AtomicSet": ("set", "uf"),
    "AtomicList": ("lst",),
    "PivotUnionFind": ("uf",),
    "SimulatedWaitFreeUnionFind": ("uf",),
}

#: (class, method) -> one call of it on a small instance
RECIPES = {
    ("ThreadContext", "charge"): lambda c: c.charge(2),
    ("ThreadContext", "commit_row"): lambda c: c.commit_row(c.work + 1, []),
    ("ThreadContext", "record"): lambda c: c.record(EV_WRITE, ("tag", 1)),
    ("ThreadContext", "read"): lambda c: c.read(("tag", 1)),
    ("ThreadContext", "read_row"): lambda c: c.read_row("tag", [1, 2]),
    ("ThreadContext", "atomic_load"): lambda c: c.atomic_load(("tag", 1)),
    ("ThreadContext", "write"): lambda c: c.write(("tag", 1)),
    ("ThreadContext", "write_row"): lambda c: c.write_row("tag", [1, 2]),
    ("ThreadContext", "atomic"): lambda c: c.atomic(("tag", 0)),
    ("ThreadContext", "atomic_row"): lambda c: c.atomic_row("tag", [1, 9]),
    ("ThreadContext", "relaxed_row"): lambda c: c.relaxed_row(
        ("tag", 0), [1, 2]
    ),
    ("AtomicCounter", "fetch_add"): lambda c: AtomicCounter(
        name="ctr"
    ).fetch_add(c),
    ("AtomicCounter", "load"): lambda c: AtomicCounter(name="ctr").load(c),
    ("AtomicArray", "add"): lambda c: _array().add(c, 1, 2),
    ("AtomicArray", "add_row"): lambda c: _array().add_row(c, [1, 1, 2], 1, 7),
    ("AtomicArray", "add_many"): lambda c: _array().add_many(c, [1, 2], [3, 4]),
    ("AtomicArray", "store"): lambda c: _array().store(c, 1, 0),
    ("AtomicArray", "compare_and_swap"): lambda c: _array().compare_and_swap(
        c, 1, 5, 0
    ),
    ("AtomicArray", "claim"): lambda c: AtomicArray(8, name="arr").claim(
        c, [1, 2, 1]
    ),
    ("AtomicArray", "fetch_min"): lambda c: _array().fetch_min(c, 1, 0),
    ("AtomicArray", "fetch_min_many"): lambda c: _array().fetch_min_many(
        c, [1, 2, 1], [9, 0, 1]
    ),
    ("AtomicArray", "load"): lambda c: _array().load(c, 1),
    ("AtomicArray", "load_le"): lambda c: _array().load_le(c, [1, 2], 5),
    ("AtomicSet", "add_if_absent"): lambda c: AtomicSet(
        name="set"
    ).add_if_absent(c, 3),
    ("AtomicSet", "add_pivots"): lambda c: AtomicSet(name="set").add_pivots(
        c, _uf(PivotUnionFind), [[3, 4], [5]], [1] * 8, 1, 0.2
    ),
    ("AtomicList", "append"): lambda c: AtomicList(name="lst").append(c, 1),
}
for _e in (PivotUnionFind, SimulatedWaitFreeUnionFind):
    RECIPES.update({
        (_e.__name__, "find"): lambda c, e=_e: _uf(e).find(3, c),
        (_e.__name__, "get_pivot"): lambda c, e=_e: _uf(e).get_pivot(3, c),
        (_e.__name__, "same_set"): lambda c, e=_e: _uf(e).same_set(3, 1, c),
        (_e.__name__, "union"): lambda c, e=_e: _uf(e).union(3, 4, c),
        (_e.__name__, "union_rows"): lambda c, e=_e: _uf(e).union_rows(
            [3, 5], [[4], [6]], [1] * 8, 1, c, 0.2
        ),
    })


def test_every_structure_entry_has_a_recipe():
    structures = {
        key for key in effects.EFFECTS if key[0] != "SimulatedPool"
    }
    assert set(RECIPES) == structures


@pytest.mark.parametrize(
    "key", sorted(RECIPES), ids=[".".join(k) for k in sorted(RECIPES)]
)
def test_recorded_events_match_declared_access(key):
    eff = effects.EFFECTS[key]
    ctx = ThreadContext(0, DEFAULT_COST_MODEL)
    ctx.begin_recording()
    RECIPES[key](ctx)
    events = ctx.end_recording()
    names = NAMES[key[0]]
    kinds = {kind for kind, _ in events}
    assert kinds <= ALLOWED[eff.access], kinds
    if eff.access == effects.CHARGE:
        assert not events
        return
    assert events
    if eff.access in effects.ATOMIC_WRITES:
        assert EV_ATOMIC_WRITE in kinds
    for _, location in events:
        assert any(name in location for name in names), location
    assert any(names[0] in location for _, location in events)


# ----------------------------------------------------------------------
# load-bearing: the analyzers read the table, not a leftover list
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def index():
    """The kernel registry and the two kernels' modules, indexed."""
    from pathlib import Path

    import repro
    from repro.sanitizer.flow import ModuleIndex

    root = Path(repro.__file__).parent
    idx = ModuleIndex()
    idx.add_file(root / "sanitizer" / "kernels.py", "repro.sanitizer.kernels")
    for module in ("pkc", "vertex_rank"):
        idx.add_file(root / "core" / f"{module}.py", f"repro.core.{module}")
    return idx


def test_prove_reads_the_table(index, monkeypatch):
    from repro.sanitizer.prove import prove_kernels

    def pkc():
        return prove_kernels(["pkc"], index).certificates["pkc"].as_dict()

    before = pkc()
    monkeypatch.delitem(effects.EFFECTS, ("AtomicArray", "add_row"))
    after = pkc()
    add_row = "pkc.py:pkc_core_decomposition:degree.add_row"
    peel = "atomic:pkc.py:process:pkc_deg[*nbrs]"
    assert before["atomics"][add_row] == "commutative"
    assert after["atomics"][add_row] == "assumed"
    assert peel in before["obligations"] and peel not in after["obligations"]
    assert before["determinism"] == "commutative"
    assert after["determinism"] == "assumed"


def test_flow_reads_the_table(index, monkeypatch):
    from repro.sanitizer.flow import infer_kernel_effects

    def vertex_rank():
        return infer_kernel_effects(["vertex_rank"], index)["vertex_rank"]

    before = vertex_rank()
    monkeypatch.delitem(effects.EFFECTS, ("ThreadContext", "relaxed_row"))
    after = vertex_rank()
    assert "HL" in before.atomics
    assert "HL" not in after.atomics
