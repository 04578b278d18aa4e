"""Symbolic interval domain for the SimProve prover (SAN5xx).

SimFlow's disjoint-write prover (:mod:`repro.sanitizer.flow`) reasons
about *affine forms* — linear combinations of program symbols — but
only ever compares two forms for syntactic disjointness.  SimProve
needs an *order* on them: to certify ``out[expr]`` in-bounds it must
prove ``0 <= expr <= extent - 1`` where both ``expr`` and ``extent``
are symbolic.  This module supplies the machinery:

* **affine forms** — ``{symbol: coeff, "": const}`` dictionaries, the
  same encoding SimFlow uses, with add/sub/scale helpers;
* **intervals over affine bounds** — ``Interval(lo, hi, tight)`` where
  each bound is an affine form or ``None`` (unbounded).  ``tight``
  records that *both* endpoints are attained by real executions (a
  ``range(n)`` loop variable attains ``0`` and ``n - 1``); only tight
  intervals may ever escalate an out-of-bounds access to a SAN501
  *error* — joins and widening drop tightness, so merged paths fail
  closed to SAN502 *unproven*;
* **symbol facts + proof queries** — a :class:`SymbolFacts` table maps
  terminal symbols to their known intervals (``n >= 0``, ``values of
  indices in [0, n-1]`` …).  :func:`lower_const` / :func:`upper_const`
  resolve an affine form to a *constant* bound by recursively
  substituting each symbol's fact interval (positive coefficients take
  the symbol's lower bound, negative its upper), with a depth limit
  and a busy set so cyclic facts fail closed to "unknown".
  :func:`prove_nonneg` / :func:`prove_le` build on that; crucially
  ``prove_le(expr, extent - 1)`` first *cancels* shared symbols via
  affine subtraction, so ``n - 1 <= n - 1`` proves without knowing
  anything about ``n``.

Everything here fails closed: any bound that cannot be resolved to a
constant makes the query answer "unknown", never "proven".
"""

from __future__ import annotations

import ast
from collections.abc import Callable
from dataclasses import dataclass, field

__all__ = [
    "Affine",
    "Interval",
    "SymbolFacts",
    "aff_add",
    "aff_const",
    "aff_eq",
    "aff_is_const",
    "aff_neg",
    "aff_repr",
    "aff_scale",
    "aff_sub",
    "aff_sym",
    "affine_of",
    "lower_const",
    "prove_le",
    "prove_lt",
    "prove_nonneg",
    "upper_const",
]

#: Affine form: ``{symbol: coefficient}`` with the empty-string key
#: holding the constant term.  ``{"": 3, "n": 2}`` is ``2*n + 3``.
Affine = dict

#: Recursion budget for bound substitution — worker index expressions
#: are shallow; anything deeper than this is a pathological fact chain.
_MAX_SUBST_DEPTH = 8


# ---------------------------------------------------------------------------
# affine forms


def aff_const(c: int) -> Affine:
    return {"": int(c)}


def aff_sym(name: str) -> Affine:
    return {"": 0, name: 1}


def _clean(aff: Affine) -> Affine:
    out = {sym: c for sym, c in aff.items() if c != 0 or sym == ""}
    out.setdefault("", 0)
    return out


def aff_add(a: Affine, b: Affine) -> Affine:
    out = dict(a)
    for sym, c in b.items():
        out[sym] = out.get(sym, 0) + c
    return _clean(out)


def aff_scale(a: Affine, k: int) -> Affine:
    return _clean({sym: c * k for sym, c in a.items()})


def aff_neg(a: Affine) -> Affine:
    return aff_scale(a, -1)


def aff_sub(a: Affine, b: Affine) -> Affine:
    return aff_add(a, aff_neg(b))


def aff_is_const(a: Affine) -> bool:
    return all(c == 0 for sym, c in a.items() if sym != "")


def affine_of(
    node: ast.AST,
    leaf: Callable[[str], Affine | None],
    opaque: Callable[[ast.AST], Affine | None] | None = None,
) -> Affine | None:
    """Affine form of an expression AST; None when non-affine.

    Int constants, ``+``, ``-``, unary ``-`` and multiplication by a
    constant stay affine; ``leaf`` maps each ``Name`` to its form (or
    None).  Every other node (subscripts, calls, attributes, other
    operators, floats, bools) goes to ``opaque``, and fails closed
    without one.
    """
    if isinstance(node, ast.Constant):
        value = node.value
        if isinstance(value, int) and not isinstance(value, bool):
            return aff_const(value)
        return None
    if isinstance(node, ast.Name):
        return leaf(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = affine_of(node.operand, leaf, opaque)
        return None if inner is None else aff_neg(inner)
    if not (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult))
    ):
        return None if opaque is None else opaque(node)
    left = affine_of(node.left, leaf, opaque)
    right = affine_of(node.right, leaf, opaque)
    if left is None or right is None:
        return None
    if isinstance(node.op, ast.Add):
        return aff_add(left, right)
    if isinstance(node.op, ast.Sub):
        return aff_sub(left, right)
    if aff_is_const(left):
        return aff_scale(right, left.get("", 0))
    if aff_is_const(right):
        return aff_scale(left, right.get("", 0))
    return None


def aff_eq(a: Affine | None, b: Affine | None) -> bool:
    if a is None or b is None:
        return a is b
    return _clean(a) == _clean(b)


def aff_repr(a: Affine | None) -> str:
    """Human form for findings/certificates: ``"2*n + m - 1"``."""
    if a is None:
        return "?"
    parts: list[str] = []
    for sym in sorted(k for k in a if k != ""):
        c = a[sym]
        if c == 0:
            continue
        term = sym if abs(c) == 1 else f"{abs(c)}*{sym}"
        parts.append(("- " if c < 0 else "+ " if parts else "") + term)
    const = a.get("", 0)
    if const or not parts:
        parts.append(("- " if const < 0 else "+ " if parts else "") + str(abs(const)))
    return " ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# symbol facts


@dataclass
class SymbolFacts:
    """Known intervals for terminal symbols (sizes, value ranges)."""

    _ranges: dict = field(default_factory=dict)

    def declare(self, name: str, interval: "Interval") -> None:
        self._ranges[str(name)] = interval

    def get(self, name: str) -> "Interval | None":
        return self._ranges.get(name)

    def copy(self) -> "SymbolFacts":
        return SymbolFacts(dict(self._ranges))


# ---------------------------------------------------------------------------
# constant-bound resolution


def lower_const(
    aff: Affine | None,
    facts: SymbolFacts,
    _depth: int = _MAX_SUBST_DEPTH,
    _busy: frozenset = frozenset(),
) -> int | None:
    """Greatest constant provably ``<= aff``, or None if unresolvable."""
    if aff is None or _depth <= 0:
        return None
    total = aff.get("", 0)
    for sym, coeff in aff.items():
        if sym == "" or coeff == 0:
            continue
        if sym in _busy:
            return None
        fact = facts.get(sym)
        if fact is None:
            return None
        busy = _busy | {sym}
        if coeff > 0:
            bound = lower_const(fact.lo, facts, _depth - 1, busy)
        else:
            bound = upper_const(fact.hi, facts, _depth - 1, busy)
        if bound is None:
            return None
        total += coeff * bound
    return total


def upper_const(
    aff: Affine | None,
    facts: SymbolFacts,
    _depth: int = _MAX_SUBST_DEPTH,
    _busy: frozenset = frozenset(),
) -> int | None:
    """Least constant provably ``>= aff``, or None if unresolvable."""
    if aff is None or _depth <= 0:
        return None
    total = aff.get("", 0)
    for sym, coeff in aff.items():
        if sym == "" or coeff == 0:
            continue
        if sym in _busy:
            return None
        fact = facts.get(sym)
        if fact is None:
            return None
        busy = _busy | {sym}
        if coeff > 0:
            bound = upper_const(fact.hi, facts, _depth - 1, busy)
        else:
            bound = lower_const(fact.lo, facts, _depth - 1, busy)
        if bound is None:
            return None
        total += coeff * bound
    return total


def prove_nonneg(aff: Affine | None, facts: SymbolFacts) -> bool:
    """True only when ``aff >= 0`` holds for every symbol valuation
    consistent with ``facts``.  Unresolvable -> False (fail closed)."""
    lo = lower_const(aff, facts)
    return lo is not None and lo >= 0


def prove_le(a: Affine | None, b: Affine | None, facts: SymbolFacts) -> bool:
    """Prove ``a <= b``.  Shared symbols cancel first, so symbolic
    comparisons like ``n - 1 <= n`` need no facts at all."""
    if a is None or b is None:
        return False
    return prove_nonneg(aff_sub(b, a), facts)


def prove_lt(a: Affine | None, b: Affine | None, facts: SymbolFacts) -> bool:
    if a is None or b is None:
        return False
    return prove_nonneg(aff_sub(aff_sub(b, a), aff_const(1)), facts)


# ---------------------------------------------------------------------------
# intervals


@dataclass(frozen=True)
class Interval:
    """Closed interval with affine endpoints; ``None`` = unbounded.

    ``tight`` asserts both endpoints are *attained* by some execution
    (not merely bounds).  Only tight intervals can convict an access as
    provably out-of-bounds (SAN501); every widening/merge clears the
    flag so uncertain paths degrade to SAN502.
    """

    lo: Affine | None = None
    hi: Affine | None = None
    tight: bool = False

    # -- constructors --------------------------------------------------

    @staticmethod
    def top() -> "Interval":
        return Interval(None, None, False)

    @staticmethod
    def const(c: int) -> "Interval":
        a = aff_const(c)
        return Interval(a, a, True)

    @staticmethod
    def exact(aff: Affine) -> "Interval":
        """The value *is* this affine form (tight point interval)."""
        return Interval(aff, aff, True)

    @staticmethod
    def sym(name: str) -> "Interval":
        return Interval.exact(aff_sym(name))

    # -- queries -------------------------------------------------------

    @property
    def is_top(self) -> bool:
        return self.lo is None and self.hi is None

    def is_point(self) -> bool:
        return self.lo is not None and aff_eq(self.lo, self.hi)

    def provably_empty(self, facts: SymbolFacts) -> bool:
        """``lo > hi`` in every valuation — e.g. ``range(5, 3)``."""
        if self.lo is None or self.hi is None:
            return False
        return prove_lt(self.hi, self.lo, facts)

    # -- arithmetic ----------------------------------------------------

    def add(self, other: "Interval") -> "Interval":
        lo = aff_add(self.lo, other.lo) if self.lo is not None and other.lo is not None else None
        hi = aff_add(self.hi, other.hi) if self.hi is not None and other.hi is not None else None
        return Interval(lo, hi, self.tight and other.tight)

    def sub(self, other: "Interval") -> "Interval":
        return self.add(other.neg())

    def neg(self) -> "Interval":
        lo = aff_neg(self.hi) if self.hi is not None else None
        hi = aff_neg(self.lo) if self.lo is not None else None
        return Interval(lo, hi, self.tight)

    def shift(self, c: int) -> "Interval":
        return self.add(Interval.const(c))

    def scale_const(self, k: int) -> "Interval":
        if k == 0:
            return Interval.const(0)
        lo = aff_scale(self.lo, k) if self.lo is not None else None
        hi = aff_scale(self.hi, k) if self.hi is not None else None
        if k > 0:
            return Interval(lo, hi, self.tight)
        return Interval(hi, lo, self.tight)

    def mul(self, other: "Interval") -> "Interval":
        """Only constant*interval products stay affine; others -> top."""
        if self.is_point() and self.lo is not None and aff_is_const(self.lo):
            return other.scale_const(self.lo.get("", 0))
        if other.is_point() and other.lo is not None and aff_is_const(other.lo):
            return self.scale_const(other.lo.get("", 0))
        return Interval.top()

    # -- lattice -------------------------------------------------------

    def join(self, other: "Interval", facts: SymbolFacts) -> "Interval":
        """Least upper bound.  Equal endpoints are kept symbolically;
        ordered endpoints (provable via ``facts``) keep the outer one;
        anything else drops to unbounded.  Tightness survives only an
        exact merge."""
        if self.is_top:
            return Interval.top()
        if other.is_top:
            return Interval.top()

        if aff_eq(self.lo, other.lo):
            lo = self.lo
        elif prove_le(self.lo, other.lo, facts):
            lo = self.lo
        elif prove_le(other.lo, self.lo, facts):
            lo = other.lo
        else:
            lo = None

        if aff_eq(self.hi, other.hi):
            hi = self.hi
        elif prove_le(other.hi, self.hi, facts):
            hi = self.hi
        elif prove_le(self.hi, other.hi, facts):
            hi = other.hi
        else:
            hi = None

        tight = (
            self.tight
            and other.tight
            and aff_eq(self.lo, other.lo)
            and aff_eq(self.hi, other.hi)
        )
        return Interval(lo, hi, tight)

    def widen(self, newer: "Interval") -> "Interval":
        """Standard widening: endpoints that moved become unbounded.
        Always clears ``tight`` — widened bounds are not attained."""
        lo = self.lo if aff_eq(self.lo, newer.lo) else None
        hi = self.hi if aff_eq(self.hi, newer.hi) else None
        return Interval(lo, hi, False)

    def __eq__(self, other: object) -> bool:  # dict fields: structural
        if not isinstance(other, Interval):
            return NotImplemented
        return (
            aff_eq(self.lo, other.lo)
            and aff_eq(self.hi, other.hi)
            and self.tight == other.tight
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as keys
        return hash((aff_repr(self.lo), aff_repr(self.hi), self.tight))

    def __repr__(self) -> str:
        mark = "=" if self.tight else "~"
        return f"[{aff_repr(self.lo)}, {aff_repr(self.hi)}]{mark}"
