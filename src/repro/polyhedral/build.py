"""Translate IR expressions into linear form for the Presburger engine.

``FloorDiv`` and ``Mod`` by positive constants are linearised exactly with
an existential quotient (this is what makes accesses like ``(j + 1) % 3``
analysable). Anything non-affine (data-dependent indices such as
``adj[i, j]``, products of iterators, float arithmetic) is reported to the
caller, which models it conservatively as an unconstrained value.

The one translator is :class:`Linearizer`: an expression becomes a
linear form ``({column: coeff}, const)`` and a condition a disjunction of
rows ``(is_eq, const, {column: coeff})`` meaning ``const + sum(coeff *
column) (== | >=) 0``; :func:`combine`, :func:`scale` and :func:`relation`
build more. Rows are the solver's input format (``omega.is_feasible``).
The caller names the columns: the dependence analyser keys them by an
access's own iterators, symbols and existentials; ``prune``, ``loop_trans``
and the bounds checker by variable name; ``simplify`` by atom key.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple

from ..ir import expr as E

#: a linear form ``({column: coeff}, const)``: no zero coefficient, columns
#: in the order the arithmetic that built it first met them
Linear = Tuple[Dict[Hashable, int], int]
#: ``(is_eq, const, {column: coeff})``
Row = Tuple[bool, int, Dict[Hashable, int]]


class NonAffine(Exception):
    """The expression cannot be represented affinely."""


def combine(x: Linear, y: Linear, sign: int) -> Linear:
    """``x + sign * y``, over ``x``'s columns, then ``y``'s new ones,
    minus any that cancel."""
    coeffs = dict(x[0])
    for v, c in y[0].items():
        coeffs[v] = coeffs.get(v, 0) + sign * c
    return {v: c for v, c in coeffs.items() if c}, x[1] + sign * y[1]


def relation(rel: str, a: Linear, b: Linear) -> Row:
    """The row of ``a REL b``: ``a - b`` for ``= >= >``, ``b - a`` for
    ``<= <``, less one when strict. The column order of a row fixes the
    solver's memo key, so every caller states a relation this one way."""
    if rel in ("<", "<="):
        coeffs, k = combine(b, a, -1)
    else:
        coeffs, k = combine(a, b, -1)
    if rel in ("<", ">"):
        k -= 1
    return rel == "=", k, coeffs


_CMP = {E.LT: "<", E.LE: "<=", E.GT: ">", E.GE: ">=", E.EQ: "=", E.NE: "!="}
_NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "!=", "!=": "="}


class Linearizer:
    """IR expressions and conditions to linear forms and rows.

    ``column(name)`` is the column of an IR variable, ``fresh()`` a new
    existential column for the quotient of a ``//`` or ``%``; the two rows
    bounding each quotient collect in ``rows``. Subclasses may override
    :meth:`non_affine` to model a non-affine subexpression instead of
    failing.
    """

    def __init__(self, column: Callable[[str], Hashable],
                 fresh: Callable[[], Hashable]):
        self.column = column
        self.fresh = fresh
        self.rows: List[Row] = []

    def non_affine(self, e: E.Expr) -> Linear:
        raise NonAffine(e)

    def linear(self, e: E.Expr) -> Linear:
        if isinstance(e, E.IntConst):
            return {}, e.val
        if isinstance(e, E.BoolConst):
            return {}, int(e.val)
        if isinstance(e, E.Var):
            return {self.column(e.name): 1}, 0
        if isinstance(e, E.Add):
            return combine(self.linear(e.lhs), self.linear(e.rhs), 1)
        if isinstance(e, E.Sub):
            return combine(self.linear(e.lhs), self.linear(e.rhs), -1)
        if isinstance(e, E.Mul):
            if isinstance(e.lhs, E.IntConst):
                return scale(self.linear(e.rhs), e.lhs.val)
            if isinstance(e.rhs, E.IntConst):
                return scale(self.linear(e.lhs), e.rhs.val)
            return self.non_affine(e)
        if isinstance(e, (E.FloorDiv, E.Mod)):
            if not isinstance(e.rhs, E.IntConst) or e.rhs.val <= 0:
                return self.non_affine(e)
            d = e.rhs.val
            a = self.linear(e.lhs)
            q = self.fresh()
            dq = {q: d}, 0
            # rem = a - d*q in [0, d); rem is also the value of a % d
            rem = combine(a, dq, -1)
            self.rows.append((False, rem[1], rem[0]))
            coeffs, k = combine(dq, a, -1)
            self.rows.append((False, k + d - 1, coeffs))
            return ({q: 1}, 0) if isinstance(e, E.FloorDiv) else rem
        return self.non_affine(e)

    def try_linear(self, e: E.Expr) -> Optional[Linear]:
        """:meth:`linear`, or None (and no new rows) when ``e`` is not
        affine."""
        n = len(self.rows)
        try:
            return self.linear(e)
        except NonAffine:
            del self.rows[n:]
            return None

    def try_condition(self, e: E.Expr,
                      negate: bool = False) -> Optional[List[List[Row]]]:
        """:meth:`condition`, or None (and no new rows) when it cannot be
        modelled."""
        n = len(self.rows)
        try:
            return self.condition(e, negate)
        except NonAffine:
            del self.rows[n:]
            return None

    def condition(self, e: E.Expr, negate: bool = False) -> List[List[Row]]:
        """A boolean expression as a disjunction of conjunctions of rows.

        Raises :class:`NonAffine` for conditions the engine cannot model.
        """
        if isinstance(e, E.LNot):
            return self.condition(e.operand, not negate)
        if isinstance(e, E.LAnd) and not negate or \
                isinstance(e, E.LOr) and negate:
            left = self.condition(e.lhs, negate)
            right = self.condition(e.rhs, negate)
            return [l + r for l in left for r in right]
        if isinstance(e, E.LOr) and not negate or \
                isinstance(e, E.LAnd) and negate:
            return (self.condition(e.lhs, negate) +
                    self.condition(e.rhs, negate))
        if isinstance(e, E.CmpOp):
            a = self.linear(e.lhs)
            b = self.linear(e.rhs)
            rel = _CMP[type(e)]
            if negate:
                rel = _NEGATE[rel]
            if rel == "!=":  # a < b or a > b
                return [[relation("<", a, b)], [relation(">", a, b)]]
            return [[relation(rel, a, b)]]
        if isinstance(e, E.BoolConst):
            if e.val != negate:
                return [[]]
            return [[(False, -1, {})]]  # unsatisfiable conjunction
        raise NonAffine(e)


def scale(x: Linear, k: int) -> Linear:
    return {v: c * k for v, c in x[0].items() if c * k}, x[1] * k

