"""Exact integer feasibility of affine constraint systems (the Omega test).

This is the decision procedure at the bottom of the dependence analyser —
our stand-in for isl's emptiness check. It follows Pugh's Omega test:

1. equalities are eliminated by substitution, using the "mod-hat"
   change of variables when no coefficient is ±1;
2. inequalities are eliminated by Fourier–Motzkin: elimination is *exact*
   when every (lower, upper) pair has a unit coefficient; otherwise the
   *dark shadow* is tried first (sufficient) and the *real shadow* second
   (necessary), with exact *splintering* in the gap between them.

All variables are treated as existentially quantified integers, so
``is_feasible(cons)`` decides ``∃ x ∈ Z^n . cons(x)`` — unbounded symbolic
parameters (tensor extents) are handled for free.

The solver works on integer rows, not on ``LinCon`` objects: a system is
translated once at entry into dense tuples ``(const, c1, ..., cn)`` meaning
``const + c1*x1 + ... + cn*xn (>= | ==) 0``, with columns numbered by the
variables' first appearance. The same numbering makes the memo key
rename-invariant.

Safety valve: pathological systems (never produced by the DSL in practice)
give up after a budget and return ``True`` ("may be feasible"), which is the
conservative answer for dependence analysis.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Optional, Tuple

from ..state import BoundedMemo, Counters
from .linear import Infeasible, LinCon

#: give-up budget: constraint-count ceiling during elimination
_MAX_CONSTRAINTS = 4000
_MAX_DEPTH = 64

#: memo of translated constraint systems -> feasibility verdict. Shared
#: across all queries (dependence direction queries over one program repeat
#: near-identical systems many times); keys are tuples of ``(is_eq, row)``,
#: so fresh existential names do not defeat the memo.
_MEMO = BoundedMemo("omega", 1 << 20)

#: counters for the fast paths and the feasibility memo
_STATS = Counters("omega", memo_hits=0, memo_misses=0, gcd_rejects=0,
                  interval_rejects=0, full_solves=0)

clear_feasibility_cache = _MEMO.clear
feasibility_stats = _STATS.snapshot

Row = Tuple[int, ...]


def is_feasible(constraints: Iterable[LinCon]) -> bool:
    """Whether an integer point satisfies all constraints."""
    return any_feasible(constraints, [()])


def any_feasible(base: Iterable[LinCon],
                 alternatives: Iterable[Iterable[LinCon]]) -> bool:
    """``any(is_feasible(base + alt) for alt in alternatives)``, with the
    same memo keys and counters, translating ``base`` only once."""
    cols: Dict[str, int] = {}
    try:
        # gcd-tightens every constraint and raises Infeasible for
        # trivially-false ground constraints and for equalities whose
        # coefficient gcd does not divide the constant (the single-
        # constraint GCD quick-reject)
        base_rows = _translate(base, cols)
    except Infeasible:
        base_rows = None
    else:
        width = len(cols) + 1
        base_items = _dense(base_rows, width)
        base_seen = set(base_items)
        base_lo: Dict[int, int] = {}
        base_hi: Dict[int, int] = {}
        base_clash = _bounds(base_rows, base_lo, base_hi)
    for alt in alternatives:
        if base_rows is None:
            _STATS.add("gcd_rejects")
            continue
        alt_cols = dict(cols)
        try:
            alt_rows = _translate(alt, alt_cols)
        except Infeasible:
            _STATS.add("gcd_rejects")
            continue
        items, seen = base_items, base_seen
        if len(alt_cols) + 1 > width:  # new variables: pad the base rows
            pad = (0,) * (len(alt_cols) + 1 - width)
            items = [(is_eq, row + pad) for is_eq, row in base_items]
            seen = set(items)
        system = items + [it for it in _dense(alt_rows, len(alt_cols) + 1)
                          if it not in seen]
        if not system:
            return True
        # Constant-bounds disjointness: conflicting single-variable interval
        # bounds decide infeasibility without any elimination.
        lo, hi = dict(base_lo), dict(base_hi)
        if base_clash or _bounds(alt_rows, lo, hi) \
                or any(v > hi[j] for j, v in lo.items() if j in hi):
            _STATS.add("interval_rejects")
            continue
        key = tuple(system)
        verdict = _MEMO.get(key)
        if verdict is None:
            _STATS.add("memo_misses")
            _STATS.add("full_solves")
            verdict = _solve([row for is_eq, row in system if is_eq],
                             [row for is_eq, row in system if not is_eq], 0)
            _MEMO.put(key, verdict)
        else:
            _STATS.add("memo_hits")
        if verdict:
            return True
    return False


def _translate(constraints, cols: Dict[str, int]) -> list:
    """Sparse gcd-tightened rows ``(is_eq, const, ((col, coeff), ...))``;
    variables new to ``cols`` get the next column. Trivially true ground
    constraints are dropped; raises :class:`Infeasible` for a trivially
    false one. An inequality is tightened with the floor rule:
    ``g*s + k >= 0  <=>  s + floor(k/g) >= 0``."""
    out = []
    for con in constraints:
        coeffs, k = con.expr.coeffs, con.expr.const
        if not coeffs:
            if k < 0 or (con.is_eq and k):
                raise Infeasible
            continue
        g = gcd(*coeffs.values())
        if con.is_eq and k % g:
            raise Infeasible
        terms = tuple((cols.setdefault(v, len(cols) + 1), c // g)
                      for v, c in coeffs.items())
        out.append((con.is_eq, k // g, terms))
    return out


def _dense(rows, width: int) -> List[Tuple[bool, Row]]:
    """Deduplicated ``(is_eq, row)`` items of sparse rows, ``width`` wide."""
    out, seen = [], set()
    for is_eq, k, terms in rows:
        row = [0] * width
        row[0] = k
        for j, c in terms:
            row[j] = c
        item = (is_eq, tuple(row))
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def _bounds(rows, lo: Dict[int, int], hi: Dict[int, int]) -> bool:
    """Fold the single-variable rows into per-column integer bounds; True
    on a clash with an equality.

    A tightened single-variable row has coefficient ±1. This catches the
    common trivially-disjoint dependence pairs (accesses to constant,
    non-overlapping index ranges) at a fraction of the cost of
    Fourier-Motzkin elimination.
    """
    for is_eq, k, terms in rows:
        if len(terms) != 1:
            continue
        (j, c), = terms
        v = -c * k  # c*x + k >= 0 bounds x from below (c=1) / above (c=-1)
        if is_eq:
            if v > hi.get(j, v) or v < lo.get(j, v):
                return True
            lo[j] = hi[j] = v
        elif c > 0:
            if j not in lo or v > lo[j]:
                lo[j] = v
        elif j not in hi or v < hi[j]:
            hi[j] = v
    return False


def _tighten(row, is_eq: bool) -> Optional[Row]:
    """A row divided by its coefficient gcd; None when trivially true.

    Raises :class:`Infeasible` for a trivially false row."""
    g = gcd(*row[1:])
    if g == 1:
        return tuple(row)
    if not g:
        if row[0] < 0 or (is_eq and row[0]):
            raise Infeasible
        return None
    if is_eq and row[0] % g:
        raise Infeasible
    return tuple([c // g for c in row])


def _solve(eqs: List[Row], ineqs: List[Row], depth: int) -> bool:
    if depth > _MAX_DEPTH or len(eqs) + len(ineqs) > _MAX_CONSTRAINTS:
        return True  # give up conservatively
    try:
        ineqs = _eliminate_equalities(eqs, ineqs)
    except Infeasible:
        return False

    # Drop variables unbounded on one side (they can always be satisfied).
    while True:
        if not ineqs:
            return True
        cols = list(zip(*ineqs))
        both, drop = [], []
        for j in range(1, len(cols)):
            hi, lo = max(cols[j]), min(cols[j])
            if hi > 0 and lo < 0:
                both.append((j, hi, lo))
            elif hi or lo:
                drop.append(j)
        if not drop:
            break
        ineqs = [r for r in ineqs if not any(r[j] for j in drop)]

    j, exact = _choose_var(cols, both)
    lows = [r for r in ineqs if r[j] > 0]
    ups = [r for r in ineqs if r[j] < 0]
    others = [r for r in ineqs if not r[j]]
    try:
        real = _shadow(others, lows, ups, j, False)
    except Infeasible:
        return False
    if exact:
        return _solve([], real, depth + 1)
    try:
        dark = _shadow(others, lows, ups, j, True)
    except Infeasible:
        dark = None
    if dark is not None and _solve([], dark, depth + 1):
        return True
    if not _solve([], real, depth + 1):
        return False
    return _splinter(ineqs, lows, j, -min(cols[j]), depth)


# ---------------------------------------------------------------------------


def _splinter(ineqs: List[Row], lows: List[Row], j: int, a_max: int,
              depth: int) -> bool:
    """Search the gap between the dark and real shadows (Pugh, 1991): a
    point there has some lower bound ``L = b*x + ...`` equal to a small
    ``i >= 0``, so ``ineqs`` plus ``L - i == 0`` is solved for each."""
    for low in lows:
        b = low[j]
        for i in range((a_max * b - a_max - b) // a_max + 1):
            if _solve([(low[0] - i,) + low[1:]], ineqs, depth + 1):
                return True
    return False


def _choose_var(cols, both) -> Tuple[int, bool]:
    """The elimination column and whether eliminating it is exact: key
    ``(not exact, |lower bounds| * |upper bounds|)``, ties to the lowest
    column. Exact: every lower or every upper bound has a unit
    coefficient."""
    best, best_key = None, None
    for j, hi, lo in both:
        exact = hi == 1 or lo == -1
        key = (not exact,
               sum(c > 0 for c in cols[j]) * sum(c < 0 for c in cols[j]))
        if best_key is None or key < best_key:
            best, best_key = j, key
    return best, not best_key[0]


def _shadow(others: List[Row], lows: List[Row], ups: List[Row], j: int,
            dark: bool) -> List[Row]:
    """``others`` plus ``a*L + b*U`` for every lower bound ``L = b*x + ...``
    and upper bound ``U = -a*x + ...`` of column ``j`` (the real shadow);
    the dark shadow lowers each constant by ``(a-1)*(b-1)``. Tightened and
    deduplicated; raises :class:`Infeasible`."""
    out, seen = list(others), set(others)
    for low in lows:
        b = low[j]
        for up in ups:
            a = -up[j]
            row = [a * u + b * v for u, v in zip(low, up)]
            if dark:
                row[0] -= (a - 1) * (b - 1)
            row = _tighten(row, False)
            if row is not None and row not in seen:
                seen.add(row)
                out.append(row)
    return out


def _eliminate_equalities(eqs: List[Row], ineqs: List[Row]) -> List[Row]:
    """The inequalities left once every equality is substituted away;
    raises :class:`Infeasible`."""
    guard = 0
    while True:
        guard += 1
        if guard > 500 or not eqs:  # 500: pathological; bail out feasible
            return ineqs
        for n, e in enumerate(eqs):
            j = next((j for j in range(1, len(e)) if e[j] in (1, -1)), 0)
            if j:
                # e[j]*x + rest == 0  =>  x = -e[j]*rest: row r becomes
                # r - r[j]*e[j]*e, which zeroes its column j
                eqs = _substitute(eqs[:n] + eqs[n + 1:], e, j, True)
                ineqs = _substitute(ineqs, e, j, False)
                break
        else:
            # No equality has a unit coefficient: Pugh's mod-hat
            # substitution introduces a fresh variable (one more column)
            # whose coefficient is ±1 in a derived equality; substituting
            # it shrinks the original coefficients.
            e = eqs[0]
            m = min(abs(c) for c in e[1:] if c) + 1
            eqs = [r + (0,) for r in eqs]
            eqs.append(tuple(_mod_hat(c, m) for c in e) + (-m,))
            ineqs = [r + (0,) for r in ineqs]


def _substitute(rows: List[Row], e: Row, j: int, is_eq: bool) -> List[Row]:
    out, seen = [], set()
    for r in rows:
        f = r[j] * e[j]
        if f:
            r = _tighten([c - f * d for c, d in zip(r, e)], is_eq)
            if r is None:
                continue
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out


def _mod_hat(a: int, m: int) -> int:
    """Symmetric remainder in ``(-m/2, m/2]``."""
    r = a % m
    if 2 * r > m:
        r -= m
    return r
