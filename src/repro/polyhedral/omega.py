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

Safety valve: pathological systems (never produced by the DSL in practice)
give up after a budget and return ``True`` ("may be feasible"), which is the
conservative answer for dependence analysis.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..state import BoundedMemo, Counters
from .linear import Affine, Infeasible, LinCon, fresh_var

#: give-up budget: constraint-count ceiling during elimination
_MAX_CONSTRAINTS = 4000
_MAX_DEPTH = 64

#: memo of canonicalized constraint systems -> feasibility verdict. Shared
#: across all queries (dependence direction queries over one program repeat
#: near-identical systems many times); keys are variable-renamed so fresh
#: existential names do not defeat the memo.
_MEMO = BoundedMemo("omega", 1 << 20)

#: counters for the fast paths and the feasibility memo
_STATS = Counters("omega", memo_hits=0, memo_misses=0, gcd_rejects=0,
                  interval_rejects=0, full_solves=0)

clear_feasibility_cache = _MEMO.clear
feasibility_stats = _STATS.snapshot


def is_feasible(constraints: Iterable[LinCon]) -> bool:
    """Whether an integer point satisfies all constraints."""
    try:
        # normalization + dedup: gcd-tightens every constraint and raises
        # Infeasible for trivially-false ground constraints and for
        # equalities whose coefficient gcd does not divide the constant
        # (the single-constraint GCD quick-reject).
        cons = _normalize(constraints)
    except Infeasible:
        _STATS.add("gcd_rejects")
        return False
    if not cons:
        return True
    # Constant-bounds disjointness: conflicting single-variable interval
    # bounds decide infeasibility without any elimination.
    if _interval_reject(cons):
        _STATS.add("interval_rejects")
        return False
    key = _canonical_key(cons)
    hit = _MEMO.get(key)
    if hit is not None:
        _STATS.add("memo_hits")
        return hit
    _STATS.add("memo_misses")
    _STATS.add("full_solves")
    result = _solve(cons, 0)
    _MEMO.put(key, result)
    return result


def _interval_reject(cons: List[LinCon]) -> bool:
    """True when single-variable constraints alone are contradictory.

    For every constraint mentioning exactly one variable, an integer
    interval bound for that variable is derived; an empty intersection
    proves infeasibility. This catches the common trivially-disjoint
    dependence pairs (accesses to constant, non-overlapping index ranges)
    at a fraction of the cost of Fourier-Motzkin elimination.
    """
    lo: Dict[str, int] = {}
    hi: Dict[str, int] = {}
    for con in cons:
        coeffs = con.expr.coeffs
        if len(coeffs) != 1:
            continue
        (v, c), = coeffs.items()
        k = con.expr.const
        if con.is_eq:
            # c*v + k == 0; after gcd-normalization |c| may still be > 1
            if k % c != 0:
                return True
            val = -k // c
            if val > hi.get(v, val) or val < lo.get(v, val):
                return True
            lo[v] = hi[v] = val
        elif c > 0:
            # c*v >= -k  =>  v >= ceil(-k / c)
            b = -(k // c)
            if v not in lo or b > lo[v]:
                lo[v] = b
        else:
            # |c|*v <= k  =>  v <= floor(k / |c|)
            b = k // -c
            if v not in hi or b < hi[v]:
                hi[v] = b
    for v, b in lo.items():
        if v in hi and b > hi[v]:
            return True
    return False


def _canonical_key(cons: List[LinCon]) -> tuple:
    """A hashable key with variables renamed by first appearance.

    Renaming is injective per system, so two systems sharing a key are
    genuinely identical up to variable names; instability in the renaming
    order can only cost memo hits, never correctness.
    """
    ren: Dict[str, int] = {}
    parts = []
    for c in cons:
        # first appearance in *construction* order (dict insertion order),
        # which mirrors the structure of the system rather than the
        # spelling of the names — renamed-but-identical systems share keys
        items = tuple(sorted((ren.setdefault(v, len(ren)), k)
                             for v, k in c.expr.coeffs.items()))
        parts.append((c.is_eq, c.expr.const, items))
    return tuple(parts)


def _normalize(constraints) -> List[LinCon]:
    out, seen = [], set()
    for c in constraints:
        c = c.normalized()
        if c is None:
            continue
        k = c.key()
        if k not in seen:
            seen.add(k)
            out.append(c)
    return out


def _solve(cons: List[LinCon], depth: int) -> bool:
    if depth > _MAX_DEPTH or len(cons) > _MAX_CONSTRAINTS:
        return True  # give up conservatively
    try:
        cons = _eliminate_equalities(cons)
    except Infeasible:
        return False
    if not cons:
        return True

    # Drop variables unbounded on one side (they can always be satisfied).
    while True:
        lowers, uppers = _bounds_index(cons)
        removable = [
            v for v in set(lowers) | set(uppers)
            if not lowers.get(v) or not uppers.get(v)
        ]
        if not removable:
            break
        drop = set(removable)
        cons = [c for c in cons if not (set(c.expr.vars()) & drop)]
        if not cons:
            return True

    variables = set()
    for c in cons:
        variables.update(c.expr.vars())
    if not variables:
        return True  # only trivially-true ground constraints remain

    x = _choose_var(cons, lowers, uppers)
    lows = lowers[x]
    ups = uppers[x]
    others = [c for c in cons if c.expr.coeff(x) == 0]

    exact = all(b == 1 or a == 1 for b, _ in lows for a, _ in ups)
    real, dark = [], []
    for b, beta in lows:  # b*x >= beta
        for a, alpha in ups:  # a*x <= alpha
            shadow = alpha * b - beta * a
            real.append(LinCon.ge0(shadow))
            dark.append(LinCon.ge0(shadow - Affine.constant((a - 1) *
                                                            (b - 1))))
    try:
        real_sys = _normalize(others + real)
    except Infeasible:
        return False
    if exact:
        return _solve(real_sys, depth + 1)
    try:
        dark_sys = _normalize(others + dark)
    except Infeasible:
        dark_sys = None
    if dark_sys is not None and _solve(dark_sys, depth + 1):
        return True
    if not _solve(real_sys, depth + 1):
        return False
    # Splinter the gap between the dark and real shadows (Pugh, 1991).
    a_max = max(a for a, _ in ups)
    for b, beta in lows:
        hi = (a_max * b - a_max - b) // a_max
        for i in range(hi + 1):
            eq = LinCon.eq0(Affine.var(x, b) - beta - Affine.constant(i))
            try:
                sys_i = _normalize(cons + [eq])
            except Infeasible:
                continue
            if _solve(sys_i, depth + 1):
                return True
    return False


# ---------------------------------------------------------------------------


def _bounds_index(cons):
    """Index constraints per variable as lower/upper bounds.

    For ``c*x + rest >= 0``: if c > 0 it is a lower bound ``c*x >= -rest``
    (recorded as ``(c, -rest)``); if c < 0 an upper bound
    ``|c|*x <= rest`` (recorded as ``(|c|, rest)``).
    """
    lowers: dict = {}
    uppers: dict = {}
    for c in cons:
        if c.is_eq:
            continue
        for v, k in c.expr.coeffs.items():
            rest = Affine(
                {u: w for u, w in c.expr.coeffs.items() if u != v},
                c.expr.const)
            if k > 0:
                lowers.setdefault(v, []).append((k, -rest))
            else:
                uppers.setdefault(v, []).append((-k, rest))
    return lowers, uppers


def _choose_var(cons, lowers, uppers) -> str:
    """Pick the elimination variable: prefer exact+cheap eliminations."""
    best, best_key = None, None
    for v in set(lowers) & set(uppers):
        lo, up = lowers[v], uppers[v]
        exact = all(b == 1 or a == 1 for b, _ in lo for a, _ in up)
        cost = len(lo) * len(up)
        key = (not exact, cost)
        if best_key is None or key < best_key:
            best, best_key = v, key
    assert best is not None
    return best


def _eliminate_equalities(cons: List[LinCon]) -> List[LinCon]:
    cons = list(cons)
    guard = 0
    while True:
        guard += 1
        if guard > 500:  # pathological; bail out conservatively feasible
            return [c for c in cons if not c.is_eq]
        eqs = [(i, c) for i, c in enumerate(cons)
               if c.is_eq and not c.expr.is_constant()]
        if not eqs:
            return _normalize(cons)
        chosen = None
        for i, c in eqs:
            unit = next(
                (v for v, k in c.expr.coeffs.items() if abs(k) == 1), None)
            if unit is not None:
                chosen = (i, c, unit)
                break
        if chosen is not None:
            i, c, unit = chosen
            e = c.expr
            k = e.coeffs[unit]
            rest = Affine({v: c2 for v, c2 in e.coeffs.items() if v != unit},
                          e.const)
            # k*x + rest = 0  =>  x = -rest  (k=1)  or  x = rest  (k=-1)
            value = rest * (-1) if k == 1 else rest
            cons.pop(i)
            cons = _normalize([c2.substitute(unit, value) for c2 in cons])
            continue
        # No equality has a unit coefficient: Pugh's mod-hat substitution
        # introduces a fresh variable whose coefficient is ±1 in a derived
        # equality; substituting it shrinks the original coefficients.
        _i, c = eqs[0]
        e = c.expr
        xk = min(e.coeffs, key=lambda v: abs(e.coeffs[v]))
        m = abs(e.coeffs[xk]) + 1
        sigma = fresh_var("s")
        hat = Affine(
            {v: _mod_hat(c2, m) for v, c2 in e.coeffs.items()},
            _mod_hat(e.const, m)) - Affine.var(sigma, m)
        cons.append(LinCon.eq0(hat))


def _mod_hat(a: int, m: int) -> int:
    """Symmetric remainder in ``(-m/2, m/2]``."""
    r = a % m
    if 2 * r > m:
        r -= m
    return r
