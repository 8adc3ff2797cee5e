"""Exact integer feasibility of linear constraint systems (the Omega test).

This is the decision procedure at the bottom of the dependence analyser —
our stand-in for isl's emptiness check. It follows Pugh's Omega test:

1. equalities are eliminated by substitution, using the "mod-hat"
   change of variables when no coefficient is ±1;
2. inequalities are eliminated by Fourier–Motzkin: elimination is *exact*
   when every (lower, upper) pair has a unit coefficient; otherwise the
   *dark shadow* is tried first (sufficient) and the *real shadow* second
   (necessary), with exact *splintering* in the gap between them.

All variables are treated as existentially quantified integers, so
``is_feasible(rows)`` decides ``∃ x ∈ Z^n . rows(x)`` — unbounded symbolic
parameters (tensor extents) are handled for free.

A constraint is written one way from the IR down to here: a
:class:`~repro.polyhedral.build.Linearizer` row ``(is_eq, const, {column:
coeff})`` meaning ``const + sum(coeff * column) (== | >=) 0``, over
columns the caller names. :func:`append_row` tightens such a row into a
sparse row whose columns are numbered by first appearance, which makes
the memo key rename-invariant; :func:`feasible_rows`, the entry every
query goes through, expands sparse rows into dense tuples ``(const, c1,
..., cn)``. The dependence analyser composes sparse rows itself;
``is_feasible`` / ``any_feasible`` tighten ``Linearizer`` rows for
``prune``, ``loop_trans`` and the bounds checker.

Work budget: a query (one system :func:`feasible_rows` solves) may build
``_BUDGET`` rows. A shadow is charged as it is built: ``len(others)``
up front, then ``len(ups)`` before each lower bound's combinations, so a
shadow an early pair refutes is charged for the lower bounds it reached,
not for all of them. An equality-substitution round is charged
``len(eqs) + len(ineqs)``. Split-then-merge schedules of small programs
leave nested ``//`` / ``%`` indices whose shadows grow to tens of
thousands of rows. A give-up is all or nothing: the query is
:data:`UNKNOWN`, counted in ``gave_up`` and memoized like any other, so
``True`` and ``False`` are always proofs. ``UNKNOWN`` is truthy, so the
callers that ask "may it be feasible?" — dependences, ``prune`` and
``loop_trans``'s equality proof — read it as feasible and refuse the
transformation or keep the branch. The bounds checker, for which
feasible means a *proven* out-of-bounds access, reports it as "cannot
prove" instead.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Optional, Tuple

from ..state import BoundedMemo, Counters

#: rows one query may build before it is given up on
_BUDGET = 100_000


class _Infeasible(Exception):
    """A constraint system is trivially unsatisfiable."""


class _GiveUp(Exception):
    """A query spent its work budget."""


class _Unknown:
    __slots__ = ()

    def __bool__(self):
        return True

    def __repr__(self):
        return "UNKNOWN"


#: the verdict of a query the solver gave up on: truthy ("may be
#: feasible"), and distinct from ``True`` ("is feasible")
UNKNOWN = _Unknown()

#: memo of translated constraint systems -> feasibility verdict. Shared
#: across all queries (dependence direction queries over one program repeat
#: near-identical systems many times); keys are tuples of ``(is_eq, row)``,
#: so fresh existential names do not defeat the memo.
_MEMO = BoundedMemo("omega", 1 << 20)

#: counters for the fast paths and the feasibility memo
_STATS = Counters("omega", memo_hits=0, memo_misses=0, gcd_rejects=0,
                  interval_rejects=0, full_solves=0, gave_up=0)

clear_feasibility_cache = _MEMO.clear
feasibility_stats = _STATS.snapshot

Row = Tuple[int, ...]


def is_feasible(rows: Iterable[tuple]):
    """Whether an integer point satisfies every ``Linearizer`` row:
    ``True``, ``False`` or :data:`UNKNOWN`."""
    return any_feasible(rows, [()])


def any_feasible(base: Iterable[tuple],
                 alternatives: Iterable[Iterable[tuple]]):
    """``any(is_feasible(base + alt) for alt in alternatives)``, with the
    same memo keys and counters, tightening ``base`` only once. The
    verdict is the first truthy one (``True`` or :data:`UNKNOWN`), else
    ``False``."""
    cols: Dict = {}
    try:
        base_rows = _translate(base, cols)
    except _Infeasible:
        base_rows = None
    return feasible_rows(base_rows, len(cols),
                         _translate_each(alternatives, cols))


def append_row(out: list, cols: Dict, is_eq: bool, const: int,
               coeffs: Dict) -> bool:
    """Append the sparse gcd-tightened row of ``const + sum(c * v for v, c
    in coeffs) (== | >=) 0`` to ``out``; a variable new to ``cols`` gets
    the next column. A trivially true ground row is dropped; False for a
    trivially false one, and for an equality whose coefficient gcd does
    not divide its constant (the single-constraint GCD quick-reject). An
    inequality is tightened with the floor rule:
    ``g*s + k >= 0  <=>  s + floor(k/g) >= 0``."""
    if not coeffs:
        return const >= 0 and not (is_eq and const)
    g = gcd(*coeffs.values())
    if is_eq and const % g:
        return False
    out.append((is_eq, const // g,
                tuple([(cols.setdefault(v, len(cols) + 1), c // g)
                       for v, c in coeffs.items()])))
    return True


def feasible_rows(base: Optional[list], ncols: int,
                  alternatives: Iterable[Tuple[Optional[list], int]]):
    """The row-level entry: is ``base + alt`` feasible for some
    alternative? ``True``, ``False`` or :data:`UNKNOWN`, as
    :func:`any_feasible`.

    ``base`` holds sparse gcd-tightened rows ``(is_eq, const, ((col,
    coeff), ...))`` over columns ``1..ncols`` (:func:`append_row`'s), or
    is None when one of its rows is trivially false. Each alternative is
    ``(rows, n)``: its rows over the base's columns plus its own new ones
    (``n`` columns in all), or ``(None, 0)`` when trivially false.
    Alternatives are consumed lazily and each one counts once, so a
    caller's generator builds only the rows that are decided."""
    if base is None:
        for _alt in alternatives:
            _STATS.add("gcd_rejects")
        return False
    width = ncols + 1
    base_items = _dense(base, width)
    base_seen = set(base_items)
    base_lo: Dict[int, int] = {}
    base_hi: Dict[int, int] = {}
    base_clash = _bounds(base, base_lo, base_hi)
    for alt_rows, n in alternatives:
        if alt_rows is None:
            _STATS.add("gcd_rejects")
            continue
        items, seen = base_items, base_seen
        if n + 1 > width:  # new variables: pad the base rows
            pad = (0,) * (n + 1 - width)
            items = [(is_eq, row + pad) for is_eq, row in base_items]
            seen = set(items)
        system = items + [it for it in _dense(alt_rows, n + 1)
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
            try:
                verdict = _solve([_BUDGET], [r for eq, r in system if eq],
                                 [r for eq, r in system if not eq])
            except _GiveUp:
                _STATS.add("gave_up")
                verdict = UNKNOWN
            _MEMO.put(key, verdict)
        else:
            _STATS.add("memo_hits")
        if verdict:
            return verdict
    return False


def _translate(rows, cols: Dict) -> list:
    """:func:`append_row`'s rows of ``Linearizer`` rows; raises
    :class:`_Infeasible` for a trivially false one."""
    out: list = []
    for row in rows:
        if not append_row(out, cols, *row):
            raise _Infeasible
    return out


def _translate_each(alternatives, cols: Dict):
    """``feasible_rows``' alternatives from ``Linearizer`` row lists over
    a translated base's ``cols``."""
    for alt in alternatives:
        alt_cols = dict(cols)
        try:
            yield _translate(alt, alt_cols), len(alt_cols)
        except _Infeasible:
            yield None, 0


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

    Raises :class:`_Infeasible` for a trivially false row."""
    g = gcd(*row[1:])
    if g == 1:
        return tuple(row)
    if not g:
        if row[0] < 0 or (is_eq and row[0]):
            raise _Infeasible
        return None
    if is_eq and row[0] % g:
        raise _Infeasible
    return tuple([c // g for c in row])


def _solve(left: List[int], eqs: List[Row], ineqs: List[Row]) -> bool:
    """Whether the system has an integer point. ``left`` holds what is left
    of the query's budget; raises :class:`_GiveUp` once it is spent."""
    try:
        ineqs = _eliminate_equalities(left, eqs, ineqs)
    except _Infeasible:
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
        real = _shadow(left, others, lows, ups, j, False)
    except _Infeasible:
        return False
    if exact:
        return _solve(left, [], real)
    try:
        if _solve(left, [], _shadow(left, others, lows, ups, j, True)):
            return True
    except _Infeasible:  # the dark shadow is empty
        pass
    return _solve(left, [], real) \
        and _splinter(left, ineqs, lows, j, -min(cols[j]))


# ---------------------------------------------------------------------------


def _charge(left: List[int], rows: int):
    """Spend ``rows`` of the budget ``left``; :class:`_GiveUp` past it."""
    left[0] -= rows
    if left[0] < 0:
        raise _GiveUp


def _splinter(left: List[int], ineqs: List[Row], lows: List[Row], j: int,
              a_max: int) -> bool:
    """Search the gap between the dark and real shadows (Pugh, 1991): a
    point there has some lower bound ``L = b*x + ...`` equal to a small
    ``i >= 0``, so ``ineqs`` plus ``L - i == 0`` is solved for each."""
    return any(_solve(left, [(low[0] - i,) + low[1:]], ineqs)
               for low in lows
               for i in range((a_max * low[j] - a_max - low[j]) // a_max + 1))


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


def _shadow(left: List[int], others: List[Row], lows: List[Row],
            ups: List[Row], j: int, dark: bool) -> List[Row]:
    """``others`` plus ``a*L + b*U`` for every lower bound ``L = b*x + ...``
    and upper bound ``U = -a*x + ...`` of column ``j`` (the real shadow);
    the dark shadow lowers each constant by ``(a-1)*(b-1)``. Tightened and
    deduplicated, charged to ``left`` as it is built (never less than it
    computes); raises :class:`_Infeasible`."""
    _charge(left, len(others))
    out, seen = list(others), set(others)
    for low in lows:
        _charge(left, len(ups))
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


def _eliminate_equalities(left: List[int], eqs: List[Row],
                          ineqs: List[Row]) -> List[Row]:
    """The inequalities left once every equality is substituted away, each
    round charged to ``left`` the rows it rewrites. Raises
    :class:`_Infeasible`."""
    while eqs:
        _charge(left, len(eqs) + len(ineqs))
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
    return ineqs


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
