"""Tests for the Presburger engine: row tightening, the Omega test and the
IR-to-linear translator (``Linearizer``)."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import DataType, Load, Var
from repro.polyhedral import (UNKNOWN, Linearizer, NonAffine, any_feasible,
                              append_row, clear_feasibility_cache,
                              feasibility_stats, is_feasible, relation)

x, y, z, N = (Var(v) for v in "xyzN")


def _linearizer():
    return Linearizer(lambda name: name, object)


def rows(*conds):
    """The rows of conjunctive IR conditions, columns by variable name."""
    lin = _linearizer()
    out = []
    for cond in conds:
        (alt,) = lin.condition(cond)
        out += alt
    return out + lin.rows


class TestAffine:
    """Substitution and coefficient content, through the solver."""

    def test_substitute(self):
        # unit-equality substitution: x = y + 1 turns 2x + y into 3y + 2
        e = x * 2 + y
        assert is_feasible(rows(x == y + 1, e == y * 3 + 2))
        assert not is_feasible(rows(x == y + 1, e >= y * 3 + 3))

    def test_content(self):
        # the coefficient gcd of 4x + 6y is 2: only even values are reached
        assert is_feasible(rows(x * 4 + y * 6 == 2))
        assert not is_feasible(rows(x * 4 + y * 6 == 1))


class TestLinCon:
    """``append_row``: gcd tightening, the equality gcd reject and dropping
    trivially-true rows, seen in its output and through the verdicts and
    the ``omega`` counters."""

    def test_normalize_tightens(self):
        # 2x - 1 >= 0 tightens to x - 1 >= 0 (x >= 1), which together
        # with x <= 0 is an interval clash — no elimination needed
        out, cols = [], {}
        assert append_row(out, cols, False, -1, {"x": 2})
        assert out == [(False, -1, ((1, 1),))] and cols == {"x": 1}
        before = feasibility_stats()
        assert not is_feasible([(False, -1, {"x": 2})] + rows(x <= 0))
        after = feasibility_stats()
        assert after["interval_rejects"] == before["interval_rejects"] + 1
        assert after["full_solves"] == before["full_solves"]

    def test_normalize_eq_gcd_infeasible(self):
        out = []
        assert not append_row(out, {}, True, -1, {"x": 2})
        assert out == []
        before = feasibility_stats()["gcd_rejects"]
        assert not is_feasible(rows(y >= 0) + [(True, -1, {"x": 2})])
        assert feasibility_stats()["gcd_rejects"] == before + 1

    def test_trivial_true_dropped(self):
        out = []
        assert append_row(out, {}, False, 5, {}) and out == []
        before = feasibility_stats()
        assert is_feasible([(False, 5, {})])
        assert feasibility_stats() == before  # nothing left to decide
        clear_feasibility_cache()
        system = rows(x >= y, x <= y * 2)
        assert is_feasible(system)
        before = feasibility_stats()
        assert is_feasible(system + [(False, 5, {})])
        assert feasibility_stats()["memo_hits"] == before["memo_hits"] + 1


class TestOmega:
    """Hand-checked feasibility cases including dark-shadow territory."""

    def test_simple_box(self):
        assert is_feasible(rows(x >= 0, x <= 10))
        assert not is_feasible(rows(x >= 1, x <= 0))

    def test_equality_chain(self):
        assert not is_feasible(rows(x >= 0, x < N, x == y + 1, y >= N - 1))

    def test_parity(self):
        assert not is_feasible(rows(x * 2 == y * 2 + 1))
        assert is_feasible(rows(x * 2 == y * 3 + 1))

    def test_diophantine_gcd(self):
        assert is_feasible(rows(x * 3 + y * 5 == 1))
        assert not is_feasible(rows(x * 6 + y * 10 == 1))

    def test_integer_gap(self):
        # 2 <= 4x <= 3 has no integer x
        assert not is_feasible(rows(x * 4 >= 2, x * 4 <= 3))
        # 0 <= 2x <= 1 has x = 0
        assert is_feasible(rows(x * 2 >= 0, x * 2 <= 1))

    def test_symbolic_parameters(self):
        assert is_feasible(rows(x >= N, x <= N))
        assert not is_feasible(rows(x <= N, x >= N + 1))

    def test_three_vars(self):
        # x + y + z = 10, 0<=x,y,z<=3 -> max sum 9 < 10
        box = rows(*(c for v in (x, y, z) for c in (v >= 0, v <= 3)))
        assert not is_feasible(rows(x + y + z == 10) + box)
        assert is_feasible(rows(x + y + z == 9) + box)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 5),
           st.integers(1, 5))
    def test_matches_bruteforce_2d(self, lo1, lo2, w1, w2):
        """Feasibility of a random 2-D system agrees with brute force."""
        system = rows(x >= lo1, x <= lo1 + w1, y >= lo2, y <= lo2 + w2,
                      x * 2 + y * 3 >= 0, x + y <= lo1 + lo2 + w1)
        brute = any(
            2 * a + 3 * b >= 0 and a + b <= lo1 + lo2 + w1
            for a in range(lo1, lo1 + w1 + 1)
            for b in range(lo2, lo2 + w2 + 1))
        assert is_feasible(system) == brute

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7), st.integers(2, 7), st.integers(-20, 20))
    def test_diophantine_matches_gcd(self, a, b, c):
        import math

        assert is_feasible(rows(x * a + y * b == c)) \
            == (c % math.gcd(a, b) == 0)


@st.composite
def _boxed_system(draw):
    """Up to 4 variables in boxes at most 6 wide, plus 1-4 constraints with
    non-unit coefficients, some of them equalities: ``(boxes, extra)``
    with ``extra`` a list of ``({var: coeff}, const, is_eq)``."""
    names = draw(st.permutations("pqrs"))[:draw(st.integers(1, 4))]
    boxes = {}
    for v in names:
        lo = draw(st.integers(-3, 3))
        boxes[v] = (lo, lo + draw(st.integers(0, 5)))
    extra = draw(st.lists(st.tuples(
        st.dictionaries(st.sampled_from(names), st.integers(-3, 5),
                        min_size=1),
        st.integers(-8, 8), st.booleans()), min_size=1, max_size=4))
    return boxes, extra


def _cons(boxes, extra):
    box = [relation(rel, ({v: 1}, 0), ({}, bound))
           for v, (lo, hi) in boxes.items()
           for rel, bound in ((">=", lo), ("<=", hi))]
    return box, [(eq, k, {v: c for v, c in co.items() if c})
                 for co, k, eq in extra]


def _enumerate(boxes, extra) -> bool:
    names = list(boxes)
    for point in itertools.product(*(range(lo, hi + 1)
                                     for lo, hi in boxes.values())):
        env = dict(zip(names, point))
        sums = [(k + sum(c * env[v] for v, c in co.items()), eq)
                for co, k, eq in extra]
        if all(s == 0 if eq else s >= 0 for s, eq in sums):
            return True
    return False


class TestOmegaOracle:
    """The Omega test against brute-force enumeration, and
    ``any_feasible`` against its definition."""

    @settings(max_examples=300, deadline=None)
    @given(_boxed_system())
    def test_matches_enumeration(self, system):
        box, extra = _cons(*system)
        assert is_feasible(box + extra) == _enumerate(*system)

    @pytest.mark.parametrize("boxes, extra", [
        # decided by the exact dark-shadow constant (a-1)(b-1) ...
        ({"p": (3, 3), "q": (-1, 4), "r": (3, 4), "s": (3, 9)},
         [({"p": 1, "r": 2, "s": -3}, -1, True),
          ({"p": 3, "q": 3, "r": 2, "s": 1}, 4, False)]),
        ({"p": (3, 7), "q": (-1, 3), "r": (-4, -1), "s": (0, 2)},
         [({"p": 5, "r": -1, "s": 3}, -7, False),
          ({"p": -1, "q": 4, "r": 5, "s": -3}, -5, True),
          ({"q": 3, "r": -2}, -2, False)]),
        # ... and by the last splinter of the gap
        ({"p": (-1, 5), "q": (3, 8), "r": (-1, -1)},
         [({"p": 3, "q": -1, "r": 1}, 0, False),
          ({"p": 3, "q": 1, "r": 2}, -7, True)]),
        ({"p": (3, 7), "q": (2, 3), "r": (-3, -1), "s": (-1, -1)},
         [({"p": 2, "r": 5, "s": 1}, 0, True)]),
    ])
    def test_shadow_edges_match_enumeration(self, boxes, extra):
        box, cons = _cons(boxes, extra)
        assert is_feasible(box + cons) == _enumerate(boxes, extra)

    @settings(max_examples=100, deadline=None)
    @given(_boxed_system())
    def test_any_feasible_is_any_of_is_feasible(self, system):
        box, extra = _cons(*system)
        base, alts = box + extra[:1], [[c] for c in extra[1:]] + [[]]

        def run(decide):
            clear_feasibility_cache()
            before = feasibility_stats()
            verdict = decide()
            after = feasibility_stats()
            return verdict, {k: after[k] - before[k] for k in after}

        assert run(lambda: any_feasible(base, alts)) \
            == run(lambda: any(is_feasible(base + a) for a in alts))

    @pytest.mark.parametrize("name, cons, feasible, paths", [
        # no unit coefficient: the mod-hat change of variables
        ("mod_hat", rows(x * 3 + y * 5 == 1), True, {"mod_hat"}),
        # non-unit bounds on both sides, decided by the dark shadow
        ("dark", rows(x * 3 >= y * 2 + 1, x * 3 <= y * 2 + 5, y >= 0,
                      y <= 10), True, {"dark"}),
        # 3x == 2y + 1 as two inequalities: only splintering finds x = 1
        ("splinter", rows(x * 3 >= y * 2 + 1, x * 3 <= y * 2 + 1, y >= 0,
                          y <= 10), True, {"dark", "splinter"}),
        # Pugh's example: real solutions, no integer one
        ("pugh", rows(x * 11 + y * 13 >= 27, x * 11 + y * 13 <= 45,
                      x * 7 - y * 9 >= -10, x * 7 - y * 9 <= 4), False,
         {"dark", "splinter"}),
    ])
    def test_solver_paths(self, monkeypatch, name, cons, feasible, paths):
        from repro.polyhedral import omega

        seen = set()

        def spy(path, fn, when=lambda *a: True):
            def wrapped(*args):
                if when(*args):
                    seen.add(path)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(omega, "_mod_hat",
                            spy("mod_hat", omega._mod_hat))
        monkeypatch.setattr(omega, "_shadow", spy(
            "dark", omega._shadow, lambda *a: a[-1]))
        monkeypatch.setattr(omega, "_splinter",
                            spy("splinter", omega._splinter))
        clear_feasibility_cache()
        assert is_feasible(cons) is feasible
        assert paths <= seen

    def test_renamings_share_a_key(self):
        from repro.polyhedral import omega

        def system(u, v):
            u, v = Var(u), Var(v)
            return rows(u * 2 >= v, u <= v * 3 - 1)

        clear_feasibility_cache()
        # first appearance, not spelling, numbers the columns
        assert is_feasible(system("a", "b")) == is_feasible(system("z", "c"))
        assert len(omega._MEMO) == 1


class TestGiveUp:
    """A query past the work budget is UNKNOWN: truthy, counted, memoized,
    and never reported as ``True``."""

    def test_valve_answers_unknown(self, monkeypatch):
        from repro.polyhedral import omega

        monkeypatch.setattr(omega, "_BUDGET", 0)
        clear_feasibility_cache()
        system = rows(x >= y, x <= y * 2)
        before = feasibility_stats()
        assert is_feasible(system) is UNKNOWN
        assert is_feasible(system) is UNKNOWN  # memoized
        after = feasibility_stats()
        assert after["gave_up"] == before["gave_up"] + 1
        assert after["memo_hits"] == before["memo_hits"] + 1
        # a may-answer reads it as feasible
        assert any_feasible(system, [[]])
        clear_feasibility_cache()

    def test_shadow_is_charged_as_it_is_built(self, monkeypatch):
        # x has 10 lower and 10 upper bounds, but its first pair (x + y
        # >= 5, x + y <= 3) is already contradictory: a budget below the
        # 100 combinations still decides the system, without a give-up
        from repro.polyhedral import omega

        bands = [x - y + k >= 0 for k in range(1, 10)] \
            + [y - x + k >= 0 for k in range(1, 10)]
        system = rows(x + y >= 5, x + y <= 3, *bands)
        monkeypatch.setattr(omega, "_BUDGET", 50)
        clear_feasibility_cache()
        before = feasibility_stats()["gave_up"]
        assert is_feasible(system) is False
        assert feasibility_stats()["gave_up"] == before
        clear_feasibility_cache()

    @pytest.mark.parametrize("prim", ["parallelize", "vectorize"])
    def test_split_then_merge_is_refused_in_bounded_time(self, prim):
        # split(factor=3) then merge leaves nested // and % indices whose
        # shadows and splinters once grew without bound: the queries are
        # given up on, and the refusal is right (y[3, 0] is written every
        # iteration)
        import repro as ft
        from repro.errors import InvalidSchedule
        from repro.ir.parser import parse_program
        from repro.schedule import Schedule

        s = Schedule(parse_program(SPLIT_THEN_MERGE))
        s.split(s._preorder(s.func)[5], factor=3)
        sids = s._preorder(s.func)
        s.merge(sids[5], sids[6])
        ft.clear_compile_caches()
        before = feasibility_stats()["gave_up"]
        t0 = time.perf_counter()
        with pytest.raises(InvalidSchedule):
            getattr(s, prim)(s.loops()[0].sid)
        assert time.perf_counter() - t0 < 5
        assert feasibility_stats()["gave_up"] > before


SPLIT_THEN_MERGE = """\
func fuzz(a, b) -> y {
  @input a: f32[5, 4] @cpu {
    @input b: f32[5] @cpu {
      @output y: f32[5, 4] @cpu {
        y[1, 0] += a[3, 0] * b[0] * (a[1, 2] * 0.5 + b[4])
        for i0_8 in 0:5 {
          y[i0_8 % 5, i0_8 % 4] = a[4, (i0_8 + 1) % 4] * 0.5 + \
(a[(i0_8 + 3) % 5, (i0_8 + 3) % 4] - a[(i0_8 + 1) % 5, i0_8 % 4])
          y[3, 0] = (b[(i0_8 + 2) % 5] * 0.5 + a[0, (i0_8 + 2) % 4]) * 0.5 \
+ (a[(i0_8 + 2) % 5, 0] * 0.5 + a[(i0_8 + 3) % 5, 0])
        }
      }
    }
  }
}
"""


class TestAffineBuilder:
    """``Linearizer``: IR expressions and conditions to linear forms and
    rows, with an existential quotient per ``//`` and ``%``."""

    def test_mod_linearised_exactly(self):
        i = Var("i")
        lin = _linearizer()
        a = lin.linear((i + 1) % 3)
        assert len(lin.rows) == 2  # the bounds of one quotient
        # (i+1) % 3 == 0 and i == 1 must be infeasible (1+1=2 mod 3)
        assert not is_feasible(lin.rows + [relation("=", a, ({}, 0))]
                               + rows(i == 1))
        # i == 2 -> (i+1)%3 == 0 feasible
        assert is_feasible(lin.rows + [relation("=", a, ({}, 0))]
                           + rows(i == 2))

    def test_floordiv(self):
        i = Var("i")
        lin = _linearizer()
        a = lin.linear(i // 4)
        assert is_feasible(lin.rows + rows(i == 7)
                           + [relation("=", a, ({}, 1))])
        assert not is_feasible(lin.rows + rows(i == 7)
                               + [relation("=", a, ({}, 2))])

    def test_non_affine_reported(self):
        i, j = Var("i"), Var("j")
        lin = _linearizer()
        assert lin.try_linear(i * j) is None
        load = Load("a", [i], DataType.INT32)
        with pytest.raises(NonAffine):
            lin.linear(load + 1)
        assert lin.try_linear(i % 3 + i * j) is None
        assert lin.rows == []  # a failed try leaves no quotient rows

    def test_condition_disjunction(self):
        i = Var("i")
        alts = _linearizer().condition((i < 3).logical_or(i > 7))
        assert len(alts) == 2

    def test_condition_negation(self):
        i = Var("i")
        lin = _linearizer()
        alts = lin.condition(i < 3, negate=True)
        assert len(alts) == 1
        # i >= 3: i = 2 infeasible
        assert not is_feasible(alts[0] + rows(i == 2))
