"""Tests for the Presburger engine: affine algebra, the Omega test, and
set/map operations."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import DataType, Load, Var, wrap
from repro.polyhedral import (Affine, AffineBuilder, BasicMap, BasicSet,
                              LinCon, NonAffine, any_feasible,
                              clear_feasibility_cache, eq_constraints,
                              feasibility_stats, is_feasible,
                              lex_gt_constraints, try_affine)

x, y, z, N = (Affine.var(v) for v in "xyzN")


class TestAffine:

    def test_algebra(self):
        e = x * 2 + y - 3
        assert e.coeff("x") == 2
        assert e.coeff("y") == 1
        assert e.const == -3

    def test_cancellation(self):
        assert (x - x).is_constant()

    def test_substitute(self):
        # unit-equality substitution: x = y + 1 turns 2x + y into 3y + 2
        e = x * 2 + y
        assert is_feasible([LinCon.eq(x, y + 1), LinCon.eq(e, y * 3 + 2)])
        assert not is_feasible([LinCon.eq(x, y + 1),
                                LinCon.ge(e, y * 3 + 3)])

    def test_rename(self):
        assert (x + y).rename({"x": "w"}).coeff("w") == 1

    def test_content(self):
        # the coefficient gcd of 4x + 6y is 2: only even values are reached
        assert is_feasible([LinCon.eq(x * 4 + y * 6, Affine.constant(2))])
        assert not is_feasible([LinCon.eq(x * 4 + y * 6,
                                          Affine.constant(1))])


class TestLinCon:
    """Translation into rows: gcd tightening, the equality gcd reject and
    dropping trivially-true constraints, seen through the verdicts and
    the ``omega`` counters."""

    def test_normalize_tightens(self):
        # 2x - 1 >= 0 tightens to x - 1 >= 0 (x >= 1), which together
        # with x <= 0 is an interval clash — no elimination needed
        before = feasibility_stats()
        assert not is_feasible([LinCon.ge0(x * 2 - 1), LinCon.le(x, 0)])
        after = feasibility_stats()
        assert after["interval_rejects"] == before["interval_rejects"] + 1
        assert after["full_solves"] == before["full_solves"]

    def test_normalize_eq_gcd_infeasible(self):
        before = feasibility_stats()["gcd_rejects"]
        assert not is_feasible([LinCon.ge(y, 0), LinCon.eq0(x * 2 - 1)])
        assert feasibility_stats()["gcd_rejects"] == before + 1

    def test_trivial_true_dropped(self):
        before = feasibility_stats()
        assert is_feasible([LinCon.ge0(Affine.constant(5))])
        assert feasibility_stats() == before  # nothing left to decide
        clear_feasibility_cache()
        cons = [LinCon.ge(x, y), LinCon.le(x, y * 2)]
        assert is_feasible(cons)
        before = feasibility_stats()
        assert is_feasible(cons + [LinCon.ge0(Affine.constant(5))])
        assert feasibility_stats()["memo_hits"] == before["memo_hits"] + 1


class TestOmega:
    """Hand-checked feasibility cases including dark-shadow territory."""

    def test_simple_box(self):
        assert is_feasible([LinCon.ge(x, 0), LinCon.le(x, 10)])
        assert not is_feasible([LinCon.ge(x, 1), LinCon.le(x, 0)])

    def test_equality_chain(self):
        assert not is_feasible([
            LinCon.ge(x, 0), LinCon.lt(x, N),
            LinCon.eq(x, y + 1), LinCon.ge(y, N - 1)
        ])

    def test_parity(self):
        assert not is_feasible([LinCon.eq(x * 2, y * 2 + 1)])
        assert is_feasible([LinCon.eq(x * 2, y * 3 + 1)])

    def test_diophantine_gcd(self):
        assert is_feasible([LinCon.eq(x * 3 + y * 5, Affine.constant(1))])
        assert not is_feasible([LinCon.eq(x * 6 + y * 10,
                                          Affine.constant(1))])

    def test_integer_gap(self):
        # 2 <= 4x <= 3 has no integer x
        assert not is_feasible([LinCon.ge(x * 4, 2), LinCon.le(x * 4, 3)])
        # 0 <= 2x <= 1 has x = 0
        assert is_feasible([LinCon.ge(x * 2, 0), LinCon.le(x * 2, 1)])

    def test_symbolic_parameters(self):
        assert is_feasible([LinCon.ge(x, N), LinCon.le(x, N)])
        assert not is_feasible([LinCon.le(x, N), LinCon.ge(x, N + 1)])

    def test_three_vars(self):
        # x + y + z = 10, 0<=x,y,z<=3 -> max sum 9 < 10
        cons = [LinCon.eq(x + y + z, Affine.constant(10))]
        for v in (x, y, z):
            cons += [LinCon.ge(v, 0), LinCon.le(v, 3)]
        assert not is_feasible(cons)
        cons[0] = LinCon.eq(x + y + z, Affine.constant(9))
        assert is_feasible(cons)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 5),
           st.integers(1, 5))
    def test_matches_bruteforce_2d(self, lo1, lo2, w1, w2):
        """Feasibility of a random 2-D system agrees with brute force."""
        cons = [
            LinCon.ge(x, lo1), LinCon.le(x, lo1 + w1),
            LinCon.ge(y, lo2), LinCon.le(y, lo2 + w2),
            LinCon.ge(x * 2 + y * 3, 0),
            LinCon.le(x + y, lo1 + lo2 + w1),
        ]
        brute = any(
            2 * a + 3 * b >= 0 and a + b <= lo1 + lo2 + w1
            for a in range(lo1, lo1 + w1 + 1)
            for b in range(lo2, lo2 + w2 + 1))
        assert is_feasible(cons) == brute

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7), st.integers(2, 7), st.integers(-20, 20))
    def test_diophantine_matches_gcd(self, a, b, c):
        import math

        cons = [LinCon.eq(x * a + y * b, Affine.constant(c))]
        assert is_feasible(cons) == (c % math.gcd(a, b) == 0)


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
    box = [c for v, (lo, hi) in boxes.items()
           for c in (LinCon.ge(Affine.var(v), lo),
                     LinCon.le(Affine.var(v), hi))]
    return box, [(LinCon.eq0 if eq else LinCon.ge0)(Affine(co, k))
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
        ("mod_hat", [LinCon.eq(x * 3 + y * 5, Affine.constant(1))], True,
         {"mod_hat"}),
        # non-unit bounds on both sides, decided by the dark shadow
        ("dark", [LinCon.ge(x * 3, y * 2 + 1), LinCon.le(x * 3, y * 2 + 5),
                  LinCon.ge(y, 0), LinCon.le(y, 10)], True, {"dark"}),
        # 3x == 2y + 1 as two inequalities: only splintering finds x = 1
        ("splinter", [LinCon.ge(x * 3, y * 2 + 1),
                      LinCon.le(x * 3, y * 2 + 1),
                      LinCon.ge(y, 0), LinCon.le(y, 10)], True,
         {"dark", "splinter"}),
        # Pugh's example: real solutions, no integer one
        ("pugh", [LinCon.ge(x * 11 + y * 13, 27),
                  LinCon.le(x * 11 + y * 13, 45),
                  LinCon.ge(x * 7 - y * 9, -10),
                  LinCon.le(x * 7 - y * 9, 4)], False,
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
            u, v = Affine.var(u), Affine.var(v)
            return [LinCon.ge(u * 2, v), LinCon.le(u, v * 3 - 1)]

        clear_feasibility_cache()
        # first appearance, not spelling, numbers the columns
        assert is_feasible(system("a", "b")) == is_feasible(system("z", "c"))
        assert len(omega._MEMO) == 1


class TestSetsMaps:

    def test_empty_set(self):
        s = BasicSet(["i"], [LinCon.ge(x.rename({"x": "i"}), 0),
                             LinCon.le(Affine.var("i"), -1)])
        assert s.is_empty()

    def test_intersect(self):
        a = BasicSet(["i"], [LinCon.ge(Affine.var("i"), 0)])
        b = BasicSet(["i"], [LinCon.le(Affine.var("i"), -1)])
        assert not a.is_empty()
        assert a.intersect(b).is_empty()

    def test_map_compose(self):
        # f(i) = i + 1 on 0<=i<10 ; g(j) = 2*j ; g∘f (i) = 2i + 2
        f = BasicMap.from_affine(["i"], [Affine.var("i") + 1],
                                 [LinCon.ge(Affine.var("i"), 0),
                                  LinCon.lt(Affine.var("i"), 10)],
                                 out_prefix="f")
        g = BasicMap.from_affine(["j"], [Affine.var("j") * 2],
                                 out_prefix="g")
        gf = g.compose(f)
        # check: exists i with out = 2i+2 = 5? no (odd)
        odd = gf.with_constraints([LinCon.eq(Affine.var("g0"),
                                             Affine.constant(5))])
        assert odd.is_empty()
        ok = gf.with_constraints([LinCon.eq(Affine.var("g0"),
                                            Affine.constant(6))])
        assert not ok.is_empty()

    def test_map_reverse_domain_range(self):
        f = BasicMap.from_affine(["i"], [Affine.var("i") + 1],
                                 [LinCon.ge(Affine.var("i"), 3)],
                                 out_prefix="o")
        dom = f.domain().with_constraints(
            [LinCon.le(Affine.var("i"), 2)])
        assert dom.is_empty()
        rng = f.range().with_constraints(
            [LinCon.le(Affine.var("o0"), 3)])
        assert rng.is_empty()  # outputs are >= 4

    def test_lex_gt(self):
        alts = lex_gt_constraints(["a0", "a1"], ["b0", "b1"])
        assert len(alts) == 2
        # (1, 0) >lex (0, 5): satisfied by first alternative
        bind = [LinCon.eq(Affine.var("a0"), Affine.constant(1)),
                LinCon.eq(Affine.var("a1"), Affine.constant(0)),
                LinCon.eq(Affine.var("b0"), Affine.constant(0)),
                LinCon.eq(Affine.var("b1"), Affine.constant(5))]
        assert any(is_feasible(bind + alt) for alt in alts)
        # (0, 0) >lex (0, 0): none
        bind_eq = [LinCon.eq(Affine.var(v), Affine.constant(0))
                   for v in ("a0", "a1", "b0", "b1")]
        assert not any(is_feasible(bind_eq + alt) for alt in alts)

    def test_eq_constraints(self):
        cons = eq_constraints(["a"], ["b"])
        assert not is_feasible(cons + [
            LinCon.eq(Affine.var("a"), Affine.constant(0)),
            LinCon.eq(Affine.var("b"), Affine.constant(1))
        ])


class TestAffineBuilder:

    def test_mod_linearised_exactly(self):
        i = Var("i")
        res = try_affine((i + 1) % 3)
        assert res is not None
        a, cons, exists = res
        assert len(exists) == 1
        # (i+1) % 3 == 0 and i == 1 must be infeasible (1+1=2 mod 3)
        sys = cons + [LinCon.eq0(a),
                      LinCon.eq(Affine.var("i"), Affine.constant(1))]
        assert not is_feasible(sys)
        # i == 2 -> (i+1)%3 == 0 feasible
        sys = cons + [LinCon.eq0(a),
                      LinCon.eq(Affine.var("i"), Affine.constant(2))]
        assert is_feasible(sys)

    def test_floordiv(self):
        i = Var("i")
        res = try_affine(i // 4)
        a, cons, _ = res
        sys = cons + [LinCon.eq(Affine.var("i"), Affine.constant(7)),
                      LinCon.eq(a, Affine.constant(1))]
        assert is_feasible(sys)
        sys = cons + [LinCon.eq(Affine.var("i"), Affine.constant(7)),
                      LinCon.eq(a, Affine.constant(2))]
        assert not is_feasible(sys)

    def test_non_affine_reported(self):
        i, j = Var("i"), Var("j")
        assert try_affine(i * j) is None
        load = Load("a", [i], DataType.INT32)
        assert try_affine(load + 1) is None

    def test_condition_disjunction(self):
        i = Var("i")
        b = AffineBuilder()
        alts = b.build_condition((i < 3).logical_or(i > 7))
        assert len(alts) == 2

    def test_condition_negation(self):
        i = Var("i")
        b = AffineBuilder()
        alts = b.build_condition(i < 3, negate=True)
        assert len(alts) == 1
        # i >= 3: i = 2 infeasible
        assert not is_feasible(alts[0] + [
            LinCon.eq(Affine.var("i"), Affine.constant(2))
        ])
