"""Dependence systems are composed as integer rows, exactly as before.

The analyser builds each access's half of a system once (``deps._Local``)
and composes a pair's system from two halves by renaming columns. The
``Affine`` / ``LinCon`` system builder it replaced is kept below, in this
file only and with its own dict-based ``Affine`` / ``LinCon``, as the
reference of a differential oracle: for every
``_dep_exists_uncached`` call made while compiling, differentiating,
searching and randomly scheduling, the composed rows must equal the
translation of the reference system item for item — the same sparse rows,
the same dense rows, in the same order, over the same columns — so that
the whole system's Omega memo keys are unchanged. A query first tries
subsets of those rows (the stages of ``deps._STAGES``); each one's rows
must be rows of the whole system. The verdicts must agree too, decided
without any memo.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as ft
from repro import state
from repro.ad import grad
from repro.analysis import deps
from repro.analysis.deps import DepAnalyzer, DirItem
from repro.autosched import auto_schedule
from repro.autosched.search import StructuredTuner
from repro.errors import InvalidSchedule
from repro.ir import (DataType, For, Func, Load, Store, StmtSeq, VarDef,
                      collect_stmts)
from repro.ir import expr as E
from repro.pipeline import compile_ir
from repro.polyhedral import NonAffine, omega
from repro.schedule import Schedule
from repro.schedule.common import only_stmt_of
from repro.workloads import ALL

from .test_property_fuzz import programs

GRAD_REQUIRES = {"subdivnet": ["e", "w"], "longformer": ["q", "k", "v"],
                 "softras": ["verts"]}
#: tune_search's programs, sizes and call arguments
TINY = {
    "subdivnet": dict(n_faces=48, in_feats=4, out_feats=4),
    "longformer": dict(seq_len=48, feat_len=8, w=4),
    "softras": dict(n_faces=6, image_size=10),
    "gat": dict(n_nodes=48, avg_degree=4, feats=4, out_feats=4),
}
ARRAY_PARAMS = {
    "subdivnet": ("adj", "e", "w"),
    "longformer": ("q", "k", "v"),
    "softras": ("verts", "px"),
    "gat": ("indptr", "indices", "h", "wmat", "att_s", "att_d"),
}


# ---------------------------------------------------------------------------
# the reference: Affine arithmetic, LinCon systems
# ---------------------------------------------------------------------------


class Affine:
    """An integer affine expression ``sum(coeffs[v] * v) + const``."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs=None, const=0):
        self.coeffs = {v: c for v, c in (coeffs or {}).items() if c}
        self.const = const

    @staticmethod
    def var(name):
        return Affine({name: 1})

    @staticmethod
    def constant(c):
        return Affine({}, c)

    def __add__(self, other):
        other = other if isinstance(other, Affine) else Affine.constant(other)
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            coeffs[v] = coeffs.get(v, 0) + c
        return Affine(coeffs, self.const + other.const)

    def __sub__(self, other):
        other = other if isinstance(other, Affine) else Affine.constant(other)
        return self + other * -1

    def __mul__(self, k):
        return Affine({v: c * k for v, c in self.coeffs.items()},
                      self.const * k)


class LinCon:
    """``expr >= 0`` or ``expr == 0``."""

    __slots__ = ("expr", "is_eq")

    def __init__(self, expr, is_eq=False):
        self.expr = expr
        self.is_eq = is_eq

    @staticmethod
    def ge0(expr):
        return LinCon(expr)

    @staticmethod
    def ge(a, b):
        return LinCon(a - b)

    @staticmethod
    def le(a, b):
        return LinCon(b - a)

    @staticmethod
    def gt(a, b):
        return LinCon(a - b - 1)

    @staticmethod
    def lt(a, b):
        return LinCon(b - a - 1)

    @staticmethod
    def eq(a, b):
        return LinCon(a - b, True)

    def row(self):
        """The solver's row ``(is_eq, const, {var: coeff})``."""
        return self.is_eq, self.expr.const, self.expr.coeffs


_fresh = itertools.count()


def fresh_var(prefix):
    return f"${prefix}{next(_fresh)}"


def _translate(cons, cols):
    """The sparse rows of ``cons`` over ``cols``, as the solver tightens
    them, or None when one is trivially false."""
    out = []
    for con in cons:
        if not omega.append_row(out, cols, *con.row()):
            return None
    return out


class _AffineBuilder:
    """IR -> ``Affine`` by ``Affine`` arithmetic, as the analyser had it."""

    def __init__(self, rename):
        self.rename = rename
        self.extra_cons = []

    def build(self, e):
        if isinstance(e, E.IntConst):
            return Affine.constant(e.val)
        if isinstance(e, E.BoolConst):
            return Affine.constant(int(e.val))
        if isinstance(e, E.Var):
            return Affine.var(self.rename.get(e.name, e.name))
        if isinstance(e, E.Add):
            return self.build(e.lhs) + self.build(e.rhs)
        if isinstance(e, E.Sub):
            return self.build(e.lhs) - self.build(e.rhs)
        if isinstance(e, E.Mul):
            if isinstance(e.lhs, E.IntConst):
                return self.build(e.rhs) * e.lhs.val
            if isinstance(e.rhs, E.IntConst):
                return self.build(e.lhs) * e.rhs.val
            raise NonAffine(e)
        if isinstance(e, (E.FloorDiv, E.Mod)):
            if not isinstance(e.rhs, E.IntConst) or e.rhs.val <= 0:
                raise NonAffine(e)
            d = e.rhs.val
            a = self.build(e.lhs)
            qa = Affine.var(fresh_var("q"))
            self.extra_cons.append(LinCon.ge0(a - qa * d))
            self.extra_cons.append(LinCon.ge0(qa * d - a + (d - 1)))
            return qa if isinstance(e, E.FloorDiv) else a - qa * d
        raise NonAffine(e)

    def build_condition(self, e, negate=False):
        if isinstance(e, E.LNot):
            return self.build_condition(e.operand, not negate)
        if isinstance(e, E.LAnd) and not negate or \
                isinstance(e, E.LOr) and negate:
            left = self.build_condition(e.lhs, negate)
            right = self.build_condition(e.rhs, negate)
            return [l + r for l in left for r in right]
        if isinstance(e, E.LOr) and not negate or \
                isinstance(e, E.LAnd) and negate:
            return (self.build_condition(e.lhs, negate) +
                    self.build_condition(e.rhs, negate))
        if isinstance(e, E.CmpOp):
            a, b = self.build(e.lhs), self.build(e.rhs)
            cls = type(e)
            if negate:
                cls = {E.LT: E.GE, E.LE: E.GT, E.GT: E.LE, E.GE: E.LT,
                       E.EQ: E.NE, E.NE: E.EQ}[cls]
            if cls is E.NE:
                return [[LinCon.lt(a, b)], [LinCon.gt(a, b)]]
            return [[{E.LT: LinCon.lt, E.LE: LinCon.le, E.GT: LinCon.gt,
                      E.GE: LinCon.ge, E.EQ: LinCon.eq}[cls](a, b)]]
        if isinstance(e, E.BoolConst):
            if e.val != negate:
                return [[]]
            return [[LinCon.ge0(Affine.constant(-1))]]
        raise NonAffine(e)


def _affine_of(expr, rename, out_cons):
    builder = _AffineBuilder(rename)
    try:
        a = builder.build(expr)
    except NonAffine:
        return None
    out_cons.extend(builder.extra_cons)
    return a


def _domain(acc, rename, out):
    for loop in acc.loops:
        iv = Affine.var(rename[loop.iter_var])
        b = _affine_of(loop.begin, rename, out)
        e = _affine_of(loop.end, rename, out)
        if b is not None:
            out.append(LinCon.ge(iv, b))
        if e is not None:
            out.append(LinCon.lt(iv, e))
    for cond, polarity in acc.conds:
        builder = _AffineBuilder(rename)
        try:
            alts = builder.build_condition(cond, not polarity)
        except NonAffine:
            continue
        if len(alts) == 1:
            out.extend(builder.extra_cons)
            out.extend(alts[0])


_REL_BUILDERS = {"<": LinCon.lt, "<=": LinCon.le, "=": LinCon.eq,
                 ">=": LinCon.ge, ">": LinCon.gt}


def _reference(earlier, later, direction):
    """``("early", verdict)`` when the query is decided before any system
    is built, else ``("system", base, alternatives)`` as ``LinCon``s."""
    e_ren = {l.iter_var: f"$s{k}" for k, l in enumerate(earlier.loops)}
    l_ren = {l.iter_var: f"$t{k}" for k, l in enumerate(later.loops)}
    base = []
    _domain(earlier, e_ren, base)
    _domain(later, l_ren, base)
    if earlier.indices is not None and later.indices is not None:
        if len(earlier.indices) != len(later.indices):
            return "early", True
        for ie, il in zip(earlier.indices, later.indices):
            ae = _affine_of(ie, e_ren, base)
            al = _affine_of(il, l_ren, base)
            if ae is None or al is None:
                continue
            base.append(LinCon.eq(ae, al))
    n_common = 0
    for le, ll in zip(earlier.loops, later.loops):
        if le.sid != ll.sid:
            break
        n_common += 1
    for k in range(min(earlier.def_depth, later.def_depth, n_common)):
        base.append(LinCon.eq(Affine.var(f"$s{k}"), Affine.var(f"$t{k}")))
    sid2e = {l.sid: f"$s{k}" for k, l in enumerate(earlier.loops)}
    sid2l = {l.sid: f"$t{k}" for k, l in enumerate(later.loops)}
    e_begin = {l.sid: l.begin for l in earlier.loops}
    l_begin = {l.sid: l.begin for l in later.loops}
    alternates = [[]]
    for item in direction:
        if item.earlier_loop not in sid2e or item.later_loop not in sid2l:
            return "early", False
        ev = Affine.var(sid2e[item.earlier_loop])
        lv = Affine.var(sid2l[item.later_loop])
        if item.earlier_loop != item.later_loop:
            eb = _affine_of(e_begin[item.earlier_loop], e_ren, base)
            lb = _affine_of(l_begin[item.later_loop], l_ren, base)
            if eb is None or lb is None:
                return "early", True
            ev = ev - eb
            lv = lv - lb
        if item.rel == "!=":
            alternates = [alt + [c] for alt in alternates
                          for c in (LinCon.lt(lv, ev), LinCon.gt(lv, ev))]
        else:
            con = _REL_BUILDERS[item.rel](lv, ev)
            alternates = [alt + [con] for alt in alternates]
    order_alts = []
    for k in range(n_common):
        cons = [LinCon.eq(Affine.var(f"$s{j}"), Affine.var(f"$t{j}"))
                for j in range(k)]
        cons.append(LinCon.lt(Affine.var(f"$s{k}"), Affine.var(f"$t{k}")))
        order_alts.append(cons)
    if earlier.order < later.order:
        order_alts.append([LinCon.eq(Affine.var(f"$s{j}"),
                                     Affine.var(f"$t{j}"))
                           for j in range(n_common)])
    return "system", base, [d + o for d in alternates for o in order_alts]


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def _decide_without_memo(base, alternatives):
    old, state.memos_on = state.memos_on, False
    try:
        return omega.any_feasible([c.row() for c in base],
                                  [[c.row() for c in alt]
                                   for alt in alternatives])
    finally:
        state.memos_on = old


def _keyed(rows, cols):
    """Sparse rows over ``cols`` as rows over the pair keys ``cols``
    numbers."""
    key = {c: k for k, c in cols.items()}
    return [(is_eq, const, tuple((key[c], v) for c, v in terms))
            for is_eq, const, terms in rows]


def _key_rows(system):
    """A composed system ``(base, cols, alternatives)`` as rows over pair
    keys: the base's, and each alternative's, None where trivially
    false."""
    base, cols, alternatives = system

    def alternative(fixed):
        out = []
        for f in fixed:
            if f is None:
                return None
            if type(f) is list:  # placed over the base's columns
                out += _keyed(f, cols)
                continue
            own, rows = {}, []
            if not omega.append_row(rows, own, *f):
                return None
            out += _keyed(rows, own)
        return out

    return (None if base is None else _keyed(base, cols),
            [alternative(fixed) for fixed in alternatives])


class _Oracle:
    """Checks every uncached dependence query against the reference.

    A query composes its system in stages (``deps._STAGES``), each with
    more of the domain rows. Whenever the whole system is composed it
    must equal the reference item for item; the oracle composes it
    itself when the analyser stopped at an earlier stage, and every
    earlier stage's rows must be a subset of it, compared through the
    pair keys.
    """

    def __init__(self, monkeypatch):
        self.calls = 0
        self.systems = 0
        #: queries an earlier stage than the whole system refuted
        self.refuted = 0
        stages = []
        real_rows = deps.feasible_rows
        self.compose = real_compose = DepAnalyzer._compose
        real_uncached = DepAnalyzer._dep_exists_uncached

        def spy_compose(earlier, later, direction, halves, select):
            system = real_compose(earlier, later, direction, halves, select)
            stages.append([tuple(select(h) for h in halves), system, None])
            return system

        def spy_rows(base, ncols, alternatives):
            alternatives = list(alternatives)
            stages[-1][2] = (base, ncols, alternatives)
            return real_rows(base, ncols, iter(alternatives))

        def checked(analyzer, earlier, later, direction):
            stages.clear()
            verdict = real_uncached(analyzer, earlier, later, direction)
            self.check(earlier, later, direction, verdict, stages)
            return verdict

        monkeypatch.setattr(DepAnalyzer, "_compose",
                            staticmethod(spy_compose))
        monkeypatch.setattr(deps, "feasible_rows", spy_rows)
        monkeypatch.setattr(DepAnalyzer, "_dep_exists_uncached", checked)

    def check(self, earlier, later, direction, verdict, stages):
        self.calls += 1
        ref = _reference(earlier, later, direction)
        what = (earlier, later, direction)
        if ref[0] == "early":
            # decided by the first composition, before any solve
            assert [captured for _d, _s, captured in stages] == [None], what
            assert verdict == ref[1], what
            return
        self.systems += 1
        _, base, alternatives = ref
        halves = deps._local(earlier), deps._local(later)
        whole = self.compose(earlier, later, direction, halves,
                             deps._STAGES[-1])
        whole_base, cols, whole_alts = whole
        self.check_whole(what, base, alternatives, (
            whole_base, len(cols),
            [deps._alternative(alt, cols) for alt in whole_alts]))
        domains = tuple(h.domain for h in halves)
        for selected, system, captured in stages:
            assert captured is not None, what
            if selected == domains:
                self.check_whole(what, base, alternatives, captured)
            else:
                self.check_subset(what, system, whole)
        if stages[-1][0] != domains:
            assert verdict is False, what
            self.refuted += 1
        assert verdict == _decide_without_memo(base, alternatives), what

    @staticmethod
    def check_whole(what, base, alternatives, captured):
        """The solver's arguments of a whole system equal the reference
        system's translation item for item."""
        got_base, got_ncols, got_alts = captured
        cols = {}
        ref_base = _translate(base, cols)
        ref_alts = []
        for alt in alternatives:
            alt_cols = dict(cols)
            rows = _translate(alt, alt_cols)
            ref_alts.append((rows, len(alt_cols)) if rows is not None
                            else (None, 0))
        if ref_base is None:
            # every alternative is a gcd reject; its rows are never read
            assert got_base is None, what
            assert len(got_alts) == len(ref_alts), what
        else:
            assert got_base == ref_base, what
            assert got_ncols == len(cols), what
            width = len(cols) + 1
            assert omega._dense(got_base, width) == \
                omega._dense(ref_base, width), what
            assert got_alts == ref_alts, what
            for (rows, n), (ref_rows, ref_n) in zip(got_alts, ref_alts):
                if rows is not None:
                    assert omega._dense(rows, n + 1) == \
                        omega._dense(ref_rows, ref_n + 1), what

    @staticmethod
    def check_subset(what, system, whole):
        """Every row of an earlier stage's alternative is a row of the
        whole system's same alternative, over the same pair keys."""
        base, alts = _key_rows(system)
        whole_base, whole_alts = _key_rows(whole)
        assert len(alts) == len(whole_alts), what
        if base is None:  # a trivially false row is the whole's too
            assert whole_base is None, what
        if whole_base is None:  # composition stopped at the false row
            return
        for rows, whole_rows in zip(alts, whole_alts):
            assert (rows is None) == (whole_rows is None), what
            if rows is not None:
                assert set(base + rows) <= set(whole_base + whole_rows), what


@pytest.fixture
def oracle(monkeypatch):
    ft.clear_compile_caches()
    yield _Oracle(monkeypatch)
    ft.clear_compile_caches()


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ALL))
def test_compiling_a_workload(name, oracle):
    func = ALL[name].make_program().func
    for optimize in (False, True):
        compile_ir(func, backend="c", optimize=optimize)
    assert oracle.systems > 0


@pytest.mark.parametrize("name", sorted(GRAD_REQUIRES))
def test_grad_of_a_workload(name, oracle):
    gp = grad(ALL[name].make_program(), requires=GRAD_REQUIRES[name])
    for f in (gp.fwd, gp.bwd):
        compile_ir(f, backend="c")
    assert oracle.systems > 0


def tune_search_sweep(monkeypatch):
    """One compile-only sweep of tune_search's four searches; returns
    each program's ``TuneResult``."""
    monkeypatch.setenv("REPRO_TUNE_FAKE_MEASURE", "1")
    results = {}
    for name in sorted(ALL):
        mod = ALL[name]
        data = mod.make_data(seed=1, **TINY[name])
        args = tuple(data[p] for p in ARRAY_PARAMS[name])
        scalars = {"w": data["w"]} if name == "longformer" else {}
        results[name] = StructuredTuner(
            mod.make_program(), make_inputs=lambda: args,
            backend="pycode", rounds=8, batch=4, seed=0,
            scalars=scalars).tune()
    return results


def test_a_tune_search_sweep(oracle, monkeypatch):
    tune_search_sweep(monkeypatch)
    assert oracle.systems > 100
    # most pairs are refuted before their whole system is composed
    assert oracle.refuted * 3 > oracle.calls * 2


@pytest.mark.parametrize("name", sorted(ALL))
def test_direction_queries_on_a_scheduled_workload(name, oracle):
    _all_verdicts(name)
    assert oracle.systems > 0


def test_cross_loop_queries_with_quotient_begins(oracle):
    # both inner loops begin at a quotient, and two direction items use
    # the same begins: each use must get existentials of its own
    k, i, j = E.Var("k"), E.Var("i"), E.Var("j")
    body = For("k", 0, 4, StmtSeq([
        For("i", k // 2, 8, Store("t", [i], E.FloatConst(1.0))),
        For("j", (k + 1) // 2, 8,
            Store("y", [j], Load("t", [j % 8], DataType.FLOAT32))),
    ]))
    body = VarDef("t", [8], "f32", "cache", "cpu", body)
    func = Func("f", [], ["y"], VarDef("y", [8], "f32", "output", "cpu",
                                       body))
    analyzer = deps.analyze(func)
    outer, li, lj = collect_stmts(func, lambda s: isinstance(s, For))
    for rels in (("<",), ("=",), ("!=",), ("<=", ">="), ("=", "!=")):
        analyzer.find([DirItem.same_loop(outer.sid, "=")] +
                      [DirItem.cross_loop(li.sid, lj.sid, r) for r in rels])
    assert oracle.systems >= 5


def _random_schedule(func, rnd):
    s = Schedule(func)
    for _step in range(4):
        loops = s.loops()
        if not loops:
            break
        loop = rnd.choice(loops)
        move = rnd.choice(["split", "reorder", "fuse", "parallelize",
                           "vectorize", "fission", "merge"])
        try:
            if move == "split":
                s.split(loop.sid, factor=rnd.choice([2, 3]))
            elif move in ("reorder", "merge"):
                inner = only_stmt_of(s.find(loop.sid))
                if isinstance(inner, For):
                    if move == "reorder":
                        s.reorder([inner.sid, loop.sid])
                    else:
                        s.merge(loop.sid, inner.sid)
            elif move == "fuse":
                other = rnd.choice(loops)
                if other.sid != loop.sid:
                    s.fuse(loop.sid, other.sid)
            elif move == "parallelize":
                s.parallelize(loop.sid, "openmp")
            elif move == "vectorize":
                s.vectorize(loop.sid)
            else:
                body = s.find(loop.sid).body
                kids = body.stmts if isinstance(body, StmtSeq) else []
                if len(kids) >= 2:
                    s.fission(loop.sid, after=kids[0].sid)
        except InvalidSchedule:
            continue
    return s.func


def test_random_schedules_of_generated_programs():
    systems = []

    # drawn at random: at 60 examples a quarter of runs checked fewer
    # than 60 systems
    @settings(max_examples=200, deadline=None)
    @given(programs(), st.randoms(use_true_random=False))
    def check(func, rnd):
        ft.clear_compile_caches()
        with pytest.MonkeyPatch.context() as m:
            oracle = _Oracle(m)
            _random_schedule(func, rnd)
        systems.append(oracle.systems)

    check()
    assert sum(systems) > 60


# ---------------------------------------------------------------------------
# the access-system memo
# ---------------------------------------------------------------------------


def _all_verdicts(name):
    """Every loop-carried and loop-independent query on a scheduled
    workload, as comparable tuples."""
    func = auto_schedule(ALL[name].make_program(), backend="pycode")
    analyzer = deps.analyze(func)
    loops = collect_stmts(func, lambda s: isinstance(s, For))
    out = []
    for loop in loops:
        for rel in ("<", "=", "!="):
            found = analyzer.find([DirItem.same_loop(loop.sid, rel)])
            out.append(sorted((d.kind, d.tensor, d.earlier.order,
                               d.later.order) for d in found))
    for a, b in zip(loops, loops[1:]):
        found = analyzer.find([DirItem.cross_loop(a.sid, b.sid, "<")])
        out.append(sorted((d.kind, d.tensor, d.earlier.order, d.later.order)
                          for d in found))
    return out


@pytest.mark.parametrize("name", sorted(ALL))
def test_memo_on_and_off_give_the_same_verdicts(name, memos_off):
    ft.clear_compile_caches()
    with_memo = _all_verdicts(name)
    assert len(deps._LOCAL_MEMO) > 0
    memos_off()
    ft.clear_compile_caches()
    without = _all_verdicts(name)
    assert len(deps._LOCAL_MEMO) == 0
    assert with_memo == without


def test_an_access_system_is_built_once_per_signature(monkeypatch):
    ft.clear_compile_caches()
    builds = []
    real = deps._Local

    def counting(acc):
        builds.append(deps._access_signature(acc))
        return real(acc)

    monkeypatch.setattr(deps, "_Local", counting)
    _all_verdicts("subdivnet")
    assert builds and len(builds) == len(set(builds))
