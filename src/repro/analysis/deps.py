"""Instance-wise dependence analysis on the IR (paper section 4.2).

For every pair of accesses to the same tensor (at least one being a write),
the analyser builds a Presburger system over the two statement *instances*
(one point of each iteration space):

- iteration-domain constraints (loop bounds, affine ``if`` conditions);
- access equality (may-alias: non-affine indices are unconstrained);
- stack-scope projection — iterations of loops that enclose the tensor's
  VarDef must coincide, which removes the false dependences of Fig. 12(d);
- execution order (the "earlier" instance precedes the "later" one);
- the query's direction constraints.

A dependence *exists under a direction* iff the system has an integer
solution (decided exactly by the Omega test).

Systems are integer rows from end to end. Each access's half — its domain
rows, index expressions and loop begins over local columns — is built once
per content signature (:class:`_Local`); a pair's system is the two halves
renamed into pair columns and concatenated with the index equalities, the
stack-scope equalities and the direction and order alternates, and goes to
the solver's row entry as it is.

Most pairs have no dependence, and most of those are refuted by their
subscripts alone, so a query decides its system in stages, cheapest
first (:data:`_STAGES`): without domain rows, with the rows bounding a
single column, and whole. Each stage is a subset of the whole system's
rows, so an infeasible stage proves "no dependence"; only the whole
system answers "dependence" (or gives up).

Directions are expressed as :class:`DirItem` tuples; helper constructors
cover the common cases used by the schedules:

- ``same_loop(loop, rel)``: relate the two instances' iterations of one
  common loop (``rel`` in ``< <= = >= > !=`` applies as
  ``later REL earlier``);
- ``cross_loop(earlier_loop, later_loop, rel)``: relate the *normalised*
  (begin-subtracted) iterations of two different loops — used by ``fuse``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..polyhedral import (Linearizer, append_row, combine, feasible_rows,
                          relation)
from ..state import BoundedMemo, Counters, memos_enabled
from .access import Access, collect_accesses

#: memo of feasibility verdicts keyed by *content signatures* of the access
#: pair plus the direction query. Because the key captures everything the
#: decision depends on (domains, indices, guards, loop identities, textual
#: order), it is shared process-wide: re-analysing a program after a
#: schedule primitive only pays for pairs in subtrees the primitive
#: actually rewrote — unchanged subtrees produce identical signatures and
#: hit the memo.
_PAIR_MEMO = BoundedMemo("deps", 1 << 20)

#: hit/miss counters of the dependence-feasibility memo, and the misses
#: that an early stage of their system refuted
_STATS = Counters("deps", hits=0, misses=0, refuted=0)

analysis_cache_stats = _STATS.snapshot


def _access_signature(a: Access) -> tuple:
    """Content signature of an access: everything ``_dep_exists`` reads.

    Deliberately sid-free: schedule primitives mint fresh sids for the
    loops they create, so a sid-keyed memo would never hit across tuner
    rounds even when the trees are structurally identical. The feasibility
    verdict only depends on loop *content* (iteration variable, bounds),
    plus pair-level facts — common-prefix length and direction-item
    positions — that ``_dep_exists`` folds into the memo key itself.
    """
    if a.cached_sig is None:
        a.cached_sig = (
            a.tensor,
            None if a.indices is None else tuple(i.key() for i in a.indices),
            a.is_write,
            a.reduce_op,
            tuple((l.iter_var, l.begin.key(), l.end.key()) for l in a.loops),
            tuple((c.key(), pol) for c, pol in a.conds),
            a.def_depth,
        )
    return a.cached_sig


#: each access's half of its dependence systems, keyed by its content
#: signature: one access takes part in many pairs, and in every candidate
#: of a search whose schedule leaves it unchanged (a few kB per entry; a
#: tune_search sweep builds 171)
_LOCAL_MEMO = BoundedMemo("deps_local", 1 << 14)


class _Local:
    """One access's half of every dependence system it takes part in.

    ``domain`` holds its iteration-domain rows (loop bounds, conjunctive
    affine guards, the bounds of their div/mod quotients) as sparse
    gcd-tightened rows ``(is_eq, const, ((col, coeff), ...))``, or is None
    when one of them is trivially false; ``bounds`` holds those of its
    rows that bound a single column. ``indices`` (None for a whole-tensor
    access) and ``begins`` hold, per index and per loop, None when it is
    not affine, else its quotient rows and its linear form ``(((col,
    coeff), ...), const)``. Columns are local: the access's iterators by
    depth, then the symbols it reads by name, then its existentials (from
    ``exists`` on).

    A pair renames local columns through ``keys[side]`` (0 for the earlier
    access, 1 for the later): a symbol is the same variable on both sides
    (its name), every other column is the side's own (``j`` / ``~j``).
    Rows keep the order the constraints are stated in, and terms the order
    the linearizer inserts variables in, so a composed system numbers its
    columns by first appearance exactly as a translation of the whole
    constraint list at once would.
    """

    __slots__ = ("domain", "bounds", "indices", "begins", "exists", "keys")

    def __init__(self, acc: Access):
        depth = {l.iter_var: k for k, l in enumerate(acc.loops)}
        symbols, quotients = set(), []

        def column(name):
            k = depth.get(name)
            if k is None:
                symbols.add(name)
                return name
            return k

        def fresh():
            quotients.append(("q", len(quotients)))
            return quotients[-1]

        def linear(e):
            lin = Linearizer(column, fresh)
            form = lin.try_linear(e)
            return None if form is None else (lin.rows, form)

        rows, begins = [], []
        for loop in acc.loops:
            iv = {depth[loop.iter_var]: 1}, 0
            b, e = linear(loop.begin), linear(loop.end)
            begins.append(b)
            for bound in (b, e):
                if bound is not None:
                    rows += bound[0]
            if b is not None:
                rows.append(relation(">=", iv, b[1]))
            if e is not None:
                rows.append(relation("<", iv, e[1]))
        for cond, polarity in acc.conds:
            lin = Linearizer(column, fresh)
            alts = lin.try_condition(cond, not polarity)
            # unknown guards are dropped, and so are disjunctive ones
            # (an over-approximation)
            if alts is not None and len(alts) == 1:
                rows += lin.rows + alts[0]
        indices = None if acc.indices is None else \
            [linear(i) for i in acc.indices]

        d = len(acc.loops)
        cols = {k: k for k in range(d)}
        cols.update((v, n) for n, v in enumerate(sorted(symbols), d))
        self.exists = len(cols)
        cols.update((q, n) for n, q in enumerate(quotients, self.exists))
        domain: list = []
        feasible = all([append_row(domain, cols, *r) for r in rows])
        self.domain = tuple(domain) if feasible else None
        self.bounds = tuple([r for r in domain if len(r[2]) == 1])

        def local(part):
            if part is None:
                return None
            extra, (coeffs, k) = part
            out: list = []
            for r in extra:  # quotient bounds: never ground
                append_row(out, cols, *r)
            return tuple(out), (tuple([(cols[v], c)
                                       for v, c in coeffs.items()]), k)

        self.begins = tuple(local(b) for b in begins)
        self.indices = None if indices is None else \
            tuple(local(x) for x in indices)
        earlier = list(range(len(cols)))
        later = [~j for j in earlier]
        for v in symbols:
            earlier[cols[v]] = later[cols[v]] = v
        self.keys = (earlier, later)


def _local(acc: Access) -> _Local:
    sig = _access_signature(acc)
    local = _LOCAL_MEMO.get(sig)
    if local is None:
        local = _Local(acc)
        _LOCAL_MEMO.put(sig, local)
    return local


#: the domain rows each stage of a pair's system takes from either
#: access's half, cheapest first: none (the subscripts, the stack scope
#: and the direction and order alternates alone), the rows bounding a
#: single column (constant loop bounds, mostly), and all of them (the
#: whole system)
_STAGES = (lambda half: (), lambda half: half.bounds,
           lambda half: half.domain)


class DirItem:
    """One direction constraint of a dependence query."""

    __slots__ = ("earlier_loop", "later_loop", "rel")

    def __init__(self, earlier_loop: str, later_loop: str, rel: str):
        if rel not in ("<", "<=", "=", ">=", ">", "!="):
            raise ValueError(f"bad direction relation {rel!r}")
        self.earlier_loop = earlier_loop  # loop sid
        self.later_loop = later_loop
        self.rel = rel

    @staticmethod
    def same_loop(loop_sid: str, rel: str) -> "DirItem":
        return DirItem(loop_sid, loop_sid, rel)

    @staticmethod
    def cross_loop(earlier_sid: str, later_sid: str, rel: str) -> "DirItem":
        return DirItem(earlier_sid, later_sid, rel)

    def __repr__(self):  # pragma: no cover
        return f"dir({self.later_loop} {self.rel} {self.earlier_loop})"


class Dependence:
    """A witnessed dependence between two access sites."""

    __slots__ = ("tensor", "earlier", "later", "kind")

    def __init__(self, tensor: str, earlier: Access, later: Access):
        self.tensor = tensor
        self.earlier = earlier
        self.later = later
        if earlier.is_write and later.is_write:
            self.kind = "WAW"
        elif earlier.is_write:
            self.kind = "RAW"
        else:
            self.kind = "WAR"

    def __repr__(self):
        return (f"{self.kind} on {self.tensor!r}: "
                f"{self.earlier.stmt.sid} -> {self.later.stmt.sid}")


class DepAnalyzer:
    """Dependence query engine over one function body.

    An analyzer can be kept alive across schedule primitives: after a
    primitive rewrites the tree, call :meth:`refresh` with the new root.
    Access lists are re-collected (one linear walk), but feasibility
    verdicts are memoized by *content*, so only pairs involving rewritten
    subtrees are re-decided — the expensive polyhedral work is incremental
    even though the scan is not.
    """

    def __init__(self, node):
        self.root = node
        self.accesses = collect_accesses(node)
        # bucket accesses by tensor once; find() reuses the buckets
        self._by_tensor: Dict[str, List[Access]] = {}
        for a in self.accesses:
            self._by_tensor.setdefault(a.tensor, []).append(a)

    def refresh(self, node) -> "DepAnalyzer":
        """Re-scan a (possibly rewritten) tree; keeps memoized verdicts
        for unchanged access pairs. No-op when ``node`` is already the
        analyzer's root."""
        if node is not self.root:
            self.__init__(node)
        return self

    # -- public queries -----------------------------------------------------
    def find(self,
             direction: Sequence[DirItem] = (),
             tensors: Optional[Iterable[str]] = None,
             earlier_in: Optional[str] = None,
             later_in: Optional[str] = None,
             either_in: Optional[str] = None,
             ignore_reduce_pairs: bool = True,
             first_only: bool = False) -> List[Dependence]:
        """Dependences matching the filters and direction constraints.

        ``earlier_in`` / ``later_in`` / ``either_in`` restrict accesses to
        a statement subtree by sid. ``ignore_reduce_pairs`` drops pairs of
        same-op ReduceTo accesses (commutative reorderable, Fig. 12(c)).
        A direction item only holds between instances of its loops, so
        pairs are drawn from the accesses those loops enclose: the earlier
        side from within every item's earlier loop, the later side from
        within every later loop.
        """
        tensors = set(tensors) if tensors is not None else None
        within_earlier = {d.earlier_loop for d in direction}
        within_later = {d.later_loop for d in direction}
        if earlier_in is not None:
            within_earlier.add(earlier_in)
        if later_in is not None:
            within_later.add(later_in)
        out: List[Dependence] = []
        for earlier, later in self._pairs(tensors, ignore_reduce_pairs,
                                          within_earlier, within_later):
            if either_in is not None and either_in not in earlier.ancestors \
                    and either_in not in later.ancestors:
                continue
            if self._no_deps_filtered(earlier, later, direction):
                continue
            if self._dep_exists(earlier, later, tuple(direction)):
                out.append(Dependence(earlier.tensor, earlier, later))
                if first_only:
                    return out
        return out

    def has_dep(self, **kwargs) -> bool:
        return bool(self.find(first_only=True, **kwargs))

    def pair_feasible(self, earlier: Access, later: Access,
                      direction: Sequence[DirItem] = ()) -> bool:
        """May some instance of ``earlier`` precede and alias some
        instance of ``later``? The single-pair form of :meth:`find`,
        used by the verifier's def-use and dead-write analyses."""
        return self._dep_exists(earlier, later, tuple(direction))

    # -- pair enumeration -------------------------------------------------------
    def _pairs(self, tensors, ignore_reduce_pairs, within_earlier,
               within_later):
        """Candidate (earlier, later) pairs: the earlier access inside
        every statement ``within_earlier`` names by sid, the later one
        inside every statement of ``within_later``."""
        if tensors is None:
            buckets = self._by_tensor.values()
        else:
            buckets = [self._by_tensor[t] for t in tensors
                       if t in self._by_tensor]
        for accs in buckets:
            laters = [b for b in accs if within_later <= b.ancestors]
            for a in accs:  # earlier
                if not within_earlier <= a.ancestors:
                    continue
                for b in laters:
                    if not (a.is_write or b.is_write):
                        continue
                    if ignore_reduce_pairs and a.reduce_op is not None \
                            and a.reduce_op == b.reduce_op:
                        continue
                    yield a, b

    @staticmethod
    def _no_deps_filtered(earlier, later, direction) -> bool:
        """User no_deps annotations silence deps carried by a loop."""
        for it in direction:
            if it.rel == "=":
                continue
            for loop in earlier.loops + later.loops:
                if loop.sid in (it.earlier_loop, it.later_loop) \
                        and earlier.tensor in loop.property.no_deps:
                    return True
        return False

    # -- the core feasibility test ---------------------------------------------
    def _dep_exists(self, earlier: Access, later: Access,
                    direction: Tuple[DirItem, ...]) -> bool:
        if not memos_enabled():
            # the key below already decides some queries; the hatch must
            # bypass that too, or it could not check it
            return self._dep_exists_uncached(earlier, later, direction)
        # Common-prefix length: both loop chains are root-to-leaf ancestor
        # paths in one tree, so shared loops are exactly a shared prefix of
        # identical objects.
        n_common = 0
        for le, ll in zip(earlier.loops, later.loops):
            if le is not ll:
                break
            n_common += 1
        # Direction items name loops by sid; canonicalise to positions in
        # the two loop chains so the key survives sid renaming. A referenced
        # loop that encloses neither access decides the query (no dep) the
        # same way the full test would.
        canon_dir = ()
        if direction:
            pos_e = {l.sid: k for k, l in enumerate(earlier.loops)}
            pos_l = {l.sid: k for k, l in enumerate(later.loops)}
            items = []
            for d in direction:
                pe = pos_e.get(d.earlier_loop)
                pl = pos_l.get(d.later_loop)
                if pe is None or pl is None:
                    return False
                items.append((pe, pl, d.rel))
            canon_dir = tuple(items)
        key = (_access_signature(earlier), _access_signature(later),
               n_common, earlier.order < later.order, canon_dir)
        hit = _PAIR_MEMO.get(key)
        if hit is not None:
            _STATS.add("hits")
            return hit
        _STATS.add("misses")
        result = self._dep_exists_uncached(earlier, later, direction)
        _PAIR_MEMO.put(key, result)
        return result

    def _dep_exists_uncached(self, earlier, later, direction) -> bool:
        """Decide the pair's system stage by stage (:data:`_STAGES`),
        skipping a stage whose rows the one before already decided."""
        halves = _local(earlier), _local(later)
        whole = tuple(h.domain for h in halves)
        decided = None
        for select in _STAGES:
            domains = tuple(select(h) for h in halves)
            if domains == decided:
                continue
            decided = domains
            system = self._compose(earlier, later, direction, halves,
                                   select)
            if type(system) is bool:
                return system
            base, cols, alternatives = system
            verdict = feasible_rows(base, len(cols), (
                _alternative(alt, cols) for alt in alternatives))
            if not verdict:
                if domains != whole:
                    _STATS.add("refuted")
                return False
        return verdict

    @staticmethod
    def _compose(earlier: Access, later: Access, direction, halves,
                 select):
        """The pair's system with the domain rows ``select`` takes from
        each half (None: one is trivially false), composed constraint by
        constraint in the order below. A verdict when the query is
        decided before any row is solved, else ``(base, cols,
        alternatives)``: ``base`` is None when one of its rows is
        trivially false, and each alternative is a list of :func:`_fix`
        rows."""
        se, sl = halves
        ke, kl = se.keys[0], sl.keys[1]
        cols: Dict = {}
        base: list = []
        de, dl = select(se), select(sl)
        # one trivially false base row makes every alternative a gcd
        # reject, but the checks that return early below still decide
        ok = de is not None and dl is not None
        _place(de or (), ke, cols, base)
        _place(dl or (), kl, cols, base)

        # May-alias: equate affine index pairs dimension-wise.
        if se.indices is not None and sl.indices is not None:
            if len(se.indices) != len(sl.indices):
                return True  # malformed; be conservative
            for xe, xl in zip(se.indices, sl.indices):
                if xe is not None:
                    _place(xe[0], ke, cols, base)
                if xl is not None:
                    _place(xl[0], kl, cols, base)
                if xe is not None and xl is not None:  # else: may match
                    ok = ok and append_row(base, cols, *relation(
                        "=", _form(xe[1], ke), _form(xl[1], kl)))

        # Common loops and stack-scope projection.
        n_common = 0
        for le, ll in zip(earlier.loops, later.loops):
            if le.sid != ll.sid:
                break
            n_common += 1
        def_depth = min(earlier.def_depth, later.def_depth, n_common)
        for k in range(def_depth):
            append_row(base, cols, *_same(k))

        # Direction constraints, over the iterators' pair keys (``k`` for
        # the earlier access's k-th loop, ``~k`` for the later's).
        sid2e = {l.sid: k for k, l in enumerate(earlier.loops)}
        sid2l = {l.sid: k for k, l in enumerate(later.loops)}
        relations = []
        for n, item in enumerate(direction):
            ve, vl = sid2e.get(item.earlier_loop), sid2l.get(item.later_loop)
            if ve is None or vl is None:
                return False  # the loop does not enclose the access
            ev, lv = ({ve: 1}, 0), ({~vl: 1}, 0)
            if item.earlier_loop != item.later_loop:
                # normalise to begin-relative positions for cross-loop dirs
                eb, lb = se.begins[ve], sl.begins[vl]
                if eb is None or lb is None:
                    return True  # cannot reason; conservative
                ev = combine(ev, _begin(se, eb, 0, n, cols, base), -1)
                lv = combine(lv, _begin(sl, lb, 1, n, cols, base), -1)
            relations.append((item.rel, lv, ev))

        # The base is complete: each alternate row is placed once, over
        # its columns, and shared by the alternatives holding it.
        alternates: List[list] = [[]]
        for rel, lv, ev in relations:
            rows = [_fix(relation(r, lv, ev), cols)
                    for r in (("<", ">") if rel == "!=" else (rel,))]
            alternates = [alt + [r] for alt in alternates for r in rows]

        # Execution order: earlier precedes later (lexicographic on common
        # loops, pre-order position as the tie-break).
        same = [_fix(_same(j), cols) for j in range(n_common)]
        order_alts = [same[:k] + [_fix(_before(k), cols)]
                      for k in range(n_common)]
        if earlier.order < later.order:
            order_alts.append(same)

        return base if ok else None, cols, [
            dir_alt + ord_alt for dir_alt in alternates
            for ord_alt in order_alts]


def _place(rows, keys, cols: dict, out: list):
    """Append local ``rows`` to ``out``, renamed through ``keys`` into the
    pair's columns ``cols`` (a new variable gets the next column)."""
    for is_eq, k, terms in rows:
        out.append((is_eq, k, tuple([
            (cols.setdefault(keys[j], len(cols) + 1), c) for j, c in terms])))


def _form(form, keys):
    """A local linear form as ``({pair key: coeff}, const)``."""
    terms, k = form
    return {keys[j]: c for j, c in terms}, k


def _same(k: int):
    """``s_k == t_k``: both instances in one iteration of common loop k
    (``k`` / ``~k`` are its earlier / later iterator's pair keys)."""
    return True, 0, {k: 1, ~k: -1}


def _before(k: int):
    """``s_k < t_k``, as ``t_k - s_k - 1 >= 0``."""
    return False, -1, {~k: 1, k: -1}


def _fix(row, cols: dict):
    """An alternate row ready for :func:`_alternative`: placed over the
    base's ``cols`` as a list of no or one sparse rows (None when trivially
    false) if they number all its variables; else the row itself, to be
    placed per alternative."""
    if cols.keys() >= row[2].keys():
        placed: list = []
        return placed if append_row(placed, cols, *row) else None
    return row


def _alternative(fixed, cols: dict):
    """``feasible_rows``' ``(rows, n)`` of one alternative from
    :func:`_fix`'s rows: an alternative with variables the base does not
    number gives them columns of its own, as translating it would."""
    rows: list = []
    own = None
    for f in fixed:
        if f is None:
            return None, 0
        if type(f) is list:
            rows += f
            continue
        if own is None:
            own = dict(cols)
        if not append_row(rows, own, *f):
            return None, 0
    return rows, len(cols if own is None else own)


def _begin(local: _Local, begin, side: int, n: int, cols: dict,
           base: list):
    """A loop begin's linear form over pair keys for direction item ``n``.
    Its quotient bounds go into ``base`` over existentials of this use
    only, as a fresh translation of the begin would have them."""
    keys = local.keys[side][:local.exists] + [
        ("begin", n, side, j) for j in range(local.exists,
                                             len(local.keys[side]))]
    _place(begin[0], keys, cols, base)
    return _form(begin[1], keys)


def analyze(node) -> DepAnalyzer:
    """Build a dependence analyzer for a Func or statement tree."""
    return DepAnalyzer(node)


def analyzer_for(func, analyzer: Optional[DepAnalyzer] = None) -> DepAnalyzer:
    """A dependence analyzer valid for ``func``.

    Schedule primitives accept an optional persistent analyzer (owned by
    the Schedule); this refreshes it against ``func`` when needed, or
    builds a fresh one. With memos disabled (``state.memos_on``, set by
    differential tests) a fresh analyzer is always built.
    """
    if analyzer is None or not memos_enabled():
        return DepAnalyzer(func)
    return analyzer.refresh(func)
