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

from ..ir import stmt as S
from ..polyhedral import (Affine, AffineBuilder, LinCon, NonAffine,
                          any_feasible)
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

#: hit/miss counters of the dependence-feasibility memo
_STATS = Counters("deps", hits=0, misses=0)

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

_REL_BUILDERS = {
    "<": LinCon.lt,
    "<=": LinCon.le,
    "=": LinCon.eq,
    ">=": LinCon.ge,
    ">": LinCon.gt,
}


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
        """
        tensors = set(tensors) if tensors is not None else None
        out: List[Dependence] = []
        for earlier, later in self._pairs(tensors, ignore_reduce_pairs):
            if earlier_in is not None and earlier_in not in earlier.ancestors:
                continue
            if later_in is not None and later_in not in later.ancestors:
                continue
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
    def _pairs(self, tensors, ignore_reduce_pairs):
        if tensors is None:
            buckets = self._by_tensor.values()
        else:
            buckets = [self._by_tensor[t] for t in tensors
                       if t in self._by_tensor]
        for accs in buckets:
            for a in accs:  # earlier
                for b in accs:  # later
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
        e_ren = {l.iter_var: f"$s{k}" for k, l in enumerate(earlier.loops)}
        l_ren = {l.iter_var: f"$t{k}" for k, l in enumerate(later.loops)}

        base: List[LinCon] = []
        if not self._domain(earlier, e_ren, base):
            return False
        if not self._domain(later, l_ren, base):
            return False

        # May-alias: equate affine index pairs dimension-wise.
        if earlier.indices is not None and later.indices is not None:
            if len(earlier.indices) != len(later.indices):
                return True  # malformed; be conservative
            for ie, il in zip(earlier.indices, later.indices):
                ae = _affine_of(ie, e_ren, base)
                al = _affine_of(il, l_ren, base)
                if ae is None or al is None:
                    continue  # non-affine: may match anything
                base.append(LinCon.eq(ae, al))

        # Common loops and stack-scope projection.
        n_common = 0
        for le, ll in zip(earlier.loops, later.loops):
            if le.sid != ll.sid:
                break
            n_common += 1
        def_depth = min(earlier.def_depth, later.def_depth, n_common)
        for k in range(def_depth):
            base.append(
                LinCon.eq(Affine.var(f"$s{k}"), Affine.var(f"$t{k}")))

        # Direction constraints.
        sid2e = {l.sid: f"$s{k}" for k, l in enumerate(earlier.loops)}
        sid2l = {l.sid: f"$t{k}" for k, l in enumerate(later.loops)}
        e_begin = {l.sid: l.begin for l in earlier.loops}
        l_begin = {l.sid: l.begin for l in later.loops}
        alternates: List[List[LinCon]] = [[]]
        for item in direction:
            if item.earlier_loop not in sid2e or \
                    item.later_loop not in sid2l:
                return False  # the loop does not enclose the access
            ev = Affine.var(sid2e[item.earlier_loop])
            lv = Affine.var(sid2l[item.later_loop])
            if item.earlier_loop != item.later_loop:
                # normalise to begin-relative positions for cross-loop dirs
                eb = _affine_of(e_begin[item.earlier_loop], e_ren, base)
                lb = _affine_of(l_begin[item.later_loop], l_ren, base)
                if eb is None or lb is None:
                    return True  # cannot reason; conservative
                ev = ev - eb
                lv = lv - lb
            if item.rel == "!=":
                alternates = [alt + [c] for alt in alternates
                              for c in (LinCon.lt(lv, ev),
                                        LinCon.gt(lv, ev))]
            else:
                con = _REL_BUILDERS[item.rel](lv, ev)
                alternates = [alt + [con] for alt in alternates]

        # Execution order: earlier precedes later (lexicographic on common
        # loops, pre-order position as the tie-break).
        order_alts: List[List[LinCon]] = []
        for k in range(n_common):
            cons = [
                LinCon.eq(Affine.var(f"$s{j}"), Affine.var(f"$t{j}"))
                for j in range(k)
            ]
            cons.append(LinCon.lt(Affine.var(f"$s{k}"),
                                  Affine.var(f"$t{k}")))
            order_alts.append(cons)
        if earlier.order < later.order:
            order_alts.append([
                LinCon.eq(Affine.var(f"$s{j}"), Affine.var(f"$t{j}"))
                for j in range(n_common)
            ] if n_common else [])

        return any_feasible(base, (dir_alt + ord_alt for dir_alt in alternates
                                   for ord_alt in order_alts))

    @staticmethod
    def _domain(acc: Access, rename, out: List[LinCon]) -> bool:
        """Append iteration-domain constraints; False if domain is void."""
        for k, loop in enumerate(acc.loops):
            iv = Affine.var(rename[loop.iter_var])
            b = _affine_of(loop.begin, rename, out)
            e = _affine_of(loop.end, rename, out)
            if b is not None:
                out.append(LinCon.ge(iv, b))
            if e is not None:
                out.append(LinCon.lt(iv, e))
        for cond, polarity in acc.conds:
            builder = AffineBuilder(rename)
            try:
                alts = builder.build_condition(cond, not polarity)
            except NonAffine:
                continue  # unknown guard: conservative (no constraint)
            if len(alts) == 1:
                out.extend(builder.extra_cons)
                out.extend(alts[0])
            # disjunctive guards are dropped (over-approximation)
        return True


def _affine_of(expr, rename, out_cons: List[LinCon]) -> Optional[Affine]:
    builder = AffineBuilder(rename)
    try:
        a = builder.build(expr)
    except NonAffine:
        return None
    out_cons.extend(builder.extra_cons)
    return a


def analyze(node) -> DepAnalyzer:
    """Build a dependence analyzer for a Func or statement tree."""
    return DepAnalyzer(node)


def analyzer_for(func, analyzer: Optional[DepAnalyzer] = None) -> DepAnalyzer:
    """A dependence analyzer valid for ``func``.

    Schedule primitives accept an optional persistent analyzer (owned by
    the Schedule); this refreshes it against ``func`` when needed, or
    builds a fresh one. With ``REPRO_NO_MEMO=1`` a fresh
    analyzer is always built (the escape hatch for differential testing).
    """
    if analyzer is None or not memos_enabled():
        return DepAnalyzer(func)
    return analyzer.refresh(func)
