"""Loop transformations: split, merge, reorder, fission, fuse, swap
(paper Table 1, rows 1-6), each guarded by dependence analysis."""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from ..analysis import DirItem, analyzer_for
from ..errors import DependenceViolation, InvalidSchedule
from ..ir import (For, ForProperty, If, IntConst, StmtSeq, Var, VarDef,
                  collect_stmts, fresh_copy, same_expr, seq, substitute, wrap)
from ..polyhedral import LinCon, any_feasible, try_affine
from .common import (find_loop, find_stmt, fresh_iter, only_stmt_of,
                     parent_of, perfectly_nested, replace_stmt, stmts_of_body)


def split(func, loop_sel, factor=None, nparts=None):
    """Split a loop into two nested loops.

    Exactly one of ``factor`` (inner length) / ``nparts`` (outer length)
    must be given. Returns ``(new_func, outer_sid, inner_sid)``. Always
    legal: iteration order is preserved (a guard protects partial tiles).
    """
    if (factor is None) == (nparts is None):
        raise InvalidSchedule("give exactly one of factor/nparts")
    loop = find_loop(func.body, loop_sel)
    n = loop.len
    if factor is not None:
        f = wrap(factor)
    else:
        f = (n + wrap(nparts) - 1) // wrap(nparts)
    outer_n = (n + f - 1) // f
    io = fresh_iter(func, loop.iter_var + ".o")
    ii = fresh_iter(func, loop.iter_var + ".i")
    offset = Var(io) * f + Var(ii)
    body = substitute(loop.body, {loop.iter_var: loop.begin + offset})
    exact = (isinstance(n, IntConst) and isinstance(f, IntConst)
             and f.val > 0 and n.val % f.val == 0)
    if not exact:
        body = If(offset < n, body)
    inner = For(ii, 0, f, body, loop.property.clone())
    outer = For(io, 0, outer_n, inner, ForProperty())
    outer.label = loop.label
    new_func = replace_stmt(func, loop.sid, outer)
    return new_func, outer.sid, inner.sid


def merge(func, outer_sel, inner_sel):
    """Merge two perfectly nested loops into one. Returns
    ``(new_func, merged_sid)``."""
    outer = find_loop(func.body, outer_sel)
    inner = only_stmt_of(outer)
    if not isinstance(inner, For) or (inner.sid != inner_sel
                                      and inner.label != inner_sel):
        raise InvalidSchedule(
            f"{inner_sel!r} is not perfectly nested inside {outer_sel!r}")
    from ..ir import all_vars

    for b in (inner.begin, inner.end):
        if outer.iter_var in set(all_vars(b)):
            raise InvalidSchedule(
                "cannot merge: inner loop bounds depend on the outer "
                "iterator (non-rectangular nest)")
    n_in = inner.len
    m = fresh_iter(func, f"{outer.iter_var}.{inner.iter_var}")
    body = substitute(
        inner.body, {
            outer.iter_var: outer.begin + Var(m) // n_in,
            inner.iter_var: inner.begin + Var(m) % n_in,
        })
    merged = For(m, 0, outer.len * n_in, body, outer.property.clone())
    merged.label = outer.label
    new_func = replace_stmt(func, outer.sid, merged)
    return new_func, merged.sid


def reorder(func, order: List[str], analyzer=None):
    """Permute a perfectly nested loop band into the given order.

    Illegal when some dependence would become lexicographically negative
    (paper 4.2.1). Returns the new func.
    """
    if len(order) < 2:
        raise InvalidSchedule("reorder needs at least two loops")
    sels = [find_loop(func.body, s).sid for s in order]
    # Identify the current band: the outermost selected loop downwards.
    paths = {sid: len(_enclosing_sids(func, sid)) for sid in sels}
    outer_sid = min(sels, key=lambda s: paths[s])
    outer = find_loop(func.body, outer_sid)
    band: List[For] = [outer]
    cur = outer
    while set(l.sid for l in band) != set(sels):
        nxt = only_stmt_of(cur)
        if not isinstance(nxt, For):
            raise InvalidSchedule("loops to reorder are not perfectly nested")
        band.append(nxt)
        cur = nxt
    if len(band) != len(sels):
        raise InvalidSchedule("reorder loops must form a contiguous band")

    old_order = [l.sid for l in band]
    new_order = sels
    perm = [old_order.index(s) for s in new_order]

    _check_permutation_legal(func, band, perm, analyzer)

    innermost_body = band[-1].body
    loops_by_sid = {l.sid: l for l in band}
    new_nest = innermost_body
    for sid in reversed(new_order):
        l = loops_by_sid[sid]
        nf = For(l.iter_var, l.begin, l.end, new_nest, l.property.clone())
        nf.sid, nf.label = l.sid, l.label
        new_nest = nf
    return replace_stmt(func, outer.sid, lambda _s: new_nest)


def _enclosing_sids(func, sid):
    from .common import path_to

    return [s.sid for s in path_to(func.body, sid)[:-1]]


def _check_permutation_legal(func, band: List[For], perm: List[int],
                             analyzer=None):
    """Enumerate direction vectors that flip lexicographic sign."""
    n = len(band)
    analyzer = analyzer_for(func, analyzer)
    for vec in itertools.product("<=>", repeat=n):
        if _lex_sign(vec) != 1:
            continue  # cannot exist as a dependence
        new_vec = [vec[perm[k]] for k in range(n)]
        if _lex_sign(new_vec) != -1:
            continue  # still legal after permutation
        direction = [
            DirItem.same_loop(band[k].sid, vec[k]) for k in range(n)
        ]
        deps = analyzer.find(direction=direction, first_only=True)
        if deps:
            raise DependenceViolation(
                f"reorder violates {deps[0]} (direction {''.join(vec)})",
                deps)


def _lex_sign(vec) -> int:
    for v in vec:
        if v == ">":
            return 1
        if v == "<":
            return -1
    return 0


def fission(func, loop_sel, after_sel, analyzer=None):
    """Fission a loop into two at the statement ``after_sel`` (which ends
    the first loop). Returns ``(new_func, front_sid, back_sid)``.

    The split point must be a direct child of the loop body, possibly
    under a chain of VarDefs; VarDefs above the split are duplicated into
    both loops, which is only legal when no value flows through them
    across the split point (cache the variable first otherwise).
    """
    loop = find_loop(func.body, loop_sel)
    prefixes, front_inner, back_inner, defs = _split_body(func, loop,
                                                          after_sel)
    if not back_inner:
        raise InvalidSchedule("fission point is at the loop boundary")

    front_sids = set()
    for group in prefixes + [front_inner]:
        for s in group:
            front_sids |= _subtree_sids(s)
    back_sids = set()
    for s in back_inner:
        back_sids |= _subtree_sids(s)

    analyzer = analyzer_for(func, analyzer)
    for s2 in back_inner:
        for group in prefixes + [front_inner]:
            for s1 in group:
                deps = analyzer.find(
                    earlier_in=s2.sid,
                    later_in=s1.sid,
                    direction=[DirItem.same_loop(loop.sid, ">")],
                    first_only=True)
                if deps:
                    raise DependenceViolation(
                        f"fission would reverse {deps[0]}", deps)

    for vd in defs:
        deps = analyzer.find(tensors=[vd.name])
        for d in deps:
            if d.earlier.stmt.sid in front_sids \
                    and d.later.stmt.sid in back_sids:
                raise DependenceViolation(
                    f"variable {vd.name!r} is live across the fission "
                    f"point; cache it first", [d])

    def build_front(k):
        if k == len(defs):
            return seq(front_inner)
        d = defs[k]
        nd = VarDef(d.name, d.shape, d.dtype, d.atype, d.mtype,
                    build_front(k + 1), d.pinned)
        nd.init_data = d.init_data
        nd.sid, nd.label = d.sid, d.label
        return seq(list(prefixes[k]) + [nd])

    front_body = build_front(0)

    from ..ir import fresh_name, rename_tensor, used_names

    taken = used_names(func)
    back_body = seq([fresh_copy(s) for s in back_inner])
    rename_map = {}
    for d in defs:
        rename_map[d.name] = fresh_name(d.name + ".b", taken)
        taken.add(rename_map[d.name])
        back_body = rename_tensor(back_body, d.name, rename_map[d.name])
    for d in reversed(defs):
        nd = VarDef(rename_map[d.name], d.shape, d.dtype, d.atype, d.mtype,
                    back_body, d.pinned)
        nd.init_data = d.init_data
        back_body = nd
    it2 = fresh_iter(func, loop.iter_var + ".f")
    back_body = substitute(back_body, {loop.iter_var: Var(it2)})

    l1 = For(loop.iter_var, loop.begin, loop.end, front_body,
             loop.property.clone())
    l2 = For(it2, loop.begin, loop.end, back_body, loop.property.clone())
    l1.label = loop.label
    new_func = replace_stmt(func, loop.sid, seq([l1, l2]))
    return new_func, l1.sid, l2.sid


def _subtree_sids(stmt):
    return {s.sid for s in collect_stmts(stmt, lambda _s: True)}


def _split_body(func, loop: For, after_sel: str):
    """Locate the split point under trailing VarDef chains.

    Returns ``(prefix_groups, front_inner, back_inner, defs)`` where
    ``prefix_groups[k]`` are the statements preceding ``defs[k]`` at its
    nesting level.
    """
    target = find_stmt(func.body, after_sel)
    defs: List[VarDef] = []
    prefixes: List[List] = []
    body = loop.body
    while True:
        stmts = stmts_of_body(body)
        idx = None
        for i, s in enumerate(stmts):
            if s.sid == target.sid or target.sid in _subtree_sids(s):
                idx = i
                break
        if idx is None:
            raise InvalidSchedule(
                f"{after_sel!r} is not inside loop {loop.sid}")
        s = stmts[idx]
        if s.sid == target.sid:
            return prefixes, stmts[:idx + 1], stmts[idx + 1:], defs
        if isinstance(s, VarDef) and idx == len(stmts) - 1:
            prefixes.append(stmts[:idx])
            defs.append(s)
            body = s.body
            continue
        raise InvalidSchedule(
            f"{after_sel!r} must be a direct child of the loop body "
            f"(possibly under VarDefs)")


def fuse(func, loop0_sel, loop1_sel, analyzer=None):
    """Fuse two consecutive loops of equal length into one.

    Returns ``(new_func, fused_sid)``. Illegal when a dependence from the
    first loop to the second would be reversed by interleaving (the paper's
    dot_max example, section 4.2). When the loops are separated only by
    VarDef scopes and statements independent of the first loop, the scopes
    are extended and the statements swapped ahead automatically (the
    enabling moves of ``auto_fuse``).
    """
    l0 = find_loop(func.body, loop0_sel)
    l1 = find_loop(func.body, loop1_sel)
    if not _are_consecutive(func, l0, l1):
        func = _make_siblings(func, l0.sid, l1.sid, analyzer)
        l0 = find_loop(func.body, l0.sid)
        l1 = find_loop(func.body, l1.sid)
    parent = parent_of(func.body, l0.sid)
    if not isinstance(parent, StmtSeq):
        raise InvalidSchedule("loops to fuse must be siblings")
    idx = [i for i, s in enumerate(parent.stmts) if s.sid == l0.sid]
    if not idx or idx[0] + 1 >= len(parent.stmts) or \
            parent.stmts[idx[0] + 1].sid != l1.sid:
        raise InvalidSchedule("loops to fuse must be consecutive")

    if not _provably_equal(l0.len, l1.len):
        raise InvalidSchedule(
            f"cannot fuse loops of (possibly) different lengths "
            f"{l0.len!r} vs {l1.len!r}")

    analyzer = analyzer_for(func, analyzer)
    deps = analyzer.find(
        earlier_in=l0.sid,
        later_in=l1.sid,
        direction=[DirItem.cross_loop(l0.sid, l1.sid, "<")],
        first_only=True)
    if deps:
        raise DependenceViolation(f"fuse would reverse {deps[0]}", deps)

    it = fresh_iter(func, l0.iter_var)
    body0 = substitute(l0.body, {l0.iter_var: l0.begin + Var(it)})
    body1 = substitute(l1.body, {l1.iter_var: l1.begin + Var(it)})
    fused = For(it, 0, l0.len, seq([body0, body1]), l0.property.clone())
    fused.label = l0.label

    def on_parent(p: StmtSeq):
        stmts = [s for s in p.stmts if s.sid != l1.sid]
        out = StmtSeq([fused if s.sid == l0.sid else s for s in stmts])
        out.sid, out.label = p.sid, p.label
        return out

    new_func = replace_stmt(func, parent.sid, on_parent)
    return new_func, fused.sid


def _are_consecutive(func, l0: For, l1: For) -> bool:
    parent = parent_of(func.body, l0.sid)
    if not isinstance(parent, StmtSeq):
        return False
    for i, s in enumerate(parent.stmts[:-1]):
        if s.sid == l0.sid:
            return parent.stmts[i + 1].sid == l1.sid
    return False


def _make_siblings(func, l0_sid: str, l1_sid: str, analyzer=None):
    """Normalisation enabling fuse: extend VarDef scopes separating the two
    loops over both, and move the separating statements before the first
    loop (dependence-checked)."""
    from .common import loops_on_path, path_to

    parent = parent_of(func.body, l0_sid)
    if not isinstance(parent, StmtSeq):
        raise InvalidSchedule("loops to fuse must share a statement "
                              "sequence (possibly across VarDef scopes)")
    pos = next((i for i, s in enumerate(parent.stmts) if s.sid == l0_sid),
               None)
    if pos is None:
        raise InvalidSchedule("loops to fuse must share a parent")
    pre = list(parent.stmts[:pos])
    l0 = parent.stmts[pos]
    items = list(parent.stmts[pos + 1:])
    defs: List[VarDef] = []
    between: List = []
    l1 = None
    rest: List = []
    while l1 is None:
        progressed = False
        for i, it in enumerate(items):
            if it.sid == l1_sid:
                l1 = it
                rest = items[i + 1:]
                between.extend(items[:i])
                progressed = True
                break
            if isinstance(it, VarDef) and i == len(items) - 1:
                between.extend(items[:i])
                defs.append(it)
                items = stmts_of_body(it.body)
                progressed = True
                break
        if not progressed:
            raise InvalidSchedule(
                f"loop {l1_sid!r} does not follow {l0_sid!r} in program "
                f"order")

    # Moving `between` statements ahead of l0 flips their order with l0:
    # require no loop-independent dependence between them and l0.
    common_loops = loops_on_path(func.body, parent.sid)
    direction = [DirItem.same_loop(l.sid, "=") for l in common_loops]
    analyzer = analyzer_for(func, analyzer)
    for b in between:
        for earlier_sid, later_sid in ((l0.sid, b.sid), (b.sid, l0.sid)):
            deps = analyzer.find(earlier_in=earlier_sid,
                                 later_in=later_sid,
                                 direction=direction,
                                 first_only=True)
            if deps:
                raise DependenceViolation(
                    f"cannot move {b.sid} across {l0.sid} to enable fuse: "
                    f"{deps[0]}", deps)

    inner = seq(list(between) + [l0, l1] + list(rest))
    for d in reversed(defs):
        nd = VarDef(d.name, d.shape, d.dtype, d.atype, d.mtype, inner,
                    d.pinned)
        nd.sid, nd.label, nd.init_data = d.sid, d.label, d.init_data
        inner = nd

    def on_parent(p: StmtSeq):
        out = StmtSeq(pre + [inner])
        out.sid, out.label = p.sid, p.label
        return out

    return replace_stmt(func, parent.sid, on_parent)


def _provably_equal(a, b) -> bool:
    if same_expr(a, b):
        return True
    ra = try_affine(a)
    rb = try_affine(b)
    if ra is None or rb is None:
        return False
    aa, ca, _ = ra
    ab, cb, _ = rb
    # equal for all parameter values iff (a != b) is infeasible
    return not any_feasible(ca + cb, [[LinCon.lt(aa, ab)],
                                      [LinCon.gt(aa, ab)]])


def swap(func, stmt_sels: List[str], analyzer=None):
    """Reorder consecutive sibling statements into the given order.

    Illegal when two statements whose relative order changes have a
    loop-independent dependence. Returns the new func.
    """
    stmts = [find_stmt(func.body, s) for s in stmt_sels]
    parent = parent_of(func.body, stmts[0].sid)
    if not isinstance(parent, StmtSeq):
        raise InvalidSchedule("swap targets must be siblings in a sequence")
    sids = [s.sid for s in stmts]
    positions = {s.sid: i for i, s in enumerate(parent.stmts)}
    if not all(sid in positions for sid in sids):
        raise InvalidSchedule("swap targets must share one parent sequence")
    idxs = sorted(positions[sid] for sid in sids)
    if idxs != list(range(idxs[0], idxs[0] + len(idxs))):
        raise InvalidSchedule("swap targets must be consecutive")

    from .common import loops_on_path

    common_loops = loops_on_path(func.body, parent.sid)
    direction = [DirItem.same_loop(l.sid, "=") for l in common_loops]
    analyzer = analyzer_for(func, analyzer)
    old_order = [s.sid for s in parent.stmts[idxs[0]:idxs[0] + len(idxs)]]
    new_rank = {sid: k for k, sid in enumerate(sids)}
    for a_pos, a_sid in enumerate(old_order):
        for b_sid in old_order[a_pos + 1:]:
            if new_rank[b_sid] < new_rank[a_sid]:  # order flips
                deps = analyzer.find(earlier_in=a_sid,
                                     later_in=b_sid,
                                     direction=direction,
                                     first_only=True)
                if deps:
                    raise DependenceViolation(
                        f"swap would reverse {deps[0]}", deps)

    by_sid = {s.sid: s for s in parent.stmts}
    new_children = list(parent.stmts)
    for off, sid in enumerate(sids):
        new_children[idxs[0] + off] = by_sid[sid]

    def on_parent(p: StmtSeq):
        out = StmtSeq(new_children)
        out.sid, out.label = p.sid, p.label
        return out

    return replace_stmt(func, parent.sid, on_parent)
