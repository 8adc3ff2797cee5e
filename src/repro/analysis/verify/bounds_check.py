"""Out-of-bounds sanitizer (codes FT101/FT102/FT103).

Every indexed access is checked against its tensor's declared extents
with the same Presburger machinery the scheduler uses for dependence
analysis. The check is two-tiered:

1. **Exact tier.** When the access's iteration domain (loop bounds,
   ``if``/``assert`` guards) and the index/extent expressions are all
   affine, the violation system ``domain ∧ (index < 0 ∨ index ≥ extent)``
   is decided exactly by the Omega test: feasible means a *proven*
   out-of-bounds access (FT101, error); infeasible means proven safe.
   A system the solver gives up on (``omega.UNKNOWN``) proves neither:
   it is reported as "cannot prove" (FT102).

2. **Atomized tier.** Non-affine sub-expressions (data-dependent indices
   like ``indptr[i]``, products of iterators, ``min``/``max``) are
   replaced by fresh unconstrained *atom* variables — one atom per
   distinct expression, shared across the whole system, which preserves
   relations like ``indptr[i] ≤ jj < indptr[i+1]`` between a loop bound
   and an index. Symbolic bound candidates from ``analysis.bounds``
   further constrain atomized indices (this is what proves ``min``/
   ``max``-clamped accesses safe). The atomized system over-approximates
   the reachable states, so *infeasible still proves safety*; a feasible
   violation only means "cannot prove in bounds" and is reported as a
   warning (FT102) rather than an error.

Tensors are assumed non-empty (every extent >= 1): without this, any
constant-index access (``y[0]`` with symbolic extent ``n``) would be
flagged for the degenerate zero-extent case. A fixed index that demands
a *larger* extent (``y[5]``) is still reported — add an ``assert``
relating the extents if that precondition is intended.
"""

from __future__ import annotations

from typing import Dict, List

from ...ir import defined_tensors
from ...ir import stmt as S
from ...ir.printer import print_expr
from ...polyhedral import Linearizer, is_feasible, relation
from ...polyhedral.build import Row
from ..access import Access, collect_accesses
from ..bounds import BoundsCtx, bound_candidates
from .diagnostics import Diagnostic, ir_path

#: cap on symbolic bound candidates fed into the solver per side — the
#: candidate sets grow multiplicatively through +/- and min/max
_MAX_CANDIDATES = 24


class _AtomizingBuilder(Linearizer):
    """A :class:`Linearizer` over variable names that never fails:
    non-affine sub-expressions become fresh unconstrained variables
    ("atoms").

    Atoms are shared through ``atoms`` (keyed by expression content), so
    the same non-affine value appearing in a loop bound and in an index
    maps to the same variable — sound because every constraint in one
    system concerns a single statement instance, where each expression
    has a single value.
    """

    def __init__(self, atoms: Dict[str, str], state: dict):
        super().__init__(lambda name: name, object)
        self.atoms = atoms
        self._state = state  # {"exact": bool} shared across builders

    def non_affine(self, e):
        self._state["exact"] = False
        name = self.atoms.setdefault(e.key(), f"$atom{len(self.atoms)}")
        return {name: 1}, 0


def _domain_cons(acc: Access, atoms: Dict[str, str], state: dict
                 ) -> List[Row]:
    """Rows describing one instance of the access's iteration domain.
    Atomizes non-affine pieces; drops (and marks inexact) disjunctive or
    unmodellable guards."""
    out: List[Row] = []
    b = _AtomizingBuilder(atoms, state)
    for loop in acc.loops:
        iv = {loop.iter_var: 1}, 0
        out.append(relation(">=", iv, b.linear(loop.begin)))
        out.append(relation("<", iv, b.linear(loop.end)))
    for cond, polarity in acc.conds:
        cb = _AtomizingBuilder(atoms, state)
        alts = cb.try_condition(cond, not polarity)
        if alts is None:
            state["exact"] = False  # guard dropped: domain over-approximated
            continue
        if len(alts) == 1:
            out.extend(cb.rows)
            out.extend(alts[0])
        else:
            state["exact"] = False  # disjunctive guard dropped
    out.extend(b.rows)
    return out


def _candidate_cons(idx, idx_a, ctx: BoundsCtx,
                    atoms: Dict[str, str]) -> List[Row]:
    """Sound extra constraints on an index from its symbolic bound
    candidates. These only ever *prove more* accesses safe, so they never
    affect the exactness verdict (they use a throwaway state)."""
    out: List[Row] = []
    scratch = {"exact": True}
    b = _AtomizingBuilder(atoms, scratch)
    lowers, uppers = bound_candidates(idx, ctx)
    for lo in lowers[:_MAX_CANDIDATES]:
        out.append(relation(">=", idx_a, b.linear(lo)))
    for up in uppers[:_MAX_CANDIDATES]:
        out.append(relation("<=", idx_a, b.linear(up)))
    out.extend(b.rows)
    return out


def check_bounds(func: S.Func) -> List[Diagnostic]:
    """All bounds findings for one function."""
    diags: List[Diagnostic] = []
    defs = defined_tensors(func.body)
    for acc in collect_accesses(func):
        vd = defs.get(acc.tensor)
        if vd is None or acc.indices is None:
            continue  # whole-tensor (LibCall) operands have no index to check
        kind = "write to" if acc.is_write else "read of"
        if len(acc.indices) != vd.ndim:
            diags.append(
                Diagnostic(
                    "FT103", "error",
                    f"{kind} {acc.tensor!r} with {len(acc.indices)} "
                    f"indices, but the tensor is {vd.ndim}-dimensional",
                    stmt=acc.stmt, tensor=acc.tensor,
                    path=ir_path(func, acc.stmt.sid)))
            continue
        if not acc.indices:
            continue  # scalar access: nothing to bound

        atoms: Dict[str, str] = {}
        state = {"exact": True}
        base = _domain_cons(acc, atoms, state)
        ctx = BoundsCtx(
            {l.iter_var: (l.begin, l.end) for l in acc.loops})
        builder = _AtomizingBuilder(atoms, state)
        for dim, (idx, extent) in enumerate(zip(acc.indices, vd.shape)):
            idx_a = builder.linear(idx)
            ext_a = builder.linear(extent)
            rows = base + builder.rows
            rows += _candidate_cons(idx, idx_a, ctx, atoms)
            # Assume the accessed tensor is non-empty: without it, every
            # constant-index access (y[0] on a tensor of symbolic extent
            # n) would be flagged for the degenerate n = 0 case.
            rows.append(relation(">=", ext_a, ({}, 1)))
            low_bad = is_feasible(rows + [relation("<", idx_a, ({}, 0))])
            high_bad = is_feasible(rows + [relation(">=", idx_a, ext_a)])
            if not (low_bad or high_bad):
                continue
            # UNKNOWN (the solver gave up) is truthy but proves nothing
            if state["exact"] and (low_bad is True or high_bad is True):
                side = "is negative" if low_bad is True else \
                    f"reaches or exceeds extent {print_expr(extent)}"
                diags.append(
                    Diagnostic(
                        "FT101", "error",
                        f"{kind} {acc.tensor!r} out of bounds: index "
                        f"{print_expr(idx)} of dimension {dim} {side} "
                        f"for some loop iteration",
                        stmt=acc.stmt, tensor=acc.tensor,
                        path=ir_path(func, acc.stmt.sid)))
            else:
                why = "is beyond the solver, which gave up" \
                    if state["exact"] else "is data-dependent or non-affine"
                diags.append(
                    Diagnostic(
                        "FT102", "warning",
                        f"cannot prove {kind} {acc.tensor!r} in bounds: "
                        f"index {print_expr(idx)} of dimension {dim} {why} "
                        f"(extent {print_expr(extent)})",
                        stmt=acc.stmt, tensor=acc.tensor,
                        path=ir_path(func, acc.stmt.sid)))
    return diags
