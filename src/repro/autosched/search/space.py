"""The structured schedule search space: typed knobs per loop nest.

Instead of drawing blind random primitives, the searcher extracts a
**knob space** from the base IR once, and every candidate is a *coherent
assignment* of those knobs (FlexTensor-style; see ROADMAP):

- ``tile`` knobs — a split-factor chain per loop (``[]`` = no split,
  ``[f]`` = one split, ``[f1, f2]`` = a two-level chain), offered only
  with factors below the loop's constant trip count;
- ``order`` knobs — one per perfectly-nested band of 2-3 loops, whose
  choices are the **legal** permutations (checked against the same
  dependence queries ``schedule.reorder`` enforces, so candidates do not
  waste rounds on illegal moves);
- ``ann`` knobs — an annotation per loop (``none`` / ``parallel`` /
  ``vectorize`` / ``unroll``), gated by the exact ``parallelize`` /
  ``vectorize`` legality query (the one the FT501 lint uses) and by the
  backend's capability table (no ``parallel`` choice on backends where
  the annotation is a no-op).

``realize()`` turns an assignment into a scheduled ``Func`` plus the
:class:`~repro.schedule.trace.ScheduleTrace` its schedule recorded, so
every candidate ships with a replayable recipe. The func is screened; the
trace, replayed through the checked primitives, is what gets measured.
Assignments are plain JSON-able dicts, which is what mutation and
crossover operate on.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from ...analysis import DepAnalyzer, DirItem
from ...backend import backend_caps
from ...errors import FreeTensorError
from ...ir import For, Func, IntConst, collect_stmts
from ...schedule import Schedule, ScheduleTrace
from ...schedule.common import only_stmt_of
from ...schedule.loop_trans import _check_permutation_legal

#: single-split factors offered to every splittable loop
TILE_FACTORS = (2, 4, 8, 16, 32, 64)
#: two-level chains (outer split, then inner re-split) for long loops
TILE_CHAINS = ((8, 2), (16, 4), (32, 8))
#: loops with a constant trip below this get no tile knob
MIN_TILE_TRIP = 4
#: constant trip bound for offering the ``unroll`` annotation
MAX_UNROLL_TRIP = 8
#: bands longer than this get no reorder knob (permutations explode)
MAX_BAND = 3


class Knob:
    """One typed dimension of the search space."""

    __slots__ = ("name", "kind", "choices", "sid", "band")

    def __init__(self, name: str, kind: str, choices: List,
                 sid: Optional[str] = None,
                 band: Optional[List[str]] = None):
        self.name = name
        #: ``tile`` / ``ann`` / ``order``
        self.kind = kind
        #: JSON-able choice values; ``choices[0]`` is the identity
        self.choices = list(choices)
        #: the base loop this knob schedules (tile/ann)
        self.sid = sid
        #: the base band sids, outer to inner (order)
        self.band = list(band) if band else None

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Knob({self.name}: {self.choices})"


def _const_trip(loop: For) -> Optional[int]:
    if isinstance(loop.begin, IntConst) and isinstance(loop.end, IntConst):
        return loop.end.val - loop.begin.val
    return None


def _bands(func: Func) -> List[List[For]]:
    """Maximal perfectly-nested loop bands, outer to inner."""
    inner_sids = set()
    loops = collect_stmts(func.body, lambda s: isinstance(s, For))
    for l in loops:
        nxt = only_stmt_of(l)
        if isinstance(nxt, For):
            inner_sids.add(nxt.sid)
    bands = []
    for l in loops:
        if l.sid in inner_sids:
            continue  # not a band head
        band = [l]
        cur = l
        while True:
            nxt = only_stmt_of(cur)
            if not isinstance(nxt, For):
                break
            band.append(nxt)
            cur = nxt
        bands.append(band)
    return bands


class ScheduleSpace:
    """The typed knob space extracted from one base program."""

    def __init__(self, base: Func, knobs: List[Knob], backend: str,
                 parallel_kind: Optional[str]):
        self.base = base
        self.knobs = knobs
        self.backend = backend
        #: the parallel kind ``ann=parallel`` binds to (backend-dependent)
        self.parallel_kind = parallel_kind
        self._by_name = {k.name: k for k in knobs}

    # -- extraction --------------------------------------------------------
    @classmethod
    def extract(cls, base: Func, backend: str = "pycode",
                target=None) -> "ScheduleSpace":
        """Build the knob space for ``base`` (an already-lowered Func —
        what ``Schedule(prog).func`` returns)."""
        from ...runtime import metrics
        from ..target import default_target

        target = target or default_target(backend)
        caps = backend_caps(backend, target)
        # the annotation kind a `parallel` knob binds to, straight from
        # the backend's declared capability table (None when the backend
        # would ignore the annotation: no knob)
        parallel_kind = caps.schedule_parallel_kind()

        analyzer = DepAnalyzer(base)
        knobs: List[Knob] = []

        # order knobs: one per multi-loop band, legal permutations only
        for b, band in enumerate(_bands(base)):
            if not 2 <= len(band) <= MAX_BAND:
                continue
            legal = []
            for perm in itertools.permutations(range(len(band))):
                perm = list(perm)
                if perm == sorted(perm):
                    legal.append(perm)  # identity: always legal
                    continue
                try:
                    _check_permutation_legal(base, band, perm, analyzer)
                    legal.append(perm)
                except FreeTensorError:
                    pass
            if len(legal) > 1:
                knobs.append(Knob(f"band{b}.order", "order", legal,
                                  band=[l.sid for l in band]))

        # per-loop tile + annotation knobs, in pre-order
        loops = collect_stmts(base.body, lambda s: isinstance(s, For))
        for i, loop in enumerate(loops):
            trip = _const_trip(loop)
            tiles: List[List[int]] = [[]]
            if trip is None or trip >= MIN_TILE_TRIP:
                for f in TILE_FACTORS:
                    if trip is None or f < trip:
                        tiles.append([f])
                for chain in TILE_CHAINS:
                    if trip is not None and chain[0] < trip:
                        tiles.append(list(chain))
            if len(tiles) > 1:
                knobs.append(Knob(f"L{i}.tile", "tile", tiles,
                                  sid=loop.sid))

            anns = ["none"]
            if not (loop.property.parallel or loop.property.vectorize):
                carried = analyzer.find(
                    direction=[DirItem.same_loop(loop.sid, "!=")],
                    first_only=True)
                if not carried:
                    anns.append("vectorize")
                    if parallel_kind is not None:
                        anns.append("parallel")
            if (trip is not None and trip <= MAX_UNROLL_TRIP
                    and trip > 1):
                anns.append("unroll")
            if len(anns) > 1:
                knobs.append(Knob(f"L{i}.ann", "ann", anns, sid=loop.sid))

        space = cls(base, knobs, backend, parallel_kind)
        metrics.SEARCH.add("spaces")
        metrics.SEARCH.add("knobs", len(knobs))
        for kind in ("order", "tile", "ann"):
            metrics.SEARCH.add(kind + "_knobs",
                               sum(1 for k in knobs if k.kind == kind))
        return space

    def size(self) -> int:
        """Number of distinct knob assignments (candidates)."""
        n = 1
        for k in self.knobs:
            n *= len(k.choices)
        return n

    # -- assignments -------------------------------------------------------
    def default_assignment(self) -> Dict[str, object]:
        """The identity assignment (base schedule unchanged)."""
        return {k.name: k.choices[0] for k in self.knobs}

    def random_assignment(self, rng) -> Dict[str, object]:
        return {k.name: k.choices[rng.randrange(len(k.choices))]
                for k in self.knobs}

    def mutate(self, assignment: Dict[str, object], rng,
               steps: int = 1) -> Dict[str, object]:
        """A copy of ``assignment`` with ``steps`` knobs re-drawn."""
        out = dict(assignment)
        if not self.knobs:
            return out
        for _ in range(steps):
            k = self.knobs[rng.randrange(len(self.knobs))]
            alternatives = [c for c in k.choices if c != out.get(k.name)]
            if alternatives:
                out[k.name] = alternatives[rng.randrange(len(alternatives))]
        return out

    def crossover(self, a: Dict[str, object], b: Dict[str, object],
                  rng) -> Dict[str, object]:
        """Uniform crossover: each knob from one parent or the other."""
        return {k.name: (a if rng.random() < 0.5 else b).get(
            k.name, k.choices[0]) for k in self.knobs}

    @staticmethod
    def assignment_key(assignment: Dict[str, object]) -> str:
        """A hashable identity for visited-set bookkeeping."""
        return repr(sorted(assignment.items()))

    # -- realization -------------------------------------------------------
    def realize(self, assignment: Dict[str, object]
                ) -> Tuple[Func, ScheduleTrace]:
        """Apply a knob assignment to a fresh schedule of the base.

        Returns ``(func, trace)``: the schedule's tree and the trace it
        recorded. The func is for screening only: the ``vectorize``
        annotations are marked without their dependence query, so a
        candidate is legal only once ``trace`` replays on
        ``Schedule(base)`` through the checked primitives (what the tuner
        does before it measures one). Individual knob choices are
        pre-gated on the base, but e.g. a reorder can invalidate a
        sibling band's annotation in rare aliasing cases. Raises
        :class:`~repro.errors.FreeTensorError` when an eagerly checked
        primitive (``reorder``, ``split``, ``parallelize``, ``unroll``)
        rejects the assignment (callers count it as an invalid
        candidate).
        """
        s = Schedule(self.base)

        # reorders first: band sids are base sids and reorder keeps them
        for k in self.knobs:
            if k.kind != "order":
                continue
            perm = assignment.get(k.name, k.choices[0])
            if list(perm) == sorted(perm):
                continue  # identity
            s.reorder([k.band[p] for p in perm])

        # then every split chain, in base pre-order (splits preserve the
        # sids of the loops nested inside), deferring annotations
        pending = []  # (ann, outer_sid, inner_sid)
        for k in self.knobs:
            if k.kind == "tile":
                outer_sid = inner_sid = k.sid
                for level, f in enumerate(assignment.get(k.name, [])):
                    outer, inner_sid = s.split(inner_sid, factor=int(f))
                    if level == 0:
                        outer_sid = outer
                ann_name = k.name.replace(".tile", ".ann")
                pending.append((assignment.get(ann_name, "none"),
                                outer_sid, inner_sid))
            elif k.kind == "ann" \
                    and k.name.replace(".ann", ".tile") \
                    not in self._by_name:
                pending.append((assignment.get(k.name, "none"),
                                k.sid, k.sid))

        # annotations innermost-first: an immediate ``unroll`` duplicates
        # its body with fresh sids, so an ancestor must only unroll after
        # its descendants are fully scheduled. "Innermost" is judged on
        # the *current* tree (a reorder can invert the base nesting), by
        # descending pre-order index — descendants always come after
        # their ancestors in pre-order. ``parallel`` binds the outer
        # result of the *first* split in the chain (distribute tiles),
        # ``vectorize``/``unroll`` the inner result of the *last* split
        # (contiguous short loop).
        pos = {l.sid: i for i, l in enumerate(s.loops())}
        pending.sort(key=lambda p: -pos[p[2]])
        for ann, outer_sid, inner_sid in pending:
            if ann == "parallel":
                s.parallelize(outer_sid, self.parallel_kind)
            elif ann == "vectorize":
                # marked unchecked: the tuner proves legality by
                # replaying the trace of each candidate it measures
                s._mark_vectorize(inner_sid)
            elif ann == "unroll":
                s.unroll(inner_sid)
        return s.func, s.trace

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"<ScheduleSpace {len(self.knobs)} knobs, "
                f"{self.size()} points>")
