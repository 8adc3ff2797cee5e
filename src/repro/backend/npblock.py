"""``npblock``: a blocked/vectorized NumPy backend, registered purely
through the public :func:`~repro.backend.register_backend` API.

This module is the retargetability proof for the unified backend
registry (see ``repro.backend.registry``): it adds a genuinely new
runnable target — legalization pass, capability table, code generator
and builder — without touching the driver, the pipeline, the cost
model, the searcher, the verifier or the CLIs. Everything below goes
through one ``register_backend(Backend(...))`` call.

The backend itself:

- **legalization** (``npblock_vectorize``) marks every innermost loop
  whose body the NumPy lowering can turn into whole-array kernels
  (:func:`~repro.codegen.pycode.loop_vectorizes`) *and* that carries no
  cross-iteration dependence as ``vectorize`` — the same legality query
  ``Schedule.vectorize`` enforces, run as an IR pass. ``pycode`` only
  vectorizes loops a schedule marked; ``npblock`` vectorizes whatever
  is provably safe, which is where its speedup on raw (unscheduled)
  builds comes from;
- **codegen** subclasses the pycode generator but lowers each
  vectorized loop over fixed-size blocks of ``DEFAULT_BLOCK`` (4096)
  elements: the iterator becomes a bounded index vector
  per block, so index/temporary vectors stay cache-sized instead of
  materialising whole-loop intermediates. Reductions accumulate
  per block (``tgt += np.sum(...)`` each block), so blocking never
  changes results beyond float reassociation.
"""

from __future__ import annotations

from typing import Dict

from ..ir import For, Func, Mutator, collect_stmts
from ..ir import stmt as S
from ..pipeline import Pass
from .caps import BackendCaps
from .registry import Backend, register_backend

#: elements per vectorized block. A constant, not a knob: it is baked
#: into generated source, and no cache key carries it
DEFAULT_BLOCK = 4096

#: below this trip count the generated code falls back to the scalar
#: loop at runtime — NumPy's fixed per-kernel dispatch cost loses to a
#: plain Python loop on short trips
DEFAULT_MIN_TRIP = 32


# ---------------------------------------------------------------------------
# legalization: auto-mark safe innermost loops as vectorize
# ---------------------------------------------------------------------------


class _MarkVectorizable(Mutator):

    def __init__(self, sids):
        self._sids = sids

    def mutate_For(self, s: For) -> S.Stmt:
        out = self.generic_mutate_stmt(s)
        if out.sid in self._sids:
            return out.with_property(vectorize=True)
        return out


def npblock_vectorize(func: Func) -> Func:
    """Mark every innermost loop the blocked NumPy lowering can execute
    as whole-array kernels — shape-feasible per ``loop_vectorizes`` and
    free of loop-carried dependences (reduction pairs excepted: the
    lowering accumulates them with ``np.sum``/``np.add.at``/...). This
    is the legality check ``Schedule.vectorize`` performs, applied
    automatically; already-annotated loops are left alone."""
    from ..analysis import DepAnalyzer, DirItem
    from ..codegen.pycode import loop_vectorizes

    analyzer = None
    sids = set()
    for l in collect_stmts(func.body, lambda s: isinstance(s, For)):
        if l.property.vectorize or l.property.parallel:
            continue
        if collect_stmts(l.body, lambda s: isinstance(s, For)):
            continue  # not innermost
        if not loop_vectorizes(l):
            continue
        if analyzer is None:
            analyzer = DepAnalyzer(func)
        carried = analyzer.find(
            direction=[DirItem.same_loop(l.sid, "!=")], first_only=True)
        if not carried:
            sids.add(l.sid)
    if not sids:
        return func
    return _MarkVectorizable(sids)(func)


# ---------------------------------------------------------------------------
# codegen: pycode's vector lowering, over fixed-size blocks
# ---------------------------------------------------------------------------


def _make_codegen(func: Func):
    # deferred so importing repro.backend never drags codegen in
    from ..codegen.pycode import PyCodegen, loop_vectorizes

    class NpBlockCodegen(PyCodegen):
        """The pycode generator with vectorized loops lowered over
        fixed-size blocks instead of one whole-loop index vector, behind
        a runtime trip-count guard: short loops (< ``DEFAULT_MIN_TRIP``
        iterations) run the ordinary scalar loop, where Python beats
        NumPy's fixed per-kernel dispatch cost."""

        def _try_vectorize(self, s: For, indent: int) -> bool:
            if not loop_vectorizes(s):
                return False
            stmts = s.body.stmts if isinstance(s.body, S.StmtSeq) \
                else [s.body]
            iv = s.iter_var
            n = self._vec_counter
            self._vec_counter += 1
            lo, hi = f"_lo{n}", f"_hi{n}"
            self.line(indent, f"{lo}, {hi} = {self.pexpr(s.begin)}, "
                              f"{self.pexpr(s.end)}")
            self.line(indent, f"if {hi} - {lo} >= {DEFAULT_MIN_TRIP}:")
            blk, vec_name = f"_b{n}", f"_vi{n}"
            self.line(indent + 1, f"for {blk} in range({lo}, {hi}, "
                                  f"{DEFAULT_BLOCK}):")
            self.line(indent + 2, f"{vec_name} = np.arange({blk}, "
                                  f"min({blk} + {DEFAULT_BLOCK}, {hi}))")
            vec = {iv: vec_name}
            for c in stmts:
                self._gen_vec_stmt(c, iv, vec, indent + 2)
            # scalar fallback for short trips
            self.line(indent, "else:")
            it = self.mangle(s.iter_var)
            self.line(indent + 1, f"for {it} in range({lo}, {hi}):")
            self.pstmt(s.body, indent + 2)
            return True

    return NpBlockCodegen(func)


def compile_func_npblock(func: Func):
    """Compile a (legalized) Func to a blocked-NumPy Python callable."""
    gen = _make_codegen(func)
    src, consts = gen.generate()
    namespace: Dict[str, object] = {"_consts": consts}
    from ..runtime.libcalls import apply_libcall

    namespace["_libcall"] = (
        lambda kind, attrs, outs, args: apply_libcall(kind, attrs, outs,
                                                      args))
    code = compile(src, f"<npblock {func.name}>", "exec")
    exec(code, namespace)
    kernel = namespace["kernel"]
    kernel.__ft_source__ = src
    return kernel


def _build_npblock(func: Func, **_opts):
    kernel = compile_func_npblock(func)
    interface = func.interface_tensors()

    def run(env):
        args = [env[p] for p in interface]
        args += [env[p] for p in func.scalar_params]
        kernel(*args)

    run.__ft_source__ = kernel.__ft_source__
    return run


# ---------------------------------------------------------------------------
# the declaration
# ---------------------------------------------------------------------------


def _caps_npblock(target):
    from ..codegen.pycode import loop_vectorizes

    # sequential in one Python process, like pycode — but the
    # legalization pass above vectorizes everything feasible, and
    # blocking adds one extra kernel dispatch per block, which the
    # declared vec_kernel_seq override charges
    return BackendCaps("npblock", {}, vector_width=None,
                       stride_matters=False,
                       vec_feasible=loop_vectorizes,
                       vec_kernel_seq=96.0,
                       vec_whole_width=16)


NPBLOCK = register_backend(Backend(
    name="npblock",
    build=_build_npblock,
    caps=_caps_npblock,
    legalization=(Pass("npblock_vectorize", npblock_vectorize),),
    target_kind="cpu",
    caps_version="1",
))
