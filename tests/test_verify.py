"""Tests for the whole-program verifier (``repro.verify``).

One deliberately-broken program per diagnostic code, asserting the code
and the source span; a clean bill of health over all four paper
workloads (raw and auto-scheduled); agreement between the race detector
and schedule-time ``parallelize`` legality; the build() gate; the CLI;
and the structured-diagnostic payload of DependenceViolation.
"""

import os

import numpy as np
import pytest

import repro as ft
from repro.analysis.verify import Diagnostic, Diagnostics, verify
from repro.errors import (DependenceViolation, InvalidProgram,
                          VerificationError)
from repro.ir import (For, Func, ReduceTo, Store, VarDef, collect_stmts,
                      dump)
from repro.passes import lower
from repro.runtime import build
from repro.runtime.metrics import reset_verifier_stats, verifier_stats
from repro.schedule import Schedule

HERE = os.path.basename(__file__)


def codes(report):
    return sorted(report.codes)


def the_diag(report, code):
    found = report.by_code(code)
    assert found, f"expected a {code} finding, got {codes(report)}"
    return found[0]


def assert_span_here(diag, line=None):
    assert diag.span is not None, f"{diag.code} finding has no span"
    assert os.path.basename(diag.span[0]) == HERE
    if line is not None:
        assert diag.span[1] == line


def first_loop(func):
    return collect_stmts(func.body, lambda s: isinstance(s, For))[0]


# ---------------------------------------------------------------------------
# Bounds sanitizer
# ---------------------------------------------------------------------------


class TestBounds:

    def test_ft101_proven_oob(self):
        @ft.transform
        def f(x: ft.Tensor[("n",), "f32", "input"]):
            y = ft.empty((x.shape(0),), "f32")
            for i in range(x.shape(0)):
                y[i] = x[i + 1]
            return y

        rep = verify(f)
        d = the_diag(rep, "FT101")
        assert d.severity == "error"
        assert d.tensor == "x"
        assert_span_here(d)
        # the span points at the offending store line
        assert "y[i] = x[i + 1]" in open(d.span[0]).readlines()[
            d.span[1] - 1]

    def test_ft101_negative_index(self):
        @ft.transform
        def f(x: ft.Tensor[("n",), "f32", "input"]):
            y = ft.empty((x.shape(0),), "f32")
            for i in range(x.shape(0)):
                y[i] = x[i - 1]
            return y

        d = the_diag(verify(f), "FT101")
        assert "negative" in d.message

    def test_solver_give_up_is_ft102_not_ft101(self, monkeypatch):
        # with the solver's work budget at zero, every bounds query is
        # given up on: that proves no access out of bounds
        from repro.polyhedral import clear_feasibility_cache, omega

        @ft.transform
        def f(x: ft.Tensor[("n",), "f32", "input"]):
            y = ft.empty((x.shape(0),), "f32")
            for i in range(x.shape(0)):
                y[i] = x[i] * 2.0
            return y

        monkeypatch.setattr(omega, "_BUDGET", 0)
        clear_feasibility_cache()
        try:
            before = omega.feasibility_stats()["gave_up"]
            rep = verify(f, analyses=("bounds",))
            gave_up = omega.feasibility_stats()["gave_up"] - before
        finally:
            clear_feasibility_cache()
        assert "FT101" not in codes(rep)
        found = rep.by_code("FT102")
        assert found and gave_up > 0
        assert all("solver" in d.message for d in found)

    def test_guarded_access_is_clean(self):
        @ft.transform
        def f(x: ft.Tensor[("n",), "f32", "input"]):
            y = ft.empty((x.shape(0),), "f32")
            for i in range(x.shape(0)):
                y[i] = 0.0
                if i + 1 < x.shape(0):
                    y[i] = x[i + 1]
            return y

        assert not verify(f, analyses=("bounds",))

    def test_ft102_data_dependent_index(self):
        @ft.transform
        def f(idx: ft.Tensor[("n",), "i32", "input"],
              x: ft.Tensor[("m",), "f32", "input"]):
            y = ft.empty((idx.shape(0),), "f32")
            for i in range(idx.shape(0)):
                y[i] = x[idx[i]]
            return y

        rep = verify(f)
        d = the_diag(rep, "FT102")
        assert d.severity == "warning"
        assert not rep.has_errors
        assert_span_here(d)

    def test_ft103_rank_mismatch(self):
        # Staging catches wrong index counts, so build the IR directly.
        from repro.ir import DataType, Load

        body = VarDef(
            "x", (4, 5), "f32", "input", "cpu",
            VarDef("y", (4,), "f32", "output", "cpu",
                   Store("y", (0,),
                         Load("x", (0,), DataType.parse("f32")))))
        func = Func("f", ["x", "y"], ["y"], body)
        d = the_diag(verify(func), "FT103")
        assert d.severity == "error"
        assert "2-dimensional" in d.message

    def test_nonaffine_extent_relation_is_proven(self):
        """Loop bounds and indices sharing the same data-dependent
        expressions (CSR-style) are proven safe via shared atoms."""
        @ft.transform
        def f(indptr: ft.Tensor[("n1",), "i32", "input"],
              x: ft.Tensor[("m",), "f32", "input"]):
            n = indptr.shape(0) - 1
            y = ft.empty((n,), "f32")
            for i in range(n):
                buf = ft.empty((indptr[i + 1] - indptr[i],), "f32")
                for j in range(indptr[i], indptr[i + 1]):
                    buf[j - indptr[i]] = 1.0
                y[i] = 0.0
                if indptr[i + 1] > indptr[i]:
                    y[i] = buf[0]
            return y

        rep = verify(f, analyses=("bounds",))
        # no finding may concern 'buf': its extent matches its loop
        assert not [d for d in rep if d.tensor == "buf"], rep.render()


# ---------------------------------------------------------------------------
# Race detector
# ---------------------------------------------------------------------------


def _annotate_parallel(func, kind="openmp"):
    """Force a parallel annotation on a lowered Func, bypassing the
    legality checks of ``Schedule.parallelize``."""
    first_loop(func).property.parallel = kind
    return func


class TestRaces:

    def _scan(self):
        @ft.transform
        def f(a: ft.Tensor[("n",), "f32", "inout"]):
            ft.label("L")
            for i in range(1, a.shape(0)):
                a[i] = a[i - 1] + 1.0

        return f

    def test_ft201_forced_annotation(self):
        func = _annotate_parallel(lower(self._scan().func))
        d = the_diag(verify(func), "FT201")
        assert d.severity == "error"
        assert d.tensor == "a"
        assert_span_here(d)

    def test_agrees_with_parallelize_rejection(self):
        prog = self._scan()
        with pytest.raises(DependenceViolation):
            Schedule(prog).parallelize("L", "openmp")
        func = _annotate_parallel(lower(prog.func))
        assert verify(func).has_errors

    def test_agrees_with_legal_independent(self, rng):
        @ft.transform
        def f(b: ft.Tensor[("n",), "f32", "input"],
              a: ft.Tensor[("n",), "f32", "output"]):
            ft.label("L")
            for i in range(b.shape(0)):
                a[i] = b[i] + 1.0

        s = Schedule(f)
        s.parallelize("L", "openmp")
        assert not s.verify(level="error")

    def test_agrees_with_legal_reduction(self):
        @ft.transform
        def f(b: ft.Tensor[("n",), "f32", "input"],
              a: ft.Tensor[(), "f32", "inout"]):
            ft.label("L")
            for i in range(b.shape(0)):
                a[...] += b[i]

        s = Schedule(f)
        s.parallelize("L", "openmp")
        assert not s.verify(level="error")

    def test_agrees_with_legal_scatter_reduction(self):
        @ft.transform
        def f(idx: ft.Tensor[("n",), "i32", "input"],
              b: ft.Tensor[("n",), "f32", "input"],
              a: ft.Tensor[("m",), "f32", "inout"]):
            ft.label("L")
            for i in range(b.shape(0)):
                a[idx[i]] += b[i]

        s = Schedule(f)
        s.parallelize("L", "openmp")
        assert not s.verify(level="error")

    def test_agrees_with_legal_cuda_kinds(self):
        @ft.transform
        def f(a: ft.Tensor[(4, 5), "f32", "output"]):
            ft.label("Lb")
            for i in range(4):
                ft.label("Lt")
                for j in range(5):
                    a[i, j] = 1.0

        s = Schedule(f)
        s.parallelize("Lb", "cuda.blockIdx.x")
        s.parallelize("Lt", "cuda.threadIdx.x")
        assert not s.verify(level="error")

    def test_ft202_non_atomic_reduction(self):
        @ft.transform
        def f(b: ft.Tensor[("n",), "f32", "input"],
              a: ft.Tensor[(), "f32", "inout"]):
            for i in range(b.shape(0)):
                a[...] += b[i]

        func = _annotate_parallel(lower(f.func))
        d = the_diag(verify(func), "FT202")
        assert d.severity == "error"
        assert "atomic" in d.message
        # marking the reduction atomic resolves it
        for r in collect_stmts(func.body,
                               lambda s: isinstance(s, ReduceTo)):
            r.atomic = True
        assert not verify(func).has_errors

    def test_ft203_shared_memory_cross_block(self):
        @ft.transform
        def f(b: ft.Tensor[(8,), "f32", "input"],
              a: ft.Tensor[(8,), "f32", "output"]):
            t = ft.empty((8,), "f32")
            ft.label("L")
            for i in range(8):
                t[0] = b[i]
                a[i] = t[0]

        s = Schedule(f)
        s.set_mtype("t", "gpu/shared")
        func = s.func
        first_loop(func).property.parallel = "cuda.blockIdx.x"
        rep = verify(func)
        d = the_diag(rep, "FT203")
        assert d.severity == "error"
        assert d.tensor == "t"
        assert "gpu/shared" in d.message


# ---------------------------------------------------------------------------
# Def-use
# ---------------------------------------------------------------------------


class TestDefUse:

    def test_ft301_use_before_init(self):
        @ft.transform
        def f(x: ft.Tensor[("n",), "f32", "input"]):
            t = ft.empty((x.shape(0),), "f32")
            y = ft.empty((x.shape(0),), "f32")
            for i in range(x.shape(0)):
                y[i] = t[i]
                t[i] = x[i]
            return y

        d = the_diag(verify(f), "FT301")
        assert d.severity == "error"
        assert d.tensor == "t"
        assert_span_here(d)

    def test_ft301_reduce_without_init(self):
        @ft.transform
        def f(x: ft.Tensor[("n",), "f32", "input"]):
            t = ft.empty((), "f32")
            for i in range(x.shape(0)):
                t[...] += x[i]
            y = ft.empty((), "f32")
            y[...] = t[...]
            return y

        rep = verify(f)
        assert rep.by_code("FT301") or rep.by_code("FT302")

    def test_ft302_never_written(self):
        @ft.transform
        def f(x: ft.Tensor[("n",), "f32", "input"]):
            t = ft.empty((x.shape(0),), "f32")
            y = ft.empty((x.shape(0),), "f32")
            for i in range(x.shape(0)):
                y[i] = t[i]
            return y

        d = the_diag(verify(f), "FT302")
        assert d.severity == "error"
        assert d.tensor == "t"
        assert_span_here(d)

    def test_initialized_then_read_is_clean(self):
        @ft.transform
        def f(x: ft.Tensor[("n",), "f32", "input"]):
            t = ft.empty((x.shape(0),), "f32")
            y = ft.empty((x.shape(0),), "f32")
            for i in range(x.shape(0)):
                t[i] = x[i]
            for i in range(x.shape(0)):
                y[i] = t[i]
            return y

        assert not verify(f, analyses=("defuse",))


# ---------------------------------------------------------------------------
# Lint
# ---------------------------------------------------------------------------


class TestLint:

    def _prog(self):
        @ft.transform
        def f(x: ft.Tensor[("n",), "f32", "input"]):
            dead = ft.empty((4,), "f32")
            unused = ft.empty((4,), "f32")
            y = ft.empty((x.shape(0),), "f32")
            for i in range(x.shape(0)):
                y[i] = x[i]
            for j in range(4):
                dead[j] = 1.0
            for k in range(3, 3):
                y[0] = 0.0
            return y

        return f

    def test_ft401_dead_write(self):
        d = the_diag(verify(self._prog()), "FT401")
        assert d.severity == "warning"
        assert d.tensor == "dead"
        assert_span_here(d)

    def test_ft402_unused_tensor(self):
        d = the_diag(verify(self._prog()), "FT402")
        assert d.severity == "warning"
        assert d.tensor == "unused"

    def test_ft403_zero_trip_loop(self):
        d = the_diag(verify(self._prog()), "FT403")
        assert d.severity == "warning"
        assert "zero iterations" in d.message

    def test_level_filter_drops_warnings(self):
        rep = verify(self._prog(), level="error")
        assert not rep  # lint findings are all warnings


# ---------------------------------------------------------------------------
# Clean bill of health over the paper workloads
# ---------------------------------------------------------------------------


class TestWorkloadsClean:

    @pytest.mark.parametrize("name", ["subdivnet", "longformer", "softras",
                                      "gat"])
    def test_raw_no_errors(self, name):
        from repro.workloads import ALL

        rep = verify(ALL[name].make_program())
        assert not rep.has_errors, rep.render()

    @pytest.mark.parametrize("name", ["subdivnet", "longformer", "softras",
                                      "gat"])
    def test_auto_scheduled_no_errors(self, name):
        from repro.autosched import auto_schedule
        from repro.workloads import ALL

        func = auto_schedule(ALL[name].make_program().func)
        rep = verify(func)
        assert not rep.has_errors, rep.render()


# ---------------------------------------------------------------------------
# Driver gate, CLI, report plumbing
# ---------------------------------------------------------------------------


def _broken_prog():
    @ft.transform
    def f(x: ft.Tensor[("n",), "f32", "input"]):
        y = ft.empty((x.shape(0),), "f32")
        for i in range(x.shape(0)):
            y[i] = x[i + 1]
        return y

    return f


class TestBuildGate:

    def test_kwarg_gate_raises(self):
        with pytest.raises(VerificationError) as exc:
            build(_broken_prog(), verify=True)
        assert isinstance(exc.value.diagnostics, Diagnostics)
        assert exc.value.diagnostics.by_code("FT101")

    def test_default_is_off(self, rng):
        prog = _broken_prog()
        exe = build(prog)  # compiles; the bug only bites at runtime
        assert exe is not None

    def test_warnings_do_not_block(self, rng):
        @ft.transform
        def f(idx: ft.Tensor[("n",), "i32", "input"],
              x: ft.Tensor[("m",), "f32", "input"]):
            y = ft.empty((idx.shape(0),), "f32")
            for i in range(idx.shape(0)):
                y[i] = x[idx[i]]
            return y

        exe = build(f, verify=True)
        out = exe(np.zeros(3, np.int32),
                  rng.standard_normal(5).astype(np.float32))
        assert out.shape == (3,)


class TestCLI:

    def test_workload_passes(self, capsys):
        from repro.verify.__main__ import main

        assert main(["gat", "--no-source"]) == 0
        out = capsys.readouterr().out
        assert "gat" in out and "passed" in out

    def test_broken_file_fails(self, tmp_path, capsys):
        src = tmp_path / "broken.py"
        src.write_text(
            "import repro as ft\n"
            "@ft.transform\n"
            "def f(x: ft.Tensor[('n',), 'f32', 'input']):\n"
            "    y = ft.empty((x.shape(0),), 'f32')\n"
            "    for i in range(x.shape(0)):\n"
            "        y[i] = x[i + 1]\n"
            "    return y\n")
        from repro.verify.__main__ import main

        assert main([str(src)]) == 1
        assert "FT101" in capsys.readouterr().out

    def test_json_output(self, capsys):
        import json

        from repro.verify.__main__ import main

        assert main(["softras", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["targets"][0]["target"] == "softras"
        assert payload["targets"][0]["errors"] == 0


class TestDiagnosticsPlumbing:

    def test_dependence_violation_payload(self):
        @ft.transform
        def f(a: ft.Tensor[("n",), "f32", "inout"]):
            ft.label("L")
            for i in range(1, a.shape(0)):
                a[i] = a[i - 1] + 1.0

        with pytest.raises(DependenceViolation) as exc:
            Schedule(f).parallelize("L", "openmp")
        err = exc.value
        assert err.dependences
        for d in err.dependences:
            assert isinstance(d, Diagnostic)
            assert d.code == "FT200"
            assert d.source is not None  # the raw Dependence
        assert len(err.raw_dependences) == len(err.dependences)
        assert_span_here(err.dependences[0])
        assert "FT200" in err.render()

    def test_metrics_counters(self):
        reset_verifier_stats()
        verify(_broken_prog())
        from repro.workloads import ALL

        verify(ALL["softras"].make_program())
        stats = verifier_stats()
        assert stats["runs"] == 2
        assert stats["failed"] == 1
        assert stats["passed"] == 1
        assert stats["errors"] >= 1

    def test_render_has_caret_and_summary(self):
        rep = verify(_broken_prog())
        text = rep.render()
        assert "error[FT101]" in text
        assert "^" in text
        assert "error(s)" in text

    def test_ir_path_breadcrumb(self):
        d = the_diag(verify(_broken_prog()), "FT101")
        assert any(p.startswith("for ") for p in d.path)


class TestBindMessages:

    def _exe(self):
        @ft.transform
        def f(h: ft.Tensor[("n", "f"), "f32", "input"]):
            y = ft.empty((h.shape(0),), "f32")
            for i in range(h.shape(0)):
                y[i] = h[i, 0]
            return y

        return build(f)

    def test_ndim_mismatch_names_everything(self):
        with pytest.raises(InvalidProgram) as exc:
            self._exe()(np.zeros(7, np.int64))
        msg = str(exc.value)
        assert "'h'" in msg
        assert "2-D" in msg and "1-D" in msg
        assert "f32" in msg and "int64" in msg
        assert "(n, f)" in msg and "(7,)" in msg

    def test_const_dim_mismatch(self):
        @ft.transform
        def f(a: ft.Tensor[(4,), "f32", "input"]):
            y = ft.empty((4,), "f32")
            for i in range(4):
                y[i] = a[i]
            return y

        with pytest.raises(InvalidProgram) as exc:
            build(f)(np.zeros(5, np.float32))
        msg = str(exc.value)
        assert "'a'" in msg and "4" in msg and "5" in msg

    def test_conflicting_shape_vars(self):
        @ft.transform
        def f(a: ft.Tensor[("n",), "f32", "input"],
              b: ft.Tensor[("n",), "f32", "input"]):
            y = ft.empty((a.shape(0),), "f32")
            for i in range(a.shape(0)):
                y[i] = a[i] + b[i]
            return y

        with pytest.raises(InvalidProgram) as exc:
            build(f)(np.zeros(3, np.float32), np.zeros(4, np.float32))
        msg = str(exc.value)
        assert "'n'" in msg and "'b'" in msg
        assert "3" in msg and "4" in msg
