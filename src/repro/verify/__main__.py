"""CLI: ``python -m repro.verify <target> [...]``.

Targets are paper workload names (``subdivnet``, ``longformer``,
``softras``, ``gat``), the word ``all``, or paths to Python files that
define staged programs (every ``repro.Program`` found in the file's
namespace is verified).

Exits non-zero iff any target has error-severity findings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Tuple

from ..analysis.verify import verify
from ..errors import VerificationError
from ..frontend.staging import Program
from ..pipeline.manager import instrumentation


def _workload_targets(names) -> List[Tuple[str, object]]:
    from ..workloads import ALL

    out = []
    for name in names:
        if name not in ALL:
            raise SystemExit(
                f"unknown workload {name!r}; choose from "
                f"{sorted(ALL)} or pass a .py file")
        out.append((name, ALL[name].make_program()))
    return out


def _file_targets(path: str) -> List[Tuple[str, object]]:
    namespace = {"__name__": f"<verify {os.path.basename(path)}>",
                 "__file__": os.path.abspath(path)}
    with open(path) as f:
        code = compile(f.read(), os.path.abspath(path), "exec")
    exec(code, namespace)
    out = [(f"{os.path.basename(path)}:{k}", v)
           for k, v in namespace.items() if isinstance(v, Program)]
    if not out:
        raise SystemExit(f"{path}: no staged repro.Program objects found")
    return out


def _cost_env(name: str, func) -> dict:
    """Concrete shape values for a *workload* target, from its default
    ``make_data()`` (file targets analyze symbolically)."""
    from ..analysis.cost import infer_scalar_env
    from ..workloads import ALL

    mod = ALL.get(name)
    if mod is None or not hasattr(mod, "make_data"):
        return {}
    data = mod.make_data()
    # workload program params are named after the data dict's keys;
    # ints in the dict (e.g. longformer's window) are scalar params
    return infer_scalar_env(func, data, data)


def _render_cost(est, findings) -> str:
    c = est.counts
    tag = "exact" if est.exact else ("sound" if est.sound
                                     else "approximate")
    lines = [
        f"cost [{est.backend}/{est.target_name}] ({tag}):",
        f"  ops: {c.flops} flops, {c.int_ops} int, {c.loads} loads, "
        f"{c.stores} stores, {c.reduces} reduces, "
        f"{c.lib_calls} lib calls, {c.iters} loop iters",
        f"  time proxy {est.time_proxy:.1f}  "
        f"parallelism {est.parallelism:.2f}x  "
        f"stride penalty {est.stride_penalty:.0f}  "
        f"footprint {est.footprint_bytes} B",
    ]
    rows = sorted(est.loops, key=lambda r: -r.total_ops)[:5]
    if rows:
        lines.append("  hottest loops:")
        for r in rows:
            mark = r.parallel or ("vectorize" if r.vectorize else "seq")
            lines.append(
                f"    {r.sid} for {r.iter_var}: trip {r.trip}"
                f"{'' if r.exact else '~'} x{r.execs} [{mark}] "
                f"{r.total_ops} ops")
    if est.traffic:
        lines.append("  traffic:")
        for name in sorted(est.traffic):
            t = est.traffic[name]
            lines.append(
                f"    {name}: {t.reads} reads / {t.writes} writes, "
                f"~{t.bytes:.0f} B, innermost {t.stride_class}")
    for d in findings:
        lines.append(f"  {d.code}: {d.message}")
    return "\n".join(lines)


def _diag_json(d) -> dict:
    return {
        "code": d.code,
        "severity": d.severity,
        "message": d.message,
        "sid": d.sid,
        "file": d.span[0] if d.span else None,
        "line": d.span[1] if d.span else None,
        "tensor": d.tensor,
        "path": list(d.path),
    }


def _backend_choices() -> List[str]:
    """Every registered backend, runnable or not: the cost model only
    reads capability tables, so codegen-only backends (cuda) are valid."""
    from ..backend import available_backends

    return available_backends(runnable_only=False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Statically verify staged programs "
                    "(bounds, races, def-use, lint).")
    parser.add_argument("targets", nargs="+",
                        help="workload names, 'all', or .py files")
    parser.add_argument("--level", default="warning",
                        choices=("error", "warning", "info"),
                        help="least severe finding to report")
    parser.add_argument("--optimize", action="store_true",
                        help="auto-schedule each program before verifying "
                             "(checks the IR the backends actually see)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable output")
    parser.add_argument("--no-source", action="store_true",
                        help="do not print source lines under findings")
    parser.add_argument("--cost", action="store_true",
                        help="also report the static cost model: op "
                             "counts, loop trips, memory traffic, "
                             "parallelism, and FT5xx perf findings")
    parser.add_argument("--backend", default="pycode",
                        choices=_backend_choices(),
                        help="backend whose capability table the cost "
                             "model uses (with --cost)")
    args = parser.parse_args(argv)

    names: List[str] = []
    files: List[str] = []
    for t in args.targets:
        if t == "all":
            from ..workloads import ALL

            names.extend(n for n in sorted(ALL) if n not in names)
        elif t.endswith(".py") or os.path.sep in t:
            files.append(t)
        else:
            names.append(t)

    targets = _workload_targets(names)
    for path in files:
        targets.extend(_file_targets(path))

    failed = 0
    json_out = []
    for name, prog in targets:
        func = prog.func
        try:
            if args.optimize:
                # the same Pipeline construction build(optimize=True)
                # uses, so CLI-verified IR is bit-identical (same
                # struct_hash) to what a build compiles
                from ..pipeline import compile_ir

                func = compile_ir(func, optimize=True)
            elif instrumentation()[1]:
                # raw mode still reports on the staged IR, but run the
                # standard build pipeline so per-pass verification
                # covers every lowering pass too
                from ..pipeline import compile_ir

                compile_ir(func, optimize=False)
        except VerificationError as exc:
            failed += 1
            if args.as_json:
                json_out.append({"target": name, "errors": 1,
                                 "warnings": 0, "findings": [],
                                 "pipeline_error": str(exc)})
            else:
                print(f"== {name} ==")
                print(exc)
                print()
            continue
        report = verify(func, level=args.level)
        if report.has_errors:
            failed += 1
        cost = perf = None
        if args.cost:
            from ..analysis.cost import analyze_cost, perf_lint

            env = _cost_env(name, func)
            cost = analyze_cost(func, backend=args.backend,
                                scalar_env=env)
            perf = perf_lint(func, backend=args.backend)
        if args.as_json:
            entry = {
                "target": name,
                "errors": len(report.errors),
                "warnings": len(report.warnings),
                "findings": [_diag_json(d) for d in report.diags],
            }
            if cost is not None:
                entry["cost"] = cost.as_dict()
                entry["cost"]["perf_findings"] = [_diag_json(d)
                                                  for d in perf]
            json_out.append(entry)
        else:
            print(f"== {name} ==")
            print(report.render(show_source=not args.no_source,
                                base_dir=os.getcwd()))
            if cost is not None:
                print(_render_cost(cost, perf))
            print()

    from ..runtime.metrics import verifier_stats

    if args.as_json:
        print(json.dumps({"targets": json_out,
                          "stats": verifier_stats()}, indent=2))
    else:
        stats = verifier_stats()
        print(f"verified {stats['runs']} function(s): "
              f"{stats['passed']} passed, {stats['failed']} failed "
              f"({stats['errors']} error(s), "
              f"{stats['warnings']} warning(s))")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
