"""``python -m repro.cache`` — inspect and manage the persistent cache.

Subcommands:

- ``stats``            what is on disk plus this process's counters
- ``clear``            delete every entry and native artifact
- ``gc``               run LRU eviction against the size budget now
- ``warm <name|all>``  pre-compile workloads into the cache so the next
  process — or CI job, or fleet of tuner workers — starts warm

``REPRO_CACHE_DIR`` points the store somewhere else; see
docs/PERFORMANCE.md for the full knob list.
"""

from __future__ import annotations

import argparse
import json
import sys


def _fmt_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n} B"  # pragma: no cover


def cmd_stats(args) -> int:
    from ..runtime.metrics import disk_cache_stats
    from .store import DiskCache, cache_root

    store = DiskCache(cache_root())  # direct handle: stats work even
    disk = store.disk_stats()        # under REPRO_NO_DISK_CACHE
    if args.json:
        print(json.dumps({"disk": disk, "process": disk_cache_stats()},
                         indent=2))
        return 0
    print(f"cache root      {disk['root']}")
    print(f"schema          {disk['schema']}")
    print(f"ir entries      {disk['ir_entries']}"
          f"  ({_fmt_bytes(disk['ir_bytes'])})")
    for kind, row in sorted(disk["by_kind"].items()):
        print(f"  {kind:<14}{row['entries']}"
              f"  ({_fmt_bytes(row['bytes'])})")
    print(f"native kernels  {disk['native_files']}"
          f"  ({_fmt_bytes(disk['native_bytes'])})")
    print(f"total           {_fmt_bytes(disk['total_bytes'])}"
          f"  of {_fmt_bytes(disk['budget_bytes'])} budget")
    return 0


def cmd_clear(_args) -> int:
    from .store import DiskCache, cache_root

    removed = DiskCache(cache_root()).clear()
    print(f"removed {removed} file(s)")
    return 0


def cmd_gc(_args) -> int:
    from .store import DiskCache, cache_root

    evicted = DiskCache(cache_root()).gc()
    print(f"evicted {evicted} file(s)")
    return 0


def cmd_warm(args) -> int:
    from ..runtime.driver import build
    from ..workloads import ALL

    names = sorted(ALL) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in ALL]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}; "
              f"known: {', '.join(sorted(ALL))} or 'all'",
              file=sys.stderr)
        return 2
    for name in names:
        prog = ALL[name].make_program()
        build(prog, backend=args.backend, optimize=args.optimize)
        print(f"warmed {name} (backend={args.backend}, "
              f"optimize={args.optimize})")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.cache",
        description="manage the persistent compile cache")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("stats", help="show cache contents and counters")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(fn=cmd_stats)
    p = sub.add_parser("clear", help="delete every cache entry")
    p.set_defaults(fn=cmd_clear)
    p = sub.add_parser("gc", help="run LRU eviction now")
    p.set_defaults(fn=cmd_gc)
    p = sub.add_parser("warm", help="pre-compile workloads into the cache")
    p.add_argument("workload", help="workload name or 'all'")
    p.add_argument("--backend", default="c")
    p.add_argument("--optimize", action="store_true")
    p.set_defaults(fn=cmd_warm)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
