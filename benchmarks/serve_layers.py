"""Per-layer cost of a served wave at batch 64.

Reproduces the "served batch at 64" table of ``docs/PERFORMANCE.md``
("Request-path budget"): the four default endpoints on backend ``c``,
``Server(start=False, max_batch=64)`` driven by ``poll(force=True)``,
waves of 256 requests (four batches). Prints, per endpoint, the median
over the waves of the microseconds per wave spent in ``submit_many``,
``collate``, the batched kernel call, ``split``, the rest of ``poll``
(pop, deadline check, resolve) and the whole wave, collecting the 256
responses included. Everything runs on a helper thread: a C kernel on
the main thread of a serving process halves batched throughput (one
OpenMP team per initial thread).

    PYTHONPATH=src python benchmarks/serve_layers.py [--waves 40] [--seed 1]
"""

import argparse
import statistics
import threading
import time

from repro.serving import Server, default_endpoints

LAYERS = ("submit", "collate", "call", "split", "resolve", "wave")
WAVE = 256


def probe(waves: int, seed: int) -> dict:
    spent = dict.fromkeys(("collate", "call", "split"), 0.0)

    def timed(layer, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[layer] += time.perf_counter() - t0
        return wrapper

    eps = default_endpoints(backend="c")
    for ep in eps.values():
        ep.warm()
        ep.strategy.collate = timed("collate", ep.strategy.collate)
        ep.strategy.split = timed("split", ep.strategy.split)
        ep.executable = (lambda func, build=ep.executable:
                         timed("call", build(func)))
    rows = {}
    with Server(eps, mode="thread", workers=1, max_batch=64,
                queue_limit=4096, start=False) as srv:
        for name, ep in eps.items():
            payloads = ep.gen_requests(WAVE, seed)
            per = {layer: [] for layer in LAYERS}
            for wave in range(waves + 1):  # wave 0 makes the bind plans
                spent.update(dict.fromkeys(spent, 0.0))
                t0 = time.perf_counter()
                pending = srv.submit_many(name, payloads)
                t1 = time.perf_counter()
                while srv.poll(force=True):
                    pass
                t2 = time.perf_counter()
                if not all(p.result().ok for p in pending):
                    raise RuntimeError(f"{name}: a request failed")
                t3 = time.perf_counter()
                if wave:
                    per["submit"].append(t1 - t0)
                    for layer, s in spent.items():
                        per[layer].append(s)
                    per["resolve"].append(t2 - t1 - sum(spent.values()))
                    per["wave"].append(t3 - t0)
            rows[name] = {layer: statistics.median(v) * 1e6
                          for layer, v in per.items()}
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--waves", type=int, default=40)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    box = {}
    t = threading.Thread(target=lambda: box.update(
        rows=probe(args.waves, args.seed)))
    t.start()
    t.join()
    print("| endpoint | " + " | ".join(LAYERS) + " |")
    print("|---" * (len(LAYERS) + 1) + "|")
    for name, row in box["rows"].items():
        print(f"| {name} | " + " | ".join(f"{row[k]:.0f}" for k in LAYERS)
              + " |")


if __name__ == "__main__":
    main()
