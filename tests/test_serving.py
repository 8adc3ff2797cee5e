"""Tests for the serving subsystem (``repro.serving``):

- batch-axis prepending and every batching strategy produce the same
  answers as per-request serial execution on all four workloads;
- fault injection (the ``faults`` fixture) proves crashes and hangs cost
  exactly the affected batch — no request is dropped or run twice;
- admission control rejects over-quota and over-capacity submissions
  synchronously;
- batch composition is deterministic under a fixed clock.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.runtime import metrics
from repro.serving import (BatchingUnsupported, ServedWorkload, Server,
                           StackStrategy, batch_axis_prepend,
                           default_endpoints)
from repro.workloads import gat, longformer, softras, subdivnet

WORKLOADS = ("subdivnet", "longformer", "softras", "gat")


def reference_for(name, arrays, scalars):
    if name == "subdivnet":
        return subdivnet.reference(
            {"adj": arrays[0], "e": arrays[1], "w": arrays[2]})
    if name == "longformer":
        return longformer.reference(
            {"q": arrays[0], "k": arrays[1], "v": arrays[2],
             "w": scalars["w"]})
    if name == "softras":
        return softras.reference({"verts": arrays[0], "px": arrays[1]})
    return gat.reference(
        {"indptr": arrays[0], "indices": arrays[1], "h": arrays[2],
         "wmat": arrays[3], "att_s": arrays[4], "att_d": arrays[5]})


@pytest.fixture(autouse=True)
def _fresh_serving_stats():
    metrics.reset_serving_stats()
    yield
    metrics.reset_serving_stats()


# ---------------------------------------------------------------------------
# batching correctness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", WORKLOADS)
def test_batched_results_match_serial(name):
    eps = default_endpoints(backend="pycode", names=[name])
    traffic = eps[name].gen_requests(6, seed=11)
    with Server(eps, mode="thread", workers=2, max_batch=3,
                max_wait_s=0.01) as srv:
        pendings = [srv.submit(name, a, s) for a, s in traffic]
        for (arrays, scalars), p in zip(traffic, pendings):
            resp = p.result(timeout=120)
            assert resp.ok, (resp.status, resp.error)
            ref = reference_for(name, arrays, scalars)
            np.testing.assert_allclose(resp.value, ref, rtol=1e-3,
                                       atol=1e-4)
    st = metrics.serving_stats()
    assert st["admitted"] == 6
    assert st["completed"] == 6
    assert st["batches"] >= 2  # really coalesced, not one-by-one


def test_stack_batching_actually_batches():
    eps = default_endpoints(backend="pycode", names=["subdivnet"])
    traffic = eps["subdivnet"].gen_requests(4, seed=0)
    with Server(eps, mode="thread", workers=1, max_batch=4,
                max_wait_s=0.2) as srv:
        responses = [p.result(timeout=120) for p in
                     srv.submit_many("subdivnet", traffic)]
    assert {r.batch_size for r in responses} == {4}
    assert len({r.batch_id for r in responses}) == 1


def test_ragged_longformer_pad_and_mask():
    """Variable-length sequences batch via pad-and-mask and match the
    per-request reference exactly (padding never leaks in)."""
    eps = default_endpoints(backend="pycode", names=["longformer"])
    traffic = eps["longformer"].gen_requests(5, seed=7)
    lens = {a[0].shape[0] for a, _ in traffic}
    assert len(lens) > 1  # genuinely ragged mix
    with Server(eps, mode="thread", workers=1, max_batch=5,
                max_wait_s=0.2) as srv:
        responses = [p.result(timeout=120) for p in
                     srv.submit_many("longformer", traffic)]
    assert len({r.batch_id for r in responses}) == 1  # one ragged batch
    for (arrays, scalars), resp in zip(traffic, responses):
        assert resp.ok, resp.error
        assert resp.value.shape == arrays[0].shape  # true length back
        np.testing.assert_allclose(
            resp.value, reference_for("longformer", arrays, scalars),
            rtol=1e-3, atol=1e-4)
    assert metrics.serving_stats()["pad_elements"] > 0


def test_ragged_gat_concat_with_offsets():
    """Variable-size graphs batch as one disjoint union through the
    unbatched program; outputs split back by node offsets."""
    eps = default_endpoints(backend="pycode", names=["gat"])
    traffic = eps["gat"].gen_requests(5, seed=9)
    sizes = {a[0].shape[0] for a, _ in traffic}
    assert len(sizes) > 1  # genuinely ragged mix
    with Server(eps, mode="thread", workers=1, max_batch=5,
                max_wait_s=0.2) as srv:
        responses = [p.result(timeout=120) for p in
                     srv.submit_many("gat", traffic)]
    assert len({r.batch_id for r in responses}) == 1
    for (arrays, scalars), resp in zip(traffic, responses):
        assert resp.ok, resp.error
        assert resp.value.shape[0] == arrays[0].shape[0] - 1
        np.testing.assert_allclose(
            resp.value, reference_for("gat", arrays, scalars),
            rtol=1e-3, atol=1e-4)
    # concat adds no padding
    assert metrics.serving_stats()["pad_elements"] == 0


def test_gat_different_weights_never_share_a_bucket():
    eps = default_endpoints(backend="pycode", names=["gat"])
    ep = eps["gat"]
    (arrays, scalars), = ep.gen_requests(1, seed=0)
    other = list(arrays)
    other[3] = arrays[3] + 1.0  # different model weights
    key_a = ep.strategy.bucket_key(arrays, scalars)
    key_b = ep.strategy.bucket_key(other, scalars)
    assert key_a != key_b


def test_batch_axis_prepend_memoized_and_guarded():
    import repro as ft
    from repro.ir import For, Func

    @ft.transform
    def prog(x: ft.Tensor[("n",), "f32", "input"]):
        y = ft.zeros((x.shape(0),), "f32")
        for i in range(x.shape(0)):
            y[i] = x[i] * 2.0
        return y

    batched = batch_axis_prepend(prog)
    assert batched.name.endswith("_batched")
    # the endpoint keeps one batched Func: the Server names a variant by
    # identity (kind_of) when it ships the kind to pool workers
    ep = ServedWorkload("double", lambda: prog, StackStrategy(),
                        gen_requests=None)
    assert ep.batched_func() is ep.batched_func()
    assert ep.kind_of(ep.batched_func()) == "batched"
    # the new batch-size scalar is threaded through the driver
    assert len(batched.scalar_params) == len(prog.func.scalar_params) + 1

    # an interface tensor whose VarDef hides under a loop cannot be
    # hoisted; the transform must refuse, not mis-batch
    func = prog.func
    bad = Func(func.name + "_nested", list(func.params),
               list(func.returns), For("ii", 0, 1, func.body),
               scalar_params=list(func.scalar_params))
    with pytest.raises(BatchingUnsupported):
        batch_axis_prepend(bad)


# ---------------------------------------------------------------------------
# fault injection: crashes and hangs cost one batch, never a request
# ---------------------------------------------------------------------------

def test_crash_isolated_to_failing_endpoint(faults):
    faults("crash:gat")
    eps = default_endpoints(backend="pycode",
                            names=["gat", "subdivnet"])
    with Server(eps, mode="process", workers=2, max_batch=4,
                max_wait_s=0.01) as srv:
        gps = [srv.submit("gat", a, s) for a, s in
               eps["gat"].gen_requests(4, seed=3)]
        sps = [srv.submit("subdivnet", a, s) for a, s in
               eps["subdivnet"].gen_requests(4, seed=3)]
        gres = [p.result(timeout=120) for p in gps]
        sres = [p.result(timeout=120) for p in sps]
    # every request resolved exactly once; the crash cost the gat batch
    assert all(r.status == "failed" for r in gres)
    assert all(r.ok for r in sres)
    st = metrics.serving_stats()
    assert st["admitted"] == 8
    assert st["completed"] + st["failed"] == 8  # none dropped
    assert st["worker_respawns"] >= 1


def test_hang_times_out_and_respawns(faults):
    faults("hang:gat")
    eps = default_endpoints(backend="pycode", names=["gat"])
    with Server(eps, mode="process", workers=1, max_batch=4,
                max_wait_s=0.01, timeout_s=1.0) as srv:
        pendings = [srv.submit("gat", a, s) for a, s in
                    eps["gat"].gen_requests(2, seed=3)]
        responses = [p.result(timeout=120) for p in pendings]
    assert all(r.status == "timeout" for r in responses)
    st = metrics.serving_stats()
    assert st["timed_out"] == 2
    assert st["worker_respawns"] >= 1


def test_thread_mode_fault_degrades_to_failure(faults):
    faults("crash:subdivnet")
    eps = default_endpoints(backend="pycode", names=["subdivnet"])
    with Server(eps, mode="thread", workers=1, max_batch=2,
                max_wait_s=0.01) as srv:
        pendings = [srv.submit("subdivnet", a, s) for a, s in
                    eps["subdivnet"].gen_requests(2, seed=0)]
        responses = [p.result(timeout=120) for p in pendings]
    assert all(r.status == "failed" for r in responses)
    assert all("injected" in r.error for r in responses)


def test_no_request_lost_or_double_run_under_faults(faults):
    """Mixed healthy/crashing traffic: every admitted request resolves
    exactly once and belongs to exactly one executed batch."""
    faults("crash:longformer")
    eps = default_endpoints(backend="pycode",
                            names=["longformer", "subdivnet"])
    with Server(eps, mode="process", workers=2, max_batch=3,
                max_wait_s=0.01) as srv:
        pendings = []
        for name in ("longformer", "subdivnet"):
            pendings += [(name, srv.submit(name, a, s)) for a, s in
                         eps[name].gen_requests(6, seed=5)]
        responses = [(n, p.result(timeout=120)) for n, p in pendings]
    assert len(responses) == 12
    assert all(p.done() for _n, p in pendings)
    # each request appears in exactly one batch (ids unique per request)
    seen = [r.request_id for _n, r in responses]
    assert len(set(seen)) == len(seen)
    st = metrics.serving_stats()
    assert st["completed"] + st["failed"] + st["timed_out"] == 12
    assert st["batched_requests"] == 12  # each ran in exactly one batch


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

def test_quota_rejection_per_tenant():
    eps = default_endpoints(backend="pycode", names=["subdivnet"])
    traffic = eps["subdivnet"].gen_requests(4, seed=0)
    srv = Server(eps, mode="thread", workers=1, max_batch=4,
                 max_wait_s=60.0, quotas={"small": 2}, start=False)
    out = [srv.submit("subdivnet", a, s, tenant="small")
           for a, s in traffic]
    rejected = [p.result(timeout=1) for p in out[2:]]
    assert all(r.status == "rejected" for r in rejected)
    assert all("quota" in r.error for r in rejected)
    # other tenants are unaffected
    ok = srv.submit("subdivnet", *traffic[0], tenant="big")
    assert not ok.done()
    while srv.poll(force=True):
        pass
    assert ok.result(timeout=1).ok
    assert [p.result(timeout=1).ok for p in out[:2]] == [True, True]
    st = metrics.serving_stats()
    assert st["rejected_quota"] == 2
    assert st["per_tenant"]["small"]["rejected"] == 2
    srv.close()


def test_queue_backpressure_rejection():
    eps = default_endpoints(backend="pycode", names=["subdivnet"])
    traffic = eps["subdivnet"].gen_requests(5, seed=0)
    srv = Server(eps, mode="thread", workers=1, max_batch=8,
                 max_wait_s=60.0, queue_limit=3, start=False)
    out = [srv.submit("subdivnet", a, s) for a, s in traffic]
    statuses = ["rejected" if p.done() else "queued" for p in out]
    assert statuses == ["queued"] * 3 + ["rejected"] * 2
    assert metrics.serving_stats()["rejected_queue"] == 2
    while srv.poll(force=True):
        pass
    assert all(p.result(timeout=1).ok for p in out[:3])
    srv.close()


def test_unknown_endpoint_rejected_synchronously():
    eps = default_endpoints(backend="pycode", names=["subdivnet"])
    with Server(eps, mode="thread", workers=1, start=False) as srv:
        p = srv.submit("nope", [np.zeros(3, np.float32)])
        assert p.done()
        assert p.result().status == "rejected"


# ---------------------------------------------------------------------------
# determinism under a fixed clock
# ---------------------------------------------------------------------------

def _fixed_clock_run(eps, traffic):
    """Manual-mode run under a controlled clock; returns the batch
    composition as request-submission-index -> (batch_id, batch_size)."""
    t = [0.0]
    srv = Server(eps, mode="thread", workers=1, max_batch=3,
                 max_wait_s=0.010, clock=lambda: t[0], start=False)
    pendings = []
    for i, (arrays, scalars) in enumerate(traffic):
        pendings.append(srv.submit("subdivnet", arrays, scalars))
        t[0] += 0.004  # 4ms between arrivals; window 10ms, batch cap 3
        srv.poll()
    while srv.poll(force=True):
        pass
    srv.close()
    out = [p.result(timeout=1) for p in pendings]
    assert all(r.ok for r in out)
    return [(r.batch_id, r.batch_size) for r in out]


def test_batch_composition_deterministic_under_fixed_clock():
    eps = default_endpoints(backend="pycode", names=["subdivnet"])
    traffic = eps["subdivnet"].gen_requests(8, seed=2)
    first = _fixed_clock_run(eps, traffic)
    second = _fixed_clock_run(eps, traffic)
    assert first == second
    # the window actually splits the stream: several distinct batches
    assert len({b for b, _s in first}) >= 2


def test_deadline_expired_in_queue_times_out():
    eps = default_endpoints(backend="pycode", names=["subdivnet"])
    traffic = eps["subdivnet"].gen_requests(1, seed=0)
    t = [0.0]
    srv = Server(eps, mode="thread", workers=1, max_wait_s=0.01,
                 timeout_s=0.5, clock=lambda: t[0], start=False)
    p = srv.submit("subdivnet", *traffic[0])
    t[0] = 1.0  # deadline long gone before any flush
    srv.poll(force=True)
    r = p.result(timeout=1)
    assert r.status == "timeout"
    assert metrics.serving_stats()["timed_out"] == 1
    srv.close()


# ---------------------------------------------------------------------------
# concurrency: parallel submitters against one server
# ---------------------------------------------------------------------------

def test_concurrent_submitters_all_served():
    eps = default_endpoints(backend="pycode", names=["subdivnet"])
    traffic = eps["subdivnet"].gen_requests(12, seed=4)
    results = {}
    with Server(eps, mode="thread", workers=2, max_batch=4,
                max_wait_s=0.005) as srv:
        def client(cid):
            ps = [srv.submit("subdivnet", a, s,
                             tenant=f"client{cid}")
                  for a, s in traffic[cid * 4:(cid + 1) * 4]]
            results[cid] = [p.result(timeout=120) for p in ps]

        threads = [threading.Thread(target=client, args=(cid,))
                   for cid in range(3)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    for cid, rs in results.items():
        assert len(rs) == 4
        for (arrays, scalars), r in zip(
                traffic[cid * 4:(cid + 1) * 4], rs):
            assert r.ok, r.error
            np.testing.assert_allclose(
                r.value, reference_for("subdivnet", arrays, scalars),
                rtol=1e-3, atol=1e-4)
    st = metrics.serving_stats()
    assert sorted(st["per_tenant"]) == ["client0", "client1", "client2"]


def test_asubmit_resolves_in_event_loop():
    import asyncio

    eps = default_endpoints(backend="pycode", names=["subdivnet"])
    traffic = eps["subdivnet"].gen_requests(4, seed=5)

    async def drive(srv):
        resps = await asyncio.gather(*[
            srv.asubmit("subdivnet", a, s, tenant="async")
            for a, s in traffic])
        return resps

    with Server(eps, mode="thread", workers=1, max_batch=4,
                max_wait_s=0.005) as srv:
        resps = asyncio.run(drive(srv))
    for (arrays, scalars), r in zip(traffic, resps):
        assert r.ok, r.error
        np.testing.assert_allclose(
            r.value, reference_for("subdivnet", arrays, scalars),
            rtol=1e-3, atol=1e-4)


# ---------------------------------------------------------------------------
# work-conserving flush: an idle dispatcher never sits out the window,
# batches form while every dispatcher is busy
# ---------------------------------------------------------------------------

class GatedStack(StackStrategy):
    """StackStrategy whose first ``collate`` parks the dispatcher until
    the test opens the gate; records which request ids ran."""

    def __init__(self):
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.collated = []

    def collate(self, endpoint, requests):
        self.entered.set()
        assert self.gate.wait(timeout=30)
        self.collated += [r.id for r in requests]
        return super().collate(endpoint, requests)


def _gated_endpoint():
    eps = default_endpoints(backend="pycode", names=["subdivnet"])
    eps["subdivnet"].warm()
    eps["subdivnet"].strategy = GatedStack()
    return eps, eps["subdivnet"].strategy


def test_idle_dispatcher_flushes_without_waiting_for_the_window():
    eps = default_endpoints(backend="pycode", names=["subdivnet"])
    eps["subdivnet"].warm()
    (arrays, scalars), = eps["subdivnet"].gen_requests(1, seed=0)
    with Server(eps, mode="thread", workers=1, max_batch=8,
                max_wait_s=5.0) as srv:
        t0 = time.monotonic()
        resp = srv.submit("subdivnet", arrays, scalars).result(timeout=30)
        waited = time.monotonic() - t0
    assert resp.ok, resp.error
    assert resp.batch_size == 1
    assert waited < 0.5


def test_arrivals_batch_while_the_dispatcher_is_busy():
    eps, gated = _gated_endpoint()
    traffic = eps["subdivnet"].gen_requests(6, seed=3)
    with Server(eps, mode="thread", workers=1, max_batch=8,
                max_wait_s=5.0) as srv:
        first = srv.submit("subdivnet", *traffic[0])
        assert gated.entered.wait(timeout=30)   # dispatcher is inside
        rest = [srv.submit("subdivnet", a, s) for a, s in traffic[1:]]
        gated.gate.set()
        first = first.result(timeout=30)
        rest = [p.result(timeout=30) for p in rest]
    assert first.ok and first.batch_size == 1
    assert all(r.ok for r in rest)
    assert {r.batch_size for r in rest} == {5}
    assert len({r.batch_id for r in rest}) == 1
    for (arrays, scalars), r in zip(traffic[1:], rest):
        np.testing.assert_allclose(
            r.value, reference_for("subdivnet", arrays, scalars),
            rtol=1e-3, atol=1e-4)


def test_close_drains_a_nonempty_queue_exactly_once():
    eps, gated = _gated_endpoint()
    traffic = eps["subdivnet"].gen_requests(7, seed=4)
    srv = Server(eps, mode="thread", workers=1, max_batch=3,
                 max_wait_s=5.0)
    pendings = [srv.submit("subdivnet", *traffic[0])]
    assert gated.entered.wait(timeout=30)
    pendings += [srv.submit("subdivnet", a, s) for a, s in traffic[1:]]
    closer = threading.Thread(target=srv.close)
    closer.start()                 # blocks joining the parked dispatcher
    gated.gate.set()
    closer.join(timeout=60)
    assert not closer.is_alive()
    responses = [p.result(timeout=1) for p in pendings]
    assert all(r.ok for r in responses)
    assert sorted(gated.collated) == sorted(r.request_id
                                            for r in responses)
    st = metrics.serving_stats()
    assert st["admitted"] == st["completed"] == 7
    assert st["batched_requests"] == 7
    assert srv.submit("subdivnet", *traffic[0]).result().status == \
        "rejected"


def test_close_without_drain_fails_the_queue_and_runs_none_of_it():
    eps, gated = _gated_endpoint()
    traffic = eps["subdivnet"].gen_requests(5, seed=5)
    srv = Server(eps, mode="thread", workers=1, max_batch=3,
                 max_wait_s=5.0)
    first = srv.submit("subdivnet", *traffic[0])
    assert gated.entered.wait(timeout=30)
    rest = [srv.submit("subdivnet", a, s) for a, s in traffic[1:]]
    closer = threading.Thread(target=srv.close, kwargs={"drain": False})
    closer.start()
    failed = [p.result(timeout=30) for p in rest]  # before the gate opens
    gated.gate.set()
    closer.join(timeout=60)
    assert not closer.is_alive()
    assert first.result(timeout=1).ok              # in flight: finishes
    assert [r.status for r in failed] == ["failed"] * 4
    assert all(r.error == "server closed" for r in failed)
    assert gated.collated == [first.result().request_id]
    st = metrics.serving_stats()
    assert st["admitted"] == 5
    assert st["completed"] == 1 and st["failed"] == 4


# ---------------------------------------------------------------------------
# malformed payloads are rejected, never raised
# ---------------------------------------------------------------------------

def test_submit_rejects_a_malformed_payload():
    eps = default_endpoints(backend="pycode", names=["subdivnet", "gat"])
    with Server(eps, mode="thread", workers=1, start=False) as srv:
        p = srv.submit("subdivnet", [[1, 2, 3]])     # a list: no .shape
        assert p.done()
        assert p.result().status == "rejected"
        assert "malformed payload" in p.result().error
        assert srv.submit("subdivnet", None).result().status == \
            "rejected"                               # not even iterable
        # too few arrays for the CSR strategy: resolves, never raises
        (arrays, scalars), = eps["gat"].gen_requests(1, seed=0)
        short = srv.submit("gat", arrays[:2], scalars)
        while srv.poll(force=True):
            pass
        assert short.result(timeout=1).status in ("rejected", "failed")
    st = metrics.serving_stats()
    assert st["rejected_queue"] >= 2
    assert st["submitted"] == 3


def test_submit_many_admits_the_rest_of_a_wave():
    eps = default_endpoints(backend="pycode", names=["subdivnet"])
    good = eps["subdivnet"].gen_requests(3, seed=6)
    wave = [good[0], ([[1, 2, 3]], {}), good[1], "xy", good[2]]
    with Server(eps, mode="thread", workers=1, max_batch=8) as srv:
        responses = [p.result(timeout=120)
                     for p in srv.submit_many("subdivnet", wave)]
    assert [r.status for r in responses] == \
        ["ok", "rejected", "ok", "rejected", "ok"]
    assert all("malformed payload" in responses[i].error for i in (1, 3))
    for (arrays, scalars), r in zip(good, responses[::2]):
        np.testing.assert_allclose(
            r.value, reference_for("subdivnet", arrays, scalars),
            rtol=1e-3, atol=1e-4)
    st = metrics.serving_stats()
    assert st["admitted"] == 3 and st["rejected_queue"] == 2


# ---------------------------------------------------------------------------
# serving counters under concurrent dispatchers and submitters
# ---------------------------------------------------------------------------

def _tiny_endpoint():
    """A kernel of a few microseconds: the counters are the work."""
    import repro as ft
    from repro.serving import ServedWorkload

    @ft.transform
    def double(x: ft.Tensor[("n",), "f32", "input"]):
        y = ft.zeros((x.shape(0),), "f32")
        for i in range(x.shape(0)):
            y[i] = x[i] * 2.0
        return y

    def gen(n, seed=0):
        return [([np.full(4, seed + i, np.float32)], {})
                for i in range(n)]

    return ServedWorkload("tiny", lambda: double, StackStrategy(), gen,
                          backend="pycode").warm()


def test_serving_counters_lose_no_update_under_contention():
    ep = _tiny_endpoint()
    traffic = ep.gen_requests(16)
    per_thread, n_threads = 1000, 4
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Server({"tiny": ep}, mode="thread", workers=4, max_batch=8,
                    queue_limit=2 * per_thread * n_threads) as srv:
            def client(cid):
                ps = [srv.submit("tiny", *traffic[i % 16],
                                 tenant=f"t{cid}")
                      for i in range(per_thread)]
                for i, p in enumerate(ps):
                    r = p.result(timeout=120)
                    assert r.ok and r.value[0] == 2.0 * (i % 16)

            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(n_threads)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=300)
            assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(old)
    st = metrics.serving_stats()
    assert st["admitted"] == per_thread * n_threads
    assert st["completed"] + st["failed"] + st["timed_out"] == \
        st["admitted"]
    assert st["batched_requests"] == st["admitted"]
    assert sum(size * n for size, n in st["batch_size_hist"].items()) \
        == st["admitted"]
    assert sum(row["completed"] + row["failed"]
               for row in st["per_tenant"].values()) == st["admitted"]
