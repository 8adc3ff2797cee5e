"""Property tests for the batching strategies (hypothesis), and the
latency window of ``serving_stats()``.

Two oracles:

- ``split(collate(x))`` hands every request back its own data, for
  ``StackStrategy``, ``PadStrategy`` (ragged axis 0 and 1, lengths of 1
  and exact multiples of ``pad_to``) and ``ConcatCSRStrategy`` (one-node
  graphs, graphs with no edges), with one output and with several, at
  batch sizes 1-64; collated arrays equal a naive per-request reference;
- on ``pycode``, a random wave of each default endpoint served as one
  batch answers exactly what each request answers alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import metrics
from repro.serving import (ConcatCSRStrategy, PadStrategy, Request, Server,
                           StackStrategy, default_endpoints)

DTYPES = (np.float32, np.float64, np.int32)


class FakeEndpoint:
    """All a strategy asks of its endpoint: which program to run."""

    def batched_func(self):
        return "batched"

    def pad_func(self):
        return "pad"

    def base_func(self):
        return "base"


EP = FakeEndpoint()


@pytest.fixture(autouse=True)
def _fresh_serving_stats():
    metrics.reset_serving_stats()
    yield
    metrics.reset_serving_stats()


def requests_of(payloads, scalars=None):
    return [Request(i, "fake", list(arrays), dict(scalars or {}),
                    "default", 30.0, 0.0)
            for i, arrays in enumerate(payloads)]


def filled(rng, shape, dtype):
    return (rng.standard_normal(shape) * 10).astype(dtype)


def assert_same(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def assert_round_trip(strategy, outs, requests, expected):
    """``split`` over one output and over all of them returns each
    request's expected arrays."""
    single = strategy.split(EP, outs[0], requests)
    assert len(single) == len(requests)
    for got, want in zip(single, expected):
        assert_same(got, want[0])
    if len(outs) > 1:
        multi = strategy.split(EP, tuple(outs), requests)
        for got, want in zip(multi, expected):
            assert isinstance(got, tuple) and len(got) == len(want)
            for g, w in zip(got, want):
                assert_same(g, w)


# ---------------------------------------------------------------------------
# StackStrategy
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 64),
       shapes=st.lists(st.lists(st.integers(1, 4), max_size=3).map(tuple),
                       min_size=1, max_size=3),
       dtype=st.sampled_from(DTYPES), seed=st.integers(0, 2**16))
def test_stack_split_of_collate_returns_each_request(n, shapes, dtype,
                                                     seed):
    rng = np.random.default_rng(seed)
    reqs = requests_of([[filled(rng, s, dtype) for s in shapes]
                        for _ in range(n)])
    strategy = StackStrategy()
    assert len({strategy.bucket_key(r.arrays, r.scalars)
                for r in reqs}) == 1
    func, arrays, scalars, pad = strategy.collate(EP, reqs)
    assert (func, scalars, pad) == ("batched", {}, 0)
    for i, a in enumerate(arrays):
        assert_same(a, np.array([r.arrays[i] for r in reqs]))
    assert_round_trip(strategy, arrays, reqs, [r.arrays for r in reqs])


# ---------------------------------------------------------------------------
# PadStrategy
# ---------------------------------------------------------------------------

@st.composite
def pad_batches(draw):
    axis = draw(st.sampled_from([0, 1]))
    pad_to = draw(st.integers(1, 8))
    n = draw(st.integers(1, 64))
    length = st.one_of(st.just(1),
                       st.integers(1, 4).map(lambda k: k * pad_to),
                       st.integers(1, 40))
    lens = draw(st.lists(length, min_size=n, max_size=n))
    # ragged arrays carry the length at `axis`; others are dense
    other = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    return axis, pad_to, lens, other, draw(st.sampled_from(DTYPES)), \
        draw(st.integers(0, 2**16))


def ragged_shape(axis, other, length):
    shape = list(other)
    shape.insert(axis, length)
    return tuple(shape)


@settings(max_examples=100, deadline=None)
@given(batch=pad_batches())
def test_pad_split_of_collate_returns_each_request(batch):
    axis, pad_to, lens, other, dtype, seed = batch
    rng = np.random.default_rng(seed)
    dense = (2, 3)
    payloads = [[filled(rng, ragged_shape(axis, other, n), dtype),
                 filled(rng, dense, np.float32),
                 filled(rng, ragged_shape(axis, other, n), dtype)]
                for n in lens]
    reqs = requests_of(payloads, {"w": 4})
    strategy = PadStrategy(ragged_params=(0, 2), axis=axis, pad_to=pad_to)
    assert len({strategy.bucket_key(r.arrays, r.scalars)
                for r in reqs}) == 1
    func, arrays, scalars, pad = strategy.collate(EP, reqs)
    assert (func, scalars) == ("pad", {"w": 4})
    nmax = max(lens)
    nmax += -nmax % pad_to
    real = 0
    for i in (0, 2):
        want = np.zeros((len(reqs),) + ragged_shape(axis, other, nmax),
                        dtype)
        for b, r in enumerate(reqs):
            region = [b] + [slice(None)] * len(want.shape[1:])
            region[1 + axis] = slice(0, lens[b])
            want[tuple(region)] = r.arrays[i]
            real += r.arrays[i].size
        assert_same(arrays[i], want)
    assert_same(arrays[1], np.array([r.arrays[1] for r in reqs]))
    assert_same(arrays[3], np.array(lens, np.int32))
    assert pad == arrays[0].size + arrays[2].size - real
    assert_round_trip(strategy, [arrays[0], arrays[2]], reqs,
                      [(r.arrays[0], r.arrays[2]) for r in reqs])


# ---------------------------------------------------------------------------
# ConcatCSRStrategy
# ---------------------------------------------------------------------------

def random_graph(rng, nodes, max_degree, feats):
    degree = rng.integers(0, max_degree + 1, nodes)
    indptr = np.concatenate([[0], np.cumsum(degree)]).astype(np.int32)
    indices = rng.integers(0, nodes, indptr[-1]).astype(np.int32)
    return indptr, indices, filled(rng, (nodes, feats), np.float32)


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.tuples(st.integers(1, 12), st.integers(0, 3)),
                      min_size=1, max_size=64),
       seed=st.integers(0, 2**16))
def test_csr_split_of_collate_returns_each_request(sizes, seed):
    """Graphs of one node and graphs with no edges (``max_degree`` 0)
    are drawn; the merged graph is the block-diagonal union."""
    rng = np.random.default_rng(seed)
    weights = filled(rng, (4, 2), np.float32)
    reqs = requests_of([[*random_graph(rng, nodes, deg, 4), weights]
                        for nodes, deg in sizes])
    strategy = ConcatCSRStrategy(indptr_param=0, indices_param=1,
                                 node_params=(2,))
    assert len({strategy.bucket_key(r.arrays, r.scalars)
                for r in reqs}) == 1
    func, arrays, scalars, pad = strategy.collate(EP, reqs)
    assert (func, scalars, pad) == ("base", {}, 0)
    indptr, indices, node_off, edge_off = [0], [], [0], 0
    for r in reqs:
        ptr, ix = r.arrays[0], r.arrays[1]
        indptr += [int(p) + edge_off for p in ptr[1:]]
        indices += [int(c) + node_off[-1] for c in ix]
        node_off.append(node_off[-1] + len(ptr) - 1)
        edge_off += len(ix)
    assert_same(arrays[0], np.array(indptr, np.int32))
    assert_same(arrays[1], np.array(indices, np.int32))
    assert_same(arrays[2], np.concatenate([r.arrays[2] for r in reqs]))
    assert arrays[3] is reqs[0].arrays[3]
    # a second per-node output, as a multi-output program would return
    second = np.arange(node_off[-1] * 3, dtype=np.int32).reshape(-1, 3)
    assert_round_trip(strategy, [arrays[2], second], reqs,
                      [(r.arrays[2], second[node_off[b]:node_off[b + 1]])
                       for b, r in enumerate(reqs)])


def test_csr_weights_key_on_exact_bytes_and_shape():
    rng = np.random.default_rng(0)
    graph = random_graph(rng, 3, 2, 4)
    w = filled(rng, (4, 2), np.float32)
    strategy = ConcatCSRStrategy()
    key = strategy.bucket_key([*graph, w], {})
    assert strategy.bucket_key([*graph, w.copy()], {}) == key
    nudged = w.copy()
    nudged.view(np.uint32)[0, 0] ^= 1  # one bit of one weight
    assert strategy.bucket_key([*graph, nudged], {}) != key
    assert strategy.bucket_key([*graph, w.reshape(2, 4)], {}) != key
    assert strategy.bucket_key([*graph, w.astype(np.float64)], {}) != key


# ---------------------------------------------------------------------------
# batched == per-request on pycode, through the server
# ---------------------------------------------------------------------------

POOL = 16


@pytest.fixture(scope="module")
def served():
    eps = default_endpoints(backend="pycode")
    for ep in eps.values():
        ep.warm()
    return eps, {name: ep.gen_requests(POOL, seed=5)
                 for name, ep in eps.items()}


@pytest.mark.parametrize("name", ["subdivnet", "softras", "longformer",
                                  "gat"])
@settings(max_examples=10, deadline=None)
@given(wave=st.lists(st.integers(0, POOL - 1), min_size=1, max_size=64))
def test_batched_equals_per_request_on_pycode(served, name, wave):
    eps, pool = served
    ep = eps[name]
    single = ep.executable(ep.base_func())
    payloads = [pool[name][i] for i in wave]
    srv = Server(eps, mode="thread", workers=1, max_batch=64,
                 start=False)
    pendings = srv.submit_many(name, payloads)
    assert srv.poll(force=True) == 1
    srv.close()
    for (arrays, scalars), p in zip(payloads, pendings):
        resp = p.result(timeout=1)
        assert resp.ok, resp.error
        assert resp.batch_size == len(wave)
        np.testing.assert_allclose(resp.value, single(*arrays, **scalars),
                                   rtol=1e-5, atol=1e-6)


# ---------------------------------------------------------------------------
# the latency window
# ---------------------------------------------------------------------------

def test_latency_window_keeps_the_most_recent_samples():
    """5000 latencies, 64 per batch: the first 2500 at 1 ms, the rest
    at 3 ms. The 4096 kept are the most recent, so p50 is 3 ms."""
    samples = [0.001] * 2500 + [0.003] * 2500
    for i in range(0, len(samples), 64):
        metrics.record_serving_responses("t", "ok", samples[i:i + 64])
    stats = metrics.serving_stats()
    assert stats["completed"] == 5000
    assert stats["latency_samples"] == 4096
    assert stats["latency_p50_s"] == 0.003
    assert stats["latency_p99_s"] == 0.003
