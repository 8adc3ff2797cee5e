"""Tests for the OpTensor baseline framework: operator semantics, graph
autograd, kernel/byte accounting and the simulated-memory limit."""

import numpy as np
import pytest

from repro.baselines import (Device, abs_, add, bmm, cat, div, exp,
                             index_select, leaky_relu, matmul, max_,
                             maximum, mean, mul, pad, prod, relu, reshape,
                             scatter_add, sigmoid, sliding_window, softmax,
                             sub, sum_, tanh, tensor, transpose, vmap,
                             where)
from repro.errors import SimulatedOOM


@pytest.fixture
def dev():
    return Device("test")


class TestOperators:

    def test_elementwise(self, dev, rng):
        x = rng.standard_normal((3, 4)).astype(np.float32)
        y = rng.standard_normal((3, 4)).astype(np.float32)
        a, b = tensor(x, dev), tensor(y, dev)
        np.testing.assert_allclose((a + b).numpy(), x + y)
        np.testing.assert_allclose((a - b).numpy(), x - y)
        np.testing.assert_allclose((a * b).numpy(), x * y)
        np.testing.assert_allclose((a / (b * b + 1.0)).numpy(),
                                   x / (y * y + 1), rtol=1e-6)

    def test_unary(self, dev, rng):
        x = rng.standard_normal(8).astype(np.float32)
        a = tensor(x, dev)
        np.testing.assert_allclose(exp(a).numpy(), np.exp(x), rtol=1e-6)
        np.testing.assert_allclose(tanh(a).numpy(), np.tanh(x), rtol=1e-6)
        np.testing.assert_allclose(relu(a).numpy(), np.maximum(x, 0))
        np.testing.assert_allclose(abs_(a).numpy(), np.abs(x))
        np.testing.assert_allclose(
            leaky_relu(a, 0.1).numpy(), np.where(x > 0, x, 0.1 * x),
            rtol=1e-6)

    def test_reductions(self, dev, rng):
        x = rng.standard_normal((4, 5)).astype(np.float32)
        a = tensor(x, dev)
        np.testing.assert_allclose(sum_(a).numpy(), x.sum(), rtol=1e-5)
        np.testing.assert_allclose(sum_(a, axis=1).numpy(), x.sum(1),
                                   rtol=1e-5)
        np.testing.assert_allclose(max_(a, axis=0).numpy(), x.max(0))
        np.testing.assert_allclose(mean(a).numpy(), x.mean(), rtol=1e-5)

    def test_matmul_softmax(self, dev, rng):
        x = rng.standard_normal((4, 5)).astype(np.float32)
        y = rng.standard_normal((5, 3)).astype(np.float32)
        np.testing.assert_allclose(matmul(tensor(x, dev),
                                          tensor(y, dev)).numpy(),
                                   x @ y, rtol=1e-5)
        s = softmax(tensor(x, dev), axis=1).numpy()
        ref = np.exp(x - x.max(1, keepdims=True))
        ref /= ref.sum(1, keepdims=True)
        np.testing.assert_allclose(s, ref, rtol=1e-5)

    def test_data_movement(self, dev, rng):
        x = rng.standard_normal((5, 3)).astype(np.float32)
        a = tensor(x, dev)
        idx = np.array([4, 0, 2], np.int64)
        np.testing.assert_allclose(
            index_select(a, 0, tensor(idx, dev, dtype=np.int64)).numpy(),
            x[idx])
        np.testing.assert_allclose(
            cat([a, a], axis=0).numpy(), np.concatenate([x, x]))
        np.testing.assert_allclose(
            pad(a, ((1, 1), (0, 0))).numpy(),
            np.pad(x, ((1, 1), (0, 0))))
        np.testing.assert_allclose(transpose(a).numpy(), x.T)
        np.testing.assert_allclose(reshape(a, (3, 5)).numpy(),
                                   x.reshape(3, 5))

    def test_sliding_window(self, dev, rng):
        x = rng.standard_normal((6, 2)).astype(np.float32)
        w = sliding_window(tensor(x, dev), 3).numpy()
        assert w.shape == (4, 3, 2)
        np.testing.assert_allclose(w[1], x[1:4])

    def test_scatter_add(self, dev, rng):
        base = np.zeros((4, 2), np.float32)
        src = rng.standard_normal((5, 2)).astype(np.float32)
        idx = np.array([0, 1, 1, 3, 0], np.int64)
        out = scatter_add(tensor(base, dev), 0, idx,
                          tensor(src, dev)).numpy()
        ref = base.copy()
        np.add.at(ref, idx, src)
        np.testing.assert_allclose(out, ref, rtol=1e-6)


class TestAutograd:

    def test_mul_chain(self, dev, rng):
        x = rng.standard_normal(5).astype(np.float32)
        a = tensor(x, dev, requires_grad=True)
        y = sum_(a * a * 3.0)
        y.backward()
        np.testing.assert_allclose(a.grad, 6 * x, rtol=1e-5)

    def test_matmul_grad(self, dev, rng):
        A = rng.standard_normal((3, 4)).astype(np.float32)
        B = rng.standard_normal((4, 2)).astype(np.float32)
        a = tensor(A, dev, requires_grad=True)
        b = tensor(B, dev, requires_grad=True)
        sum_(matmul(a, b)).backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ B.T,
                                   rtol=1e-5)
        np.testing.assert_allclose(b.grad, A.T @ np.ones((3, 2)),
                                   rtol=1e-5)

    def test_softmax_grad(self, dev, rng):
        x = rng.standard_normal((2, 4)).astype(np.float32)
        og = rng.standard_normal((2, 4)).astype(np.float32)
        a = tensor(x, dev, requires_grad=True)
        softmax(a, axis=1).backward(og)
        s = np.exp(x - x.max(1, keepdims=True))
        s /= s.sum(1, keepdims=True)
        ref = s * (og - (og * s).sum(1, keepdims=True))
        np.testing.assert_allclose(a.grad, ref, rtol=1e-4, atol=1e-6)

    def test_gather_grad(self, dev, rng):
        x = rng.standard_normal((4, 2)).astype(np.float32)
        a = tensor(x, dev, requires_grad=True)
        idx = np.array([1, 1, 3], np.int64)
        sum_(index_select(a, 0, tensor(idx, dev,
                                       dtype=np.int64))).backward()
        ref = np.zeros_like(x)
        np.add.at(ref, idx, 1.0)
        np.testing.assert_allclose(a.grad, ref)

    def test_sliding_window_grad(self, dev, rng):
        x = rng.standard_normal((6, 2)).astype(np.float32)
        a = tensor(x, dev, requires_grad=True)
        sum_(sliding_window(a, 3)).backward()
        counts = np.array([1, 2, 3, 3, 2, 1], np.float32)[:, None]
        np.testing.assert_allclose(a.grad, np.broadcast_to(counts,
                                                           (6, 2)))

    def test_branch_grad_accumulates(self, dev, rng):
        x = rng.standard_normal(4).astype(np.float32)
        a = tensor(x, dev, requires_grad=True)
        y = a * 2.0
        z = sum_(y + y * a)
        z.backward()
        np.testing.assert_allclose(a.grad, 2 + 4 * x, rtol=1e-5)


class TestAccounting:

    def test_kernel_counts(self, rng):
        dev = Device("count")
        a = tensor(rng.standard_normal(16).astype(np.float32), dev)
        b = tensor(rng.standard_normal(16).astype(np.float32), dev)
        dev.reset()
        _ = a + b
        _ = a * b
        assert dev.kernels == 2
        assert dev.kernel_names == ["add", "mul"]

    def test_bytes_accounting(self, rng):
        dev = Device("bytes")
        a = tensor(np.zeros(1000, np.float32), dev)
        dev.reset()
        _ = a + a  # reads a twice, writes the sum
        assert dev.dram_bytes == dev.l2_bytes == 3 * 4000

    def test_views_free(self, rng):
        dev = Device("views")
        a = tensor(np.zeros((10, 10), np.float32), dev)
        dev.reset()
        _ = reshape(a, (100,))
        assert dev.dram_bytes == a.data.nbytes  # its read, no write

    def test_peak_memory_tracked(self):
        dev = Device("peak")
        base = dev.peak_bytes
        t = tensor(np.zeros(1 << 20, np.float32), dev)
        assert dev.peak_bytes - base >= (1 << 20) * 4

    def test_capacity_oom(self):
        dev = Device("tiny", capacity_bytes=1024)
        with pytest.raises(SimulatedOOM):
            tensor(np.zeros(1 << 16, np.float32), dev)

    def test_reset_keeps_live_footprint(self):
        dev = Device("reset")
        a = tensor(np.zeros(1000, np.float32), dev)
        relu(a)  # one kernel; its output dies at once
        dev.reset()
        assert (dev.kernels, dev.dram_bytes) == (0, 0)
        assert dev.current_bytes == dev.peak_bytes == 4000
        del a
        assert dev.current_bytes == 0
        b = tensor(np.zeros(1000, np.float32), dev)
        assert dev.current_bytes == dev.peak_bytes == b.data.nbytes

    def test_backward_counts_kernels(self, rng):
        dev = Device("bwd")
        a = tensor(rng.standard_normal(8).astype(np.float32), dev,
                   requires_grad=True)
        y = sum_(a * a)
        before = dev.kernels
        y.backward()
        assert dev.kernels > before  # gradient kernels are launched


class TestVmap:

    def test_vmap_broadcasts(self, dev, rng):
        def per_item(x):
            return sum_(x * x, axis=-1)

        batched = vmap(per_item)
        x = rng.standard_normal((5, 3)).astype(np.float32)
        out = batched(tensor(x, dev))
        np.testing.assert_allclose(out.numpy(), (x * x).sum(-1),
                                   rtol=1e-5)
