import ctypes
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embnum.embnet import ArchConfig, ResNet1d, build_model
from embnum.errors import NonScalarLoss, ShapeMismatch
from embnum.fixtures import desk_arch
from embnum.nn import SGD, Conv1d, BatchNorm1d, Linear, Tensor
from embnum.nn import ops
from gradcheck import check_gradients, trace_kinks
from oracles import (batchnorm1d_reference, conv1d_reference, maxpool1d_reference,
                     relu_reference, tiled_matmul_reference)


def T(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestTensorBasics:
    def test_arithmetic_with_tensors_and_scalars(self):
        a = T([1.0, 2.0])
        b = T([10.0, 20.0])
        assert (a + b).data.tolist() == [11.0, 22.0]
        assert (a - b).data.tolist() == [-9.0, -18.0]
        assert (a * b).data.tolist() == [10.0, 40.0]
        assert (a + 1.0).data.tolist() == [2.0, 3.0]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            T([1.0, 2.0]) + T([1.0, 2.0, 3.0])

    def test_backward_requires_scalar(self):
        y = T([1.0, 2.0]) * 2.0
        with pytest.raises(NonScalarLoss):
            y.backward()

    def test_simple_chain_gradient(self):
        x = T([3.0])
        y = ((x * x) + x).sum()  # d/dx (x^2 + x) = 2x + 1 = 7
        y.backward()
        assert x.grad.tolist() == [7.0]

    def test_reuse_accumulates(self):
        x = T([2.0])
        y = (x + x).sum()
        y.backward()
        assert x.grad.tolist() == [2.0]

    def test_sqrt_gradient(self):
        x = T([4.0])
        y = x.sqrt().sum()
        y.backward()
        assert x.grad.tolist() == [0.25]

    def test_sum_axis_gradient(self):
        x = T(np.ones((2, 3)))
        y = x.sum(axis=1).sum()
        y.backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_gather_rows_duplicates_accumulate(self):
        x = T([1.0, 2.0, 3.0])
        y = x.gather_rows([0, 0, 2]).sum()
        y.backward()
        assert x.grad.tolist() == [2.0, 0.0, 1.0]

    @pytest.mark.parametrize("data, grads", [
        (np.ones(3), [np.array([-0.0, 1.5, -0.0])]),
        (np.ones(3, dtype=np.float32), [np.array([1 / 3, -0.0, 1e-50])]),
        (np.ones((3, 2)).T, [np.array([[-0.0], [2.5]])]),
        (np.ones(3, dtype=np.float32), [np.array([-0.0, 1.0, 2.0]),
                                        np.array([-0.0, -1.0, 1 / 3])]),
    ], ids=["negative-zero", "float64-into-float32", "broadcast", "second-accumulate"])
    def test_accumulate_gives_the_bits_of_adding_into_zeros(self, data, grads):
        x = Tensor(data, requires_grad=True)
        expected = np.zeros_like(data)
        for g in grads:
            x.accumulate(g)
            expected += g
        assert (x.grad.dtype, x.grad.strides) == (expected.dtype, expected.strides)
        assert x.grad.tobytes() == expected.tobytes()

    def test_grad_not_tracked_through_detached_result(self):
        # a result computed from a copy that needs no gradient records no tape
        x = T([1.0])
        y = Tensor(x.data) + 1.0
        assert (y.requires_grad, y._parents, y._backward) == (False, (), None)
        assert (x * 2.0).requires_grad


class TestOpForwardOracles:
    def test_conv_identity_and_sum_taps(self):
        x = T(np.array([[[1.0, 2.0, 3.0]]]))
        w1 = T(np.array([[[1.0, 0.0]]]))
        w2 = T(np.array([[[1.0, 1.0]]]))
        assert ops.conv1d(x, w1).data.tolist() == [[[1.0, 2.0]]]
        assert ops.conv1d(x, w2).data.tolist() == [[[3.0, 5.0]]]

    def test_conv_stride_padding_bias(self):
        x = T(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        w = T(np.array([[[1.0, 1.0]]]))
        strided = ops.conv1d(x, w, stride=2)
        assert strided.data.tolist() == [[[3.0, 7.0]]]
        padded = ops.conv1d(x, w, padding=1)
        assert padded.data.tolist() == [[[1.0, 3.0, 5.0, 7.0, 4.0]]]

    def test_conv_multi_channel_reduction(self):
        x = T(np.ones((1, 2, 3)))
        w = T(np.full((1, 2, 2), 1.0))
        out = ops.conv1d(x, w)  # 2 channels x kernel 2 of ones -> 4
        assert out.data.tolist() == [[[4.0, 4.0]]]

    def test_relu(self):
        x = T([[-1.0, 0.0, 2.0]])
        y = ops.relu(x)
        assert y.data.tolist() == [[0.0, 0.0, 2.0]]
        y.sum().backward()
        assert x.grad.tolist() == [[0.0, 0.0, 1.0]]

    def test_batchnorm_train_normalizes_and_tracks(self):
        x = T(np.array([[[1.0, 3.0]]]))
        gamma, beta = T([1.0]), T([0.0])
        rm, rv = np.zeros(1), np.ones(1)
        y = ops.batchnorm1d(x, gamma, beta, rm, rv)
        expect = 1.0 / np.sqrt(1.0 + 1e-5)
        assert np.allclose(y.data, [[[-expect, expect]]])
        assert np.allclose(rm, [0.2])   # 0.9 * 0 + 0.1 * mean(2)
        assert np.allclose(rv, [1.0])   # 0.9 * 1 + 0.1 * var(1)

    def test_batchnorm_eval_uses_running_stats(self):
        # the eval form lives only in the reference that the frozen plan is
        # checked against; this pins it to a hand-computed value
        x = T(np.array([[[5.0, 7.0]]]))
        gamma, beta = T([2.0]), T([1.0])
        rm, rv = np.array([5.0]), np.array([4.0])
        y = batchnorm1d_reference(x, gamma, beta, rm, rv, training=False)
        inv = 1.0 / np.sqrt(4.0 + 1e-5)
        assert np.allclose(y.data, [[[1.0, 1.0 + 2.0 * 2.0 * inv]]])
        assert rm.tolist() == [5.0] and rv.tolist() == [4.0]  # untouched

    def test_maxpool(self):
        x = T(np.array([[[1.0, 5.0, 2.0, 4.0]]]))
        y = ops.maxpool1d(x, kernel=2, stride=2)
        assert y.data.tolist() == [[[5.0, 4.0]]]

    def test_maxpool_tie_routes_grad_to_first(self):
        x = T(np.array([[[3.0, 3.0]]]))
        y = ops.maxpool1d(x, kernel=2, stride=2)
        y.sum().backward()
        assert x.grad.tolist() == [[[1.0, 0.0]]]

    def test_maxpool_padding_never_wins(self):
        x = T(np.array([[[-1.0, -2.0]]]))
        y = ops.maxpool1d(x, kernel=3, stride=2, padding=1)
        assert y.data.tolist() == [[[-1.0]]]

    # the backward's index is each window's first tap equal to its max: the
    # left 3 of [3, 3], and in an all-zero relu map, where padding never wins,
    # each window's first real position
    @pytest.mark.parametrize("data, kernel, padding, grad", [
        ([1.0, 3.0, 3.0, 2.0], 2, 0, [0.0, 2.0, 1.0, 0.0]),
        ([0.0, 0.0, 0.0], 3, 1, [2.0, 1.0, 0.0]),
    ], ids=["overlapping-tie", "all-zero-padded"])
    def test_maxpool_routes_grad_to_each_windows_first_max(self, data, kernel, padding, grad):
        x = T(np.array([[data]]))
        ops.maxpool1d(x, kernel=kernel, stride=1, padding=padding).sum().backward()
        assert x.grad.tolist() == [[grad]]

    def test_global_avgpool(self):
        x = T(np.array([[[2.0, 4.0, 6.0]]]))
        assert ops.global_avgpool1d(x).data.tolist() == [[4.0]]

    def test_linear(self):
        x = T(np.array([[1.0, 2.0]]))
        w = T(np.array([[1.0, 1.0], [1.0, -1.0]]))
        b = T(np.array([0.5, 0.0]))
        assert ops.linear(x, w, b).data.tolist() == [[3.5, -1.0]]


class TestConvBatchInvariance:
    def test_batched_rows_equal_single_rows_bitwise(self):
        # float32 reduction order must not depend on batch size
        rng = np.random.default_rng(0)
        for b, c_in, c_out, length, k, stride, pad in [
            (3, 16, 32, 2, 3, 2, 1),
            (5, 1, 8, 100, 7, 2, 3),
            (4, 8, 8, 13, 3, 1, 1),
        ]:
            x = rng.standard_normal((b, c_in, length)).astype(np.float32)
            w = Tensor(rng.standard_normal((c_out, c_in, k)).astype(np.float32))
            full = ops.conv1d(Tensor(x), w, stride=stride, padding=pad).data
            for i in range(b):
                one = ops.conv1d(Tensor(x[i : i + 1]), w,
                                 stride=stride, padding=pad).data
                assert full[i : i + 1].tobytes() == one.tobytes()

    @pytest.mark.parametrize("b", [1, 2, 3, 7, 8, 9, 15, 16, 17, 33])
    def test_rows_straddling_the_tile_equal_single_rows_bitwise(self, b):
        # B * L_out GEMM rows land on both sides of the 8-row tile edge
        rng = np.random.default_rng(b)
        for c_in, c_out, length, k, stride, pad in [
            (16, 32, 2, 3, 2, 1),   # L_out 1: rows = B
            (8, 8, 5, 3, 1, 1),     # L_out 5
            (4, 16, 13, 3, 2, 1),   # L_out 7
        ]:
            x = rng.standard_normal((b, c_in, length)).astype(np.float32)
            w = Tensor(rng.standard_normal((c_out, c_in, k)).astype(np.float32))
            full = ops.conv1d(Tensor(x), w, stride=stride, padding=pad).data
            for i in range(b):
                one = ops.conv1d(Tensor(x[i : i + 1]), w,
                                 stride=stride, padding=pad).data
                assert full[i : i + 1].tobytes() == one.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_linear_rows_equal_single_rows_bitwise(self, dtype):
        rng = np.random.default_rng(5)
        w = Tensor(rng.standard_normal((24, 100)).astype(dtype))
        bias = Tensor(rng.standard_normal(24).astype(dtype))
        x = rng.standard_normal((65, 100)).astype(dtype)
        single = [ops.linear(Tensor(x[i : i + 1]), w, bias).data for i in range(65)]
        for n in (1, 7, 8, 9, 15, 16, 17, 63, 64, 65):
            full = ops.linear(Tensor(x[:n]), w, bias).data
            for i in range(n):
                assert full[i : i + 1].tobytes() == single[i].tobytes()


def _product_shapes(arch: ArchConfig) -> set[tuple[int, int]]:
    """(K, N) of every conv and linear forward product in the network."""
    net = ResNet1d(arch)
    return {(math.prod(mod.weight.data.shape[1:]), mod.weight.data.shape[0])
            for mod in net.modules().values() if isinstance(mod, (Conv1d, Linear))}


class TestTiledMatmulMatchesTiles:
    """_tiled_matmul gives every row the bits of one GEMM per 8-row tile, so
    layers wide enough for one GEMM over all whole tiles change nothing."""

    ROWS = (*range(1, 71), 127, 513, 2200, 3850, 7150)

    @staticmethod
    def _check(k, n, rows, dtype=np.float32):
        rng = np.random.default_rng(k * 10_007 + n)
        # the weight enters transposed, as linear and narrow convs pass it;
        # a wide conv passes it C-contiguous, with the same bits (see
        # test_weight_layout_keeps_the_bits)
        b = rng.standard_normal((n, k)).astype(dtype).T
        a = rng.standard_normal((max(rows), k)).astype(dtype)
        for m in rows:
            got = ops._tiled_matmul(a[:m], b)
            assert got.tobytes() == tiled_matmul_reference(a[:m], b).tobytes(), (k, n, m)

    @pytest.mark.parametrize("arch", [ArchConfig(stem_channels=64), desk_arch()], ids=["full", "desk"])
    def test_every_layer_of_the_network(self, arch):
        for k, n in sorted(_product_shapes(arch)):
            self._check(k, n, self.ROWS)

    @pytest.mark.parametrize("n", [100, 128, 144, 160, 255, 256, 512, 1024])
    def test_output_widths_around_the_one_gemm_width(self, n):
        for k in (3, 21, 64, 192, 768):
            self._check(k, n, self.ROWS)

    def test_float64_keeps_tiles_at_any_width(self):
        for n in (256, 300, 512):
            self._check(64, n, (*range(1, 71), 513), dtype=np.float64)

    def test_weight_layout_keeps_the_bits(self):
        # ops.conv_weight stores a wide conv's weight so that conv1d passes
        # it C-contiguous; that must give the transposed view's bits, which
        # narrow layers still read, on whatever kernel set OpenBLAS loaded
        shapes = {(k, n) for k, n in _product_shapes(ArchConfig(stem_channels=64))
                  if n >= ops._ONE_GEMM_WIDTH}
        shapes |= {(k, n) for k in (3, 128, 768, 1536) for n in (256, 512, 1024)}
        rows = (*range(1, 18), 513, 2200, 3850)
        for k, n in sorted(shapes):
            rng = np.random.default_rng(k * 10_007 + n)
            b = rng.standard_normal((n, k)).astype(np.float32).T
            a = rng.standard_normal((max(rows), k)).astype(np.float32)
            c = np.ascontiguousarray(b)
            for m in rows:
                assert (ops._tiled_matmul(a[:m], c).tobytes()
                        == ops._tiled_matmul(a[:m], b).tobytes()), (k, n, m)


def openblas_corename() -> str | None:
    """The kernel set numpy's bundled OpenBLAS loaded, as the library names
    it, or None where no such library is found."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        except OSError:
            continue
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode()
    return None


# The CPU flag each OpenBLAS kernel set needs: forcing a set the CPU lacks
# kills the process with an illegal instruction.
KERNEL_SETS = {"SkylakeX": "avx512f", "Haswell": "avx2", "Sandybridge": "avx",
               "Nehalem": "sse4_2"}


@pytest.fixture(scope="module")
def kernel_set_children():
    """One child process per kernel set whose CPU flag /proc/cpuinfo lists,
    all started at once, each forced to its set by OPENBLAS_CORETYPE; each
    prints the core name its OpenBLAS loaded, then runs the weight layout
    check and the frozen eval plan's check against the taped forward at desk
    and full width."""
    cpuinfo = Path("/proc/cpuinfo")
    cpu_flags = set(cpuinfo.read_text().split()) if cpuinfo.exists() else set()
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")) if p)
    code = ("import test_nn, test_embnet; print(test_nn.openblas_corename(), flush=True); "
            "test_nn.TestTiledMatmulMatchesTiles().test_weight_layout_keeps_the_bits(); "
            "plan = test_embnet.TestEmbed().test_the_frozen_plan_gives_the_taped_forwards_bits; "
            "plan(test_nn.desk_arch()); plan(test_nn.ArchConfig(stem_channels=64))")
    children = {core: subprocess.Popen(
        [sys.executable, "-c", code], cwd=tests.parent,
        env=dict(env, OPENBLAS_CORETYPE=core), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for core, flag in KERNEL_SETS.items() if flag in cpu_flags}
    yield children
    for proc in children.values():
        proc.kill()
        proc.communicate()


# each child also checks the frozen eval plan against the taped forward
@pytest.mark.parametrize("core", KERNEL_SETS)
def test_weight_layout_keeps_the_bits_on_every_kernel_set(core, kernel_set_children):
    proc = kernel_set_children.get(core)
    if proc is None:
        pytest.skip(f"/proc/cpuinfo lists no {KERNEL_SETS[core]}, which {core} needs")
    out, err = proc.communicate(timeout=300)
    loaded = out.partition("\n")[0]
    if loaded != core:
        pytest.skip(f"OpenBLAS loaded {loaded or 'nothing'} instead of {core}")
    assert proc.returncode == 0, out[-3000:] + err[-3000:]


def _bits(a: np.ndarray) -> tuple:
    return a.dtype, a.shape, a.tobytes()


@st.composite
def window_cases(draw, specials=False):
    """Shape, dtype and data for one window op call.  Values come in halves
    with signed zeros, so maxpool windows hold ties and -0.0 beside 0.0,
    and with `specials` also NaN and +-inf.  The input is contiguous, a
    strided view, or a channels-last (B, L, C) array seen through
    .transpose(0, 2, 1), as conv1d returns its output."""
    k = draw(st.sampled_from([1, 3, 7]))
    padding = draw(st.integers(0, 3))
    length = draw(st.integers(max(1, k - 2 * padding), 12))
    case = {
        "k": k, "padding": padding, "stride": draw(st.integers(1, 2)),
        "b": draw(st.integers(1, 9)), "c_in": draw(st.integers(1, 3)),
        "c_out": draw(st.integers(1, 4)), "length": length,
        "dtype": draw(st.sampled_from([np.float32, np.float64])),
    }
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (case["b"], case["c_in"], 2 * length)
    base = (np.round(rng.standard_normal(shape) * 2) / 2).astype(case["dtype"])
    base[rng.random(shape) < 0.2] = -0.0
    if specials:
        spots = rng.random(shape) < 0.2
        base[spots] = rng.choice([np.nan, np.inf, -np.inf], size=int(spots.sum()))
    layout = draw(st.sampled_from(["contiguous", "strided", "channels-last"]))
    if layout == "strided":
        case["x"] = base[:, :, ::2]
    else:
        x = np.ascontiguousarray(base[:, :, :length])
        if layout == "channels-last":
            x = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
        case["x"] = x
    case["rng"] = rng
    return case


class TestMatchesReferenceOps:
    """conv1d, maxpool1d, relu and batchnorm1d equal their np.pad /
    sliding_window_view / np.where / out-of-place forms in tests/oracles.py
    bit for bit, forward and backward."""

    @staticmethod
    def _conv1d_runs(x, w, stride, padding):
        runs = []
        for op in (ops.conv1d, conv1d_reference):
            xt, wt = (Tensor(a, requires_grad=True) for a in (x, w))
            y = op(xt, wt, stride=stride, padding=padding)
            g = np.random.default_rng(1).standard_normal(y.data.shape).astype(x.dtype)
            (y * Tensor(g)).sum().backward()
            runs.append([_bits(a) for a in (y.data, xt.grad, wt.grad)])
        return runs

    @given(window_cases())
    @settings(max_examples=150, deadline=None)
    def test_conv1d(self, case):
        rng, dtype = case["rng"], case["dtype"]
        w = rng.standard_normal((case["c_out"], case["c_in"], case["k"])).astype(dtype)
        runs = self._conv1d_runs(case["x"], w, case["stride"], case["padding"])
        assert runs[0] == runs[1]

    # (B, L): B * L_out rows of im2col, with k=3, stride 1, padding 1
    @pytest.mark.parametrize("c_out, b, length", [
        *((4, b, length) for b, length in [(1, 7), (1, 8), (1, 9), (3, 5), (2, 8), (17, 1)]),
        # wide layers: at most 15 rows, so the whole tiles are one 8-row GEMM
        # and the bits hold on every OpenBLAS kernel set
        *((256, b, length) for b, length in [(1, 7), (1, 8), (1, 9), (3, 5)]),
    ])
    def test_conv1d_tail_tiles(self, c_out, b, length):
        rng = np.random.default_rng(b * 100 + length)
        x = rng.standard_normal((b, 3, length)).astype(np.float32)
        w = rng.standard_normal((c_out, 3, 3)).astype(np.float32)
        runs = self._conv1d_runs(x, w, 1, 1)
        assert runs[0] == runs[1]

    @given(st.booleans().flatmap(lambda specials: window_cases(specials=specials)))
    @settings(max_examples=200, deadline=None)
    def test_maxpool1d(self, case):
        # what the network pools: a relu output (+0.0 for -0.0, -inf and NaN;
        # +inf kept), written into the drawn array to keep its layout, with
        # a span of zeros wide enough for all-zero windows, where the first
        # zero wins as np.argmax picks it
        x = case["x"]
        x[...] = ops.relu(Tensor(x)).data
        lo = case["rng"].integers(0, x.shape[2])
        x[:, :, lo : lo + case["k"] + case["stride"]] = 0.0
        runs = []
        for op in (ops.maxpool1d, maxpool1d_reference):
            xt = Tensor(x, requires_grad=True)
            y = op(xt, case["k"], case["stride"], case["padding"])
            g = np.random.default_rng(1).standard_normal(y.data.shape).astype(case["dtype"])
            with np.errstate(invalid="ignore"):  # all-padding windows give -inf
                (y * Tensor(g)).sum().backward()
            runs.append([_bits(a) for a in (y.data, xt.grad)])
        assert runs[0] == runs[1]
        # with no tape, the same forward bits
        y = ops.maxpool1d(Tensor(x), case["k"], case["stride"], case["padding"])
        assert (_bits(y.data), y.requires_grad, y._backward) == (runs[0][0], False, None)

    @given(window_cases(specials=True))
    @settings(max_examples=50, deadline=None)
    def test_relu(self, case):
        runs = []
        for op in (ops.relu, relu_reference):
            xt = Tensor(case["x"], requires_grad=True)
            y = op(xt)
            (y * 3.0).sum().backward()
            runs.append([_bits(a) for a in (y.data, xt.grad)])
        assert runs[0] == runs[1]

    @given(window_cases(specials=True))
    @settings(max_examples=50, deadline=None)
    def test_relu_in_place_and_replayed(self, case):
        # the frozen plan's forms of the one relu: in place, and replayed
        # from its two recorded steps, each with the taped op's bits
        want = _bits(ops.relu(Tensor(case["x"])).data)
        y = case["x"].copy()
        assert _bits(ops.relu_(y, y)) == want
        out, steps = np.empty_like(case["x"]), []
        ops.relu_(case["x"], out, steps)
        out.fill(np.nan)
        for step in steps:
            step()
        assert (_bits(out), len(steps)) == (want, 2)

    @given(window_cases(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_batchnorm1d(self, case, tape):
        rng, dtype, c = case["rng"], case["dtype"], case["c_in"]
        params = [rng.standard_normal(c).astype(dtype) for _ in range(2)]
        stats = [rng.standard_normal(c).astype(dtype), rng.random(c).astype(dtype) + 0.5]
        runs = []
        for op in (ops.batchnorm1d, lambda *a: batchnorm1d_reference(*a, training=True)):
            xt, gt, bt = (Tensor(a, requires_grad=tape) for a in [case["x"]] + params)
            rm, rv = (a.copy() for a in stats)
            y = op(xt, gt, bt, rm, rv)
            run = [_bits(a) for a in (y.data, rm, rv)]
            if tape:
                g = np.random.default_rng(1).standard_normal(y.data.shape).astype(dtype)
                (y * Tensor(g)).sum().backward()
                run += [_bits(t.grad) for t in (xt, gt, bt)]
            runs.append(run)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("op", [
        lambda x: ops.conv1d(x, Tensor(np.ones((1, 1, 7)))),
        lambda x: ops.maxpool1d(x, kernel=7, stride=1, padding=1),
    ])
    def test_window_longer_than_the_padded_input(self, op):
        with pytest.raises(ValueError, match="output would be empty"):
            op(Tensor(np.ones((1, 1, 4))))


class TestGradientsNumerically:
    def test_elementwise_composite(self):
        rng = np.random.default_rng(1)

        def fwd(ts):
            a, b = ts
            return ((a * b + a) * 0.5 + (a * a).sqrt() * b).sum()

        arrays = [np.abs(rng.standard_normal((3, 4))) + 0.5,
                  rng.standard_normal((3, 4))]
        checked, _ = check_gradients(fwd, arrays, rng)
        assert checked > 0

    def test_conv1d_grads(self):
        rng = np.random.default_rng(2)
        proj = rng.standard_normal((2, 3, 3))

        def fwd(ts):
            x, w = ts
            y = ops.conv1d(x, w, stride=2, padding=1)
            return (y * Tensor(proj)).sum()

        arrays = [rng.standard_normal((2, 2, 6)),
                  rng.standard_normal((3, 2, 3))]
        # 6 + 6 coords, conv is smooth so none skipped
        checked, skipped = check_gradients(fwd, arrays, rng, coords_per_array=6)
        assert (checked, skipped) == (12, 0)

    def test_batchnorm_train_grads(self):
        rng = np.random.default_rng(3)
        proj = rng.standard_normal((2, 3, 5))

        def fwd(ts):
            x, gamma, beta = ts
            rm, rv = np.zeros(3), np.ones(3)
            y = ops.batchnorm1d(x, gamma, beta, rm, rv)
            return (y * Tensor(proj)).sum()

        arrays = [rng.standard_normal((2, 3, 5)),
                  rng.standard_normal(3) + 1.5,
                  rng.standard_normal(3)]
        # 5 + 3 + 3 coords (gamma/beta only have 3 each), all smooth
        checked, skipped = check_gradients(fwd, arrays, rng, coords_per_array=5)
        assert (checked, skipped) == (11, 0)

    def test_maxpool_grads_skip_kinks(self):
        rng = np.random.default_rng(5)
        proj = rng.standard_normal((2, 2, 3))

        def fwd(ts):
            (x,) = ts
            y = ops.maxpool1d(x, kernel=3, stride=2, padding=1)
            return (y * Tensor(proj)).sum()

        checked, _ = check_gradients(fwd, [rng.standard_normal((2, 2, 6))],
                                     rng, coords_per_array=10)
        assert checked > 0

    def test_relu_grads_skip_kinks(self):
        rng = np.random.default_rng(6)
        proj = rng.standard_normal((3, 4))

        def fwd(ts):
            return (ops.relu(ts[0]) * Tensor(proj)).sum()

        checked, _ = check_gradients(fwd, [rng.standard_normal((3, 4))], rng,
                                     coords_per_array=8)
        assert checked > 0

    def test_linear_and_gap_grads(self):
        rng = np.random.default_rng(7)
        proj = rng.standard_normal((2, 4))

        def fwd(ts):
            x, w, b = ts
            feats = ops.global_avgpool1d(x)
            return (ops.linear(feats, w, b) * Tensor(proj)).sum()

        arrays = [rng.standard_normal((2, 3, 5)),
                  rng.standard_normal((4, 3)),
                  rng.standard_normal(4)]
        checked, _ = check_gradients(fwd, arrays, rng, coords_per_array=6)
        assert checked > 0

    def test_gather_rows_grads(self):
        rng = np.random.default_rng(8)
        proj = rng.standard_normal((4, 3))

        def fwd(ts):
            return (ts[0].gather_rows([0, 2, 0, 1]) * Tensor(proj)).sum()

        checked, _ = check_gradients(fwd, [rng.standard_normal((3, 3))], rng,
                                     coords_per_array=9)
        assert checked > 0


class TestLayers:
    def test_conv_layer_param_shapes(self):
        layer = Conv1d(2, 4, kernel=3, stride=1, padding=1)
        params = layer.params()
        assert params["weight"].data.shape == (4, 2, 3)
        out = layer(Tensor(np.zeros((1, 2, 5), dtype=np.float32)))
        assert out.data.shape == (1, 4, 5)

    def test_conv_layer_without_bias(self):
        layer = Conv1d(1, 1, kernel=3, stride=1, padding=0)
        assert list(layer.params()) == ["weight"]
        layer.weight.data[...] = 1.0
        out = layer(Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]], dtype=np.float32)))
        assert out.data.tolist() == [[[6.0, 9.0]]]

    def test_batchnorm_layer_state(self):
        layer = BatchNorm1d(3)
        assert layer.params()["gamma"].data.tolist() == [1.0, 1.0, 1.0]
        assert layer.params()["beta"].data.tolist() == [0.0, 0.0, 0.0]
        assert layer.buffers()["running_mean"].tolist() == [0.0, 0.0, 0.0]
        assert layer.buffers()["running_var"].tolist() == [1.0, 1.0, 1.0]
        x = Tensor(np.random.default_rng(1).standard_normal((2, 3, 4)).astype(np.float32))
        layer(x)
        assert not np.allclose(layer.buffers()["running_mean"], 0.0)

    def test_linear_layer(self):
        layer = Linear(3, 2)
        out = layer(Tensor(np.ones((4, 3), dtype=np.float32)))
        assert out.data.shape == (4, 2)


def sgd_steps(p, grads, **hyper):
    """The parameter and velocity after one SGD step per gradient."""
    w = Tensor(np.array(p), requires_grad=True)
    opt = SGD({"w": w}, **hyper)
    for g in grads:
        w.grad = np.array(g)
        opt.step()
    return w.data, opt.velocity["w"]


class TestSgd:
    def test_single_step_oracle(self):
        p, v = sgd_steps([1.0], [[0.5]], lr=0.1, momentum=0.0, weight_decay=0.0)
        assert p.tolist() == [0.95]
        assert v.tolist() == [0.5]

    def test_momentum_accumulates(self):
        p, _ = sgd_steps([1.0], [[1.0]], lr=0.1, momentum=0.9, weight_decay=0.0)
        assert np.allclose(p, [0.9])
        p, v = sgd_steps([1.0], [[1.0], [1.0]], lr=0.1, momentum=0.9, weight_decay=0.0)
        assert np.allclose(p, [0.71])     # v = 1.9, step = 0.19
        assert np.allclose(v, [1.9])

    def test_weight_decay_folds_into_gradient(self):
        p, _ = sgd_steps([2.0], [[0.0]], lr=0.1, momentum=0.0, weight_decay=0.5)
        assert np.allclose(p, [1.9])

    def test_optimizer_updates_and_zero_grad(self):
        w = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        opt = SGD({"w": w}, lr=0.5)
        (w * w).sum().backward()
        opt.step()
        assert np.allclose(w.data, [0.0, 0.0])  # 1 - 0.5 * 2
        opt.zero_grad()
        assert w.grad is None

    def test_missing_grad_warns_and_treats_as_zero(self):
        w = Tensor(np.array([3.0]), requires_grad=True)
        opt = SGD({"w": w}, lr=0.5, momentum=0.9)
        with pytest.warns(UserWarning, match="no gradient"):
            opt.step()
        assert w.data.tolist() == [3.0]

    def test_lr_is_mutable(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD({"w": w}, lr=1.0)
        w.grad = np.array([1.0])
        opt.lr = 0.25
        opt.step()
        assert np.allclose(w.data, [0.75])

    def test_update_preserves_float32_params(self):
        w = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        opt = SGD({"w": w}, lr=0.1)
        w.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        assert w.data.dtype == np.float32


class TestKinkTracing:
    def test_masks_recorded_inside_context(self):
        buf = []
        x = Tensor(np.array([[-1.0, 2.0]]), requires_grad=True)
        with trace_kinks(buf):
            ops.relu(x)
            ops.maxpool1d(Tensor(np.array([[[1.0, 3.0, 2.0]]])), kernel=2, stride=1)
        assert [a.tolist() for a in buf] == [[[False, True]], [[[1, 0]]]]
        ops.relu(x)
        assert len(buf) == 2  # recording stopped at context exit

    def test_network_forward_records_every_kinked_op(self):
        relu, maxpool1d = ops.relu, ops.maxpool1d
        arch = ArchConfig(h=16, k=8, stem_channels=4)
        model = build_model(arch, seed=0)
        buf = []
        with trace_kinks(buf):
            model.net(Tensor(np.ones((2, 1, arch.h), dtype=np.float32)))
        # the stem's relu and maxpool, then two relus in each of 8 residual blocks
        relus = 1 + 2 * 8
        assert [a.dtype.kind for a in buf] == ["b", "i"] + ["b"] * (relus - 1)
        assert (ops.relu, ops.maxpool1d) == (relu, maxpool1d)
