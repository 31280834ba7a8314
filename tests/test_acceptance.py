"""End-to-end acceptance gate.

One module-level test per shipping criterion; each records its measured
numbers so the terminal summary shows what was actually achieved, not just
pass/fail.  Everything here is seeded and deterministic.
"""

import math
import time
from math import comb

import numpy as np
import pytest

from conftest import record_note
from embnum.baselines import (
    LogisticModel,
    ks_statistic,
    mw_statistic,
    numeric_jaccard,
)
from embnum.dataset import SyntheticSpec, generate_synthetic, write_dataset
from embnum.embnet import ArchConfig, BasicBlock, ResNet1d, build_model
from embnum.fixtures import desk_arch, efficiency_spec
from embnum.labeling import (
    expected_experiments,
    index_labeled,
    label_queries,
    mrr,
    run_benchmark,
)
from embnum.metric import mine_batch_hard, triplet_loss
from embnum.nn import BatchNorm1d, Tensor, ops
from embnum.sampling import sample_inverse_transform
from gradcheck import check_gradients, check_network
from oracles import (
    inverse_transform_oracle,
    jaccard_oracle,
    ks_oracle,
    mw_oracle,
)


# -- criterion 1: sampling vs exact-rational oracle --------------------------


def _random_attribute(rng: np.random.Generator) -> np.ndarray:
    n = int(rng.integers(1, 501))
    kind = rng.integers(0, 4)
    if kind == 0:  # wide log-uniform magnitudes with signs
        vals = 10.0 ** rng.uniform(-6, 6, n) * rng.choice([-1.0, 1.0], n)
    elif kind == 1:  # small-integer grid, heavy duplicates
        vals = rng.integers(-20, 21, n).astype(np.float64)
    elif kind == 2:  # few distinct values repeated
        pool = rng.standard_normal(max(1, n // 10))
        vals = rng.choice(pool, n)
    else:
        vals = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    if n > 2 and rng.random() < 0.5:  # force some exact duplicates
        vals[: n // 2] = np.round(vals[: n // 2], 1)
    return vals


def test_criterion_1():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    attrs = 0
    for _ in range(1000):
        values = _random_attribute(rng)
        for h in (1, 10, 100):
            got = sample_inverse_transform(values, h).tolist()
            want = inverse_transform_oracle(values, h)
            assert got == want, f"mismatch at n={values.size}, h={h}"
        attrs += 1
    elapsed = time.perf_counter() - t0
    record_note(1, f"{attrs} attributes x h in {{1,10,100}}, exact, {elapsed:.1f}s")
    assert elapsed < 10.0, f"sampling oracle sweep took {elapsed:.1f}s"


# -- criterion 2: finite-difference gradient checks --------------------------


def _module_state(mod_map):
    params, buffers = {}, {}
    for name, mod in mod_map.items():
        for pn, p in mod.params().items():
            params[f"{name}.{pn}"] = p
        if isinstance(mod, BatchNorm1d):
            for bn, b in mod.buffers().items():
                buffers[f"{name}.{bn}"] = b
    return params, buffers


def _conv_config(rng, b, c_in, c_out, length, k, stride, padding, bias):
    out_len = (length + 2 * padding - k) // stride + 1
    proj = rng.standard_normal((b, c_out, out_len))
    bias_arr = [rng.standard_normal(c_out)] if bias else []

    def fwd(ts):
        x, w, *rest = ts
        y = ops.conv1d(x, w, bias=rest[0] if rest else None,
                       stride=stride, padding=padding)
        return (y * Tensor(proj)).sum()

    arrays = [rng.standard_normal((b, c_in, length)),
              rng.standard_normal((c_out, c_in, k))] + bias_arr
    return lambda: check_gradients(fwd, arrays, rng)


def _bn_config(rng, b, c, length, training):
    proj = rng.standard_normal((b, c, length))
    rm = rng.standard_normal(c)
    rv = np.abs(rng.standard_normal(c)) + 0.5

    def fwd(ts):
        x, gamma, beta = ts
        y = ops.batchnorm1d(x, gamma, beta, rm.copy(), rv.copy(),
                            training=training)
        return (y * Tensor(proj)).sum()

    arrays = [rng.standard_normal((b, c, length)),
              rng.standard_normal(c) + 1.5,
              rng.standard_normal(c)]
    return lambda: check_gradients(fwd, arrays, rng)


def _linear_config(rng, b, f_in, f_out):
    proj = rng.standard_normal((b, f_out))

    def fwd(ts):
        return (ops.linear(*ts) * Tensor(proj)).sum()

    arrays = [rng.standard_normal((b, f_in)),
              rng.standard_normal((f_out, f_in)),
              rng.standard_normal(f_out)]
    return lambda: check_gradients(fwd, arrays, rng)


def _maxpool_config(rng, b, c, length, k, stride, padding):
    out_len = (length + 2 * padding - k) // stride + 1
    proj = rng.standard_normal((b, c, out_len))

    def fwd(ts):
        y = ops.maxpool1d(ts[0], kernel=k, stride=stride, padding=padding)
        return (y * Tensor(proj)).sum()

    return lambda: check_gradients(fwd, [rng.standard_normal((b, c, length))],
                                   rng, coords_per_array=8)


def _relu_config(rng, shape):
    proj = rng.standard_normal(shape)

    def fwd(ts):
        return (ops.relu(ts[0]) * Tensor(proj)).sum()

    return lambda: check_gradients(fwd, [rng.standard_normal(shape)], rng,
                                   coords_per_array=8)


def _misc_configs(rng):
    # projections must be drawn once, outside the closures: the forward is
    # re-evaluated during finite differencing and has to stay the same function
    gap_proj = rng.standard_normal((2, 3))
    gather_proj = rng.standard_normal((4, 5))
    axis_proj = rng.standard_normal(4)

    def composite(ts):
        a, b = ts
        return ((a * b + a * 2.0) * 0.25 + (a * a + 1e-6).sqrt() * b).sum()

    def gap(ts):
        return (ops.global_avgpool1d(ts[0]) * Tensor(gap_proj)).sum()

    def gather(ts):
        return (ts[0].gather_rows([0, 2, 0, 1]) * Tensor(gather_proj)).sum()

    def axis_sum(ts):
        return (ts[0].sum(axis=0) * Tensor(axis_proj)).sum()

    def sub_chain(ts):
        a, b = ts
        return ((a - b) * (a - b)).sum()

    def sqrt_chain(ts):
        return (((ts[0] * ts[0]).sum(axis=1) + 1e-9).sqrt()).sum()

    return [
        lambda: check_gradients(composite,
                                [np.abs(rng.standard_normal((3, 4))) + 0.5,
                                 rng.standard_normal((3, 4))], rng),
        lambda: check_gradients(gap, [rng.standard_normal((2, 3, 6))], rng),
        lambda: check_gradients(gather, [rng.standard_normal((3, 5))], rng,
                                coords_per_array=8),
        lambda: check_gradients(axis_sum, [rng.standard_normal((3, 4))], rng,
                                coords_per_array=8),
        lambda: check_gradients(sub_chain,
                                [rng.standard_normal((2, 5)),
                                 rng.standard_normal((2, 5))], rng),
        lambda: check_gradients(sqrt_chain, [rng.standard_normal((4, 3))], rng),
    ]


def _block_config(rng, c_in, c_out, stride, training):
    block = BasicBlock(c_in, c_out, stride, rng=rng, dtype=np.float64)
    params, buffers = _module_state(block.modules())
    length = 8
    out_len = math.ceil(length / stride)
    proj = rng.standard_normal((2, c_out, out_len))
    x = Tensor(rng.standard_normal((2, c_in, length)), requires_grad=True)

    def fwd():
        return (block(x, training) * Tensor(proj)).sum()

    return lambda: check_network(fwd, params, buffers, x, rng, n_coords=16)


def _resnet_config(rng, training):
    arch = ArchConfig(h=16, k=4, stem_channels=4, block_counts=(1, 1, 1, 1))
    net = ResNet1d(arch, rng=rng, dtype=np.float64)
    proj = rng.standard_normal((2, arch.k))
    x = Tensor(rng.standard_normal((2, 1, arch.h)), requires_grad=True)

    def fwd():
        return (net(x, training) * Tensor(proj)).sum()

    return lambda: check_network(fwd, net.named_params(), net.named_buffers(),
                                 x, rng, n_coords=24)


def _triplet_head_config(rng, alpha):
    emb0 = rng.standard_normal((8, 3))
    labels = np.array(["a", "a", "b", "b", "c", "c", "d", "d"])
    mined = mine_batch_hard(emb0, labels)
    # train's own loss: the mean over the violating triplets only
    fwd = lambda ts: triplet_loss(ts[0], mined, alpha)
    return lambda: check_gradients(fwd, [emb0], rng, coords_per_array=10)


def test_criterion_2():
    rng = np.random.default_rng(7)
    configs = []
    # 12 convolution shapes
    configs += [
        _conv_config(rng, 1, 1, 1, 8, 3, 1, 0, False),
        _conv_config(rng, 2, 1, 4, 9, 3, 1, 1, True),
        _conv_config(rng, 2, 3, 5, 10, 3, 2, 1, True),
        _conv_config(rng, 1, 2, 2, 7, 1, 1, 0, False),
        _conv_config(rng, 3, 4, 4, 8, 3, 1, 1, False),
        _conv_config(rng, 2, 1, 8, 16, 7, 2, 3, True),
        _conv_config(rng, 2, 8, 4, 6, 3, 1, 1, False),
        _conv_config(rng, 1, 5, 3, 12, 5, 2, 2, True),
        _conv_config(rng, 4, 2, 2, 5, 2, 1, 0, False),
        _conv_config(rng, 2, 2, 6, 11, 3, 2, 0, True),
        _conv_config(rng, 1, 6, 6, 4, 3, 1, 1, False),
        _conv_config(rng, 2, 4, 8, 10, 1, 2, 0, True),
    ]
    # 8 batch-norm shapes, train and eval
    for b, c, length in [(2, 3, 5), (4, 2, 6), (3, 5, 4), (2, 1, 9)]:
        configs.append(_bn_config(rng, b, c, length, training=True))
        configs.append(_bn_config(rng, b, c, length, training=False))
    # 6 linear shapes
    for b, f_in, f_out in [(1, 4, 3), (5, 8, 2), (3, 2, 7),
                           (2, 16, 16), (4, 1, 5), (2, 10, 1)]:
        configs.append(_linear_config(rng, b, f_in, f_out))
    # 6 max-pool shapes
    for b, c, length, k, stride, padding in [
        (2, 2, 8, 3, 2, 1), (1, 3, 9, 2, 2, 0), (2, 1, 6, 3, 1, 1),
        (3, 2, 10, 3, 3, 1), (1, 4, 7, 5, 2, 2), (2, 2, 5, 2, 1, 0),
    ]:
        configs.append(_maxpool_config(rng, b, c, length, k, stride, padding))
    # 4 relu shapes
    for shape in [(3, 4), (2, 3, 5), (10,), (4, 1, 6)]:
        configs.append(_relu_config(rng, shape))
    # 6 composite tensor-op chains
    configs += _misc_configs(rng)
    # 4 residual blocks
    configs.append(_block_config(rng, 4, 4, 1, training=True))
    configs.append(_block_config(rng, 4, 4, 1, training=False))
    configs.append(_block_config(rng, 3, 6, 2, training=True))
    configs.append(_block_config(rng, 3, 6, 2, training=False))
    # 2 full networks
    configs.append(_resnet_config(rng, training=True))
    configs.append(_resnet_config(rng, training=False))
    # 2 triplet loss heads
    configs.append(_triplet_head_config(rng, alpha=0.2))
    configs.append(_triplet_head_config(rng, alpha=1.0))

    assert len(configs) == 50
    t0 = time.perf_counter()
    total_checked = total_skipped = 0
    for i, run in enumerate(configs):
        checked, skipped = run()
        assert checked > 0, f"config {i} had every coordinate skipped"
        total_checked += checked
        total_skipped += skipped
    elapsed = time.perf_counter() - t0
    record_note(2, f"50 configs, {total_checked} coords ok, "
                   f"{total_skipped} at kinks skipped, {elapsed:.1f}s")
    assert elapsed < 120.0, f"gradient checks took {elapsed:.1f}s"


# -- criterion 3: statistical baselines vs definitional oracles --------------


def _random_pair(rng):
    def draw():
        n = int(rng.integers(2, 41))
        if rng.random() < 0.4:  # gridded, tie-heavy
            return rng.integers(-4, 5, n).astype(np.float64)
        return rng.standard_normal(n) * 10.0 ** rng.integers(-2, 3)

    return draw(), draw()


def test_criterion_3():
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    for _ in range(1000):
        a, b = _random_pair(rng)
        assert ks_statistic(a, b) == pytest.approx(ks_oracle(a, b), abs=1e-9)
        got_mw = mw_statistic(a, b)
        assert got_mw == pytest.approx(mw_oracle(a, b), abs=1e-9)
        assert got_mw + mw_statistic(b, a) == 1.0
        assert numeric_jaccard(a, b) == pytest.approx(jaccard_oracle(a, b),
                                                      abs=1e-9)
    elapsed = time.perf_counter() - t0
    record_note(3, f"1000 pairs, {elapsed:.1f}s")
    assert elapsed < 30.0, f"baseline oracle sweep took {elapsed:.1f}s"


# -- criterion 4: leave-one-source-out experiment counts ----------------------


def test_criterion_4():
    t0 = time.perf_counter()
    ds5 = generate_synthetic(SyntheticSpec(
        label_count=2, source_count=5, rows_min=4, rows_max=6, seed=1))
    report5 = run_benchmark(ds5, "semantictyper")
    assert report5.total_experiments == 75
    assert [pc.experiments for pc in report5.per_count] == [
        5 * comb(4, c) for c in range(1, 5)
    ]

    ds10 = generate_synthetic(SyntheticSpec(
        label_count=2, source_count=10, rows_min=4, rows_max=6, seed=2))
    report10 = run_benchmark(ds10, "semantictyper")
    assert report10.total_experiments == 5110
    assert [pc.experiments for pc in report10.per_count] == [
        10 * comb(9, c) for c in range(1, 10)
    ]
    assert sum(pc.experiments for pc in report10.per_count) == 5110
    assert expected_experiments(5) == 75 and expected_experiments(10) == 5110
    elapsed = time.perf_counter() - t0
    record_note(4, f"d=5 -> 75, d=10 -> 5110, {elapsed:.1f}s")


# -- criterion 5: desk-scale training quality ---------------------------------


def test_criterion_5(desk_training, desk_reports):
    _, _, train_seconds = desk_training
    assert train_seconds < 600.0, f"training took {train_seconds:.0f}s"

    emb = {pc.labeled_sources: pc.mean_mrr
           for pc in desk_reports["embnum"].per_count}
    base = {pc.labeled_sources: pc.mean_mrr
            for pc in desk_reports["semantictyper"].per_count}
    assert emb[5] >= 0.90, f"MRR at 5 labeled sources = {emb[5]:.4f}"
    for count in sorted(emb):
        assert emb[count] >= base[count], (
            f"count {count}: embedding {emb[count]:.4f} "
            f"below KS baseline {base[count]:.4f}"
        )
    record_note(5, f"train {train_seconds:.1f}s, MRR@5 {emb[5]:.3f}, "
                   f"baseline@5 {base[5]:.3f}")


# -- criterion 6: labeling speed on a 500-attribute store ---------------------


def test_criterion_6():
    t0 = time.perf_counter()
    ds = generate_synthetic(efficiency_spec())
    holdout = ds.sources[-1]
    labeled_attrs = [a for a in ds.attributes if a.source != holdout]
    queries = ds.by_source(holdout)
    from embnum.dataset import Dataset

    labeled = Dataset(labeled_attrs)
    assert len(labeled.attributes) == 500 and len(queries) == 50
    assert all(a.values.size == 1000 for a in ds.attributes)

    model = build_model(desk_arch(), seed=0)
    dsl_model = LogisticModel(weights=np.array([1.0, 1.0, 1.0]), bias=0.0)

    seconds = {}
    for method, kwargs in [
        ("embnum", {"model": model}),
        ("semantictyper", {}),
        ("dsl", {"dsl_model": dsl_model}),
    ]:
        store = index_labeled(labeled, method, **kwargs)
        result = label_queries(store, queries)
        assert result.excluded == 0 and len(result.ranks) == 50
        seconds[method] = result.seconds

    elapsed = time.perf_counter() - t0
    ratio_dsl = seconds["dsl"] / seconds["embnum"]
    ratio_st = seconds["semantictyper"] / seconds["embnum"]
    record_note(6, f"embnum {seconds['embnum'] * 1e3:.0f}ms, "
                   f"{ratio_dsl:.0f}x vs dsl, {ratio_st:.0f}x vs ks, "
                   f"total {elapsed:.0f}s")
    assert ratio_dsl >= 10.0, f"only {ratio_dsl:.1f}x faster than dsl"
    assert seconds["embnum"] < seconds["semantictyper"]
    assert elapsed < 300.0


# -- criterion 7: byte-reproducible training ----------------------------------


def test_criterion_7(tmp_path):
    import hashlib

    from embnum.cli import main

    data = tmp_path / "data"
    write_dataset(generate_synthetic(SyntheticSpec(
        label_count=4, source_count=3, rows_min=10, rows_max=20, seed=5)), data)
    flags = ["--preset", "desk", "--epochs", "5", "--h", "32", "--k", "16"]
    outs = []
    for name in ("first.bin", "second.bin"):
        out = tmp_path / name
        assert main(["train", str(data), "--out", str(out)] + flags) == 0
        outs.append(out)
    blob1, blob2 = outs[0].read_bytes(), outs[1].read_bytes()
    hist1 = (tmp_path / "first.bin.history.csv").read_text()
    hist2 = (tmp_path / "second.bin.history.csv").read_text()
    assert blob1 == blob2, "checkpoints differ between identical runs"
    assert hist1 == hist2, "history CSVs differ between identical runs"
    record_note(7, f"checkpoint sha256 {hashlib.sha256(blob1).hexdigest()[:12]}, "
                   f"{len(blob1)} bytes, reruns identical")


# -- criterion 8: ranking metric hand cases and self-retrieval ----------------


def test_criterion_8(desk_dataset, desk_model, desk_dsl_model):
    assert mrr([1]) == 1.0
    assert mrr([2, 2]) == 0.5
    assert mrr([1, 4]) == 0.625

    failures = {}
    for method, kwargs in [
        ("embnum", {"model": desk_model}),
        ("semantictyper", {}),
        ("dsl", {"dsl_model": desk_dsl_model}),
    ]:
        store = index_labeled(desk_dataset, method, **kwargs)
        result = label_queries(store, desk_dataset.attributes)
        assert result.excluded == 0
        failures[method] = sum(1 for r in result.ranks if r != 1)
        assert failures[method] == 0, (
            f"{method}: {failures[method]} attributes failed to retrieve "
            "their own label at rank 1"
        )
    record_note(8, f"hand MRRs exact; self-retrieval 60/60 for all 3 methods")
