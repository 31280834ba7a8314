import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embnum import _serial, embnet, sampling
from embnum.dataset import generate_synthetic
from embnum.embnet import (
    MODEL_MAGIC,
    MODEL_VERSION,
    ArchConfig,
    BasicBlock,
    ResNet1d,
    build_model,
    embed,
    init_weights,
    load_model,
    model_from_bytes,
    model_to_bytes,
    normalize_input,
    preprocess,
    save_model,
    state_shapes,
)
from embnum.errors import (
    ChecksumMismatch,
    EmptyInput,
    FormatVersionMismatch,
    InvalidArch,
    MalformedCheckpoint,
    WidthMismatch,
)
from embnum.fixtures import desk_arch, efficiency_spec
from embnum.labeling import index_labeled, load_store, save_store
from embnum.metric import TrainConfig, train
from embnum.nn import SGD, Conv1d, Linear, Tensor, ops
from oracles import (chunk_budget, eval_conv_bn_reference, eval_forward_reference,
                     tiled_matmul_reference)

TINY = ArchConfig(h=16, k=8, stem_channels=4)


class TestArchConfig:
    def test_defaults(self):
        arch = ArchConfig(stem_channels=64)
        assert arch.h == 100 and arch.k == 100
        assert arch.stage_channels == (64, 128, 256, 512)

    def test_desk_arch_stage_channels(self):
        assert desk_arch().stage_channels == (8, 16, 32, 64)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"h": 0},
            {"k": 0},
            {"stem_channels": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(InvalidArch):
            ArchConfig(**kwargs)


class TestBuild:
    def test_seeded_build_is_deterministic(self):
        a = build_model(TINY, seed=1)
        b = build_model(TINY, seed=1)
        assert model_to_bytes(a) == model_to_bytes(b)

    def test_seed_changes_weights(self):
        a = build_model(TINY, seed=1)
        b = build_model(TINY, seed=2)
        assert model_to_bytes(a) != model_to_bytes(b)

    def test_training_meta_initialized(self):
        m = build_model(TINY, seed=9)
        assert m.training_meta == {"epochs_seen": 0, "best_mrr": 0.0, "seed": 9}

    @pytest.mark.parametrize("arch", [ArchConfig(stem_channels=64), desk_arch()], ids=["default", "desk"])
    def test_state_shapes_are_the_built_layout(self, arch):
        # checkpoints are checked against state_shapes before any net is built
        state = build_model(arch, seed=0).state_dict()
        assert dict(state_shapes(arch)) == {name: a.shape for name, a in state.items()}

    def test_parameter_naming_scheme(self):
        m = build_model(TINY, seed=0)
        names = m.net.named_params()
        assert "stem_conv.weight" in names
        assert "stage0.0.conv1.weight" in names
        assert "stage1.0.proj_conv.weight" in names  # stride-2 entry projection
        assert "fc.weight" in names and "fc.bias" in names
        buffers = m.net.named_buffers()
        assert "stem_bn.running_mean" in buffers
        assert "stage3.0.bn2.running_var" in buffers

    def test_block_convs_have_no_bias(self):
        m = build_model(TINY, seed=0)
        assert not any(name.endswith("conv1.bias") for name in m.net.named_params())

    def test_init_weights_fills_he_uniform_bounds(self):
        net = ResNet1d(ArchConfig(h=16, k=8, stem_channels=16))
        layers = [m for m in net.modules().values() if isinstance(m, (Conv1d, Linear))]
        assert len(layers) == 1 + 2 * 8 + 3 + 1  # stem, block convs, projections, fc
        assert not any(layer.weight.data.any() for layer in layers)  # zero until drawn
        init_weights(net, np.random.default_rng(0))
        for layer in layers:
            w = layer.weight.data
            bound = np.sqrt(6.0 / np.prod(w.shape[1:]))
            assert w.dtype == np.float32
            assert np.abs(w).max() <= bound
            assert np.abs(w).max() > 0.5 * bound  # actually fills the range

    def test_seeded_draws_are_pinned(self):
        # the draw order (modules() order, conv and linear weights only) fixes
        # every trained checkpoint; a reordering would change all of them
        state = build_model(desk_arch(), seed=7).state_dict()
        digest = hashlib.sha256()
        for name in sorted(state):
            digest.update(name.encode() + state[name].tobytes())
        assert digest.hexdigest()[:16] == "9c0d6da9aab1391c"


class TestNormalizeInput:
    def test_signed_log_fixed_points(self):
        out = normalize_input(np.array([0.0, np.e - 1.0, -(np.e - 1.0)]))
        assert out[0] == 0.0
        assert abs(out[1] - 1.0) < 1e-15
        assert out[2] == -out[1]

    @given(st.lists(st.floats(min_value=-1e12, max_value=1e12,
                              allow_nan=False), min_size=2, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_signed_log_is_monotone_and_odd(self, values):
        arr = np.array(sorted(values))
        out = normalize_input(arr)
        assert np.all(np.diff(out) >= 0)
        assert np.array_equal(normalize_input(-arr), -out)


class TestPreprocess:
    def test_output_shape_and_dtype(self):
        out = preprocess([np.array([5.0, 1.0, 3.0])], TINY)[0]
        assert out.shape == (TINY.h,)
        assert out.dtype == np.float32

    def test_sampling_then_conditioning(self):
        arch = ArchConfig(h=4, k=8, stem_channels=4)
        out = preprocess([np.array([3.0, 1.0, 2.0, 2.0])], arch)[0]
        assert out.tolist() == np.log1p([1.0, 2.0, 2.0, 3.0]).astype(np.float32).tolist()

    def test_float64_extremes_stay_finite_in_float32(self):
        arch = ArchConfig(h=6, k=8, stem_channels=4)
        extremes = np.array([1.7976931348623157e308, -1.7976931348623157e308,
                             5e-324, -5e-324, 0.0, -0.0])
        out = preprocess([extremes], arch)[0]
        assert out.dtype == np.float32 and np.all(np.isfinite(out))
        assert out[0] == np.float32(-709.782712893384) and out[-1] == -out[0]


class TestEmbed:
    def test_shapes_and_dtype(self):
        m = build_model(TINY, seed=0)
        one = embed(m, np.zeros((1, 16), dtype=np.float32))
        many = embed(m, np.zeros((5, 16), dtype=np.float32))
        assert one.shape == (1, 8) and one.dtype == np.float32
        assert many.shape == (5, 8) and many.dtype == np.float32

    def test_deterministic(self):
        m = build_model(TINY, seed=0)
        x = np.random.default_rng(1).standard_normal((1, 16)).astype(np.float32)
        assert embed(m, x).tobytes() == embed(m, x).tobytes()

    def test_batching_never_changes_numbers(self):
        m = build_model(TINY, seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((7, 16)).astype(np.float32)
        full = embed(m, x)
        for i in range(7):
            assert full[i].tobytes() == embed(m, x[i : i + 1]).tobytes()
        # and sub-batches agree with the full batch too
        assert embed(m, x[2:5]).tobytes() == full[2:5].tobytes()
        # and batches on both sides of the forward pass's 8-row GEMM tile,
        # for the tiny and the full-width network
        sizes = (1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 130)
        for arch in (TINY, ArchConfig(stem_channels=64)):
            m = build_model(arch, seed=3)
            x = rng.standard_normal((max(sizes), arch.h)).astype(np.float32)
            single = np.concatenate([embed(m, x[i : i + 1]) for i in range(len(x))])
            for n in sizes:
                assert embed(m, x[:n]).tobytes() == single[:n].tobytes()
        # and a full-width batch larger than one of embed's chunks (143 rows
        # at sampling.CHUNK_BYTES), which embed runs as full chunks and a
        # short one; a full chunk's stage-2 and stage-3 products run as one
        # GEMM over a thousand rows or more
        x = np.concatenate([x, rng.standard_normal((520 - len(x), arch.h)).astype(np.float32)])
        full = embed(m, x)
        assert full[: len(single)].tobytes() == single.tobytes()
        for i in (*range(len(single), len(x), 7), len(x) - 1):
            assert full[i].tobytes() == embed(m, x[i : i + 1]).tobytes()

    def test_the_network_never_sees_more_than_one_chunk(self, monkeypatch):
        # on the caller, as one worker runs it (TestWorkers has the pool's)
        m = build_model(TINY, seed=0)
        x = np.random.default_rng(5).standard_normal((1100, 16)).astype(np.float32)
        row_bytes = embnet._Plan(m.net, TINY.h).row_bytes
        monkeypatch.setattr(sampling, "CHUNK_BYTES", chunk_budget("embed", 512, row_bytes))
        monkeypatch.setattr(ops, "gemm_workers", lambda: 1)
        call, rows = embnet._Plan.__call__, []

        def spy(plan, chunk):
            rows.append(chunk.shape[0])
            return call(plan, chunk)

        monkeypatch.setattr(embnet._Plan, "__call__", spy)
        assert embed(m, x).shape == (1100, TINY.k)
        assert rows == [512, 512, 1100 - 2 * 512]

    @pytest.mark.parametrize("arch", [desk_arch(), ArchConfig(stem_channels=16),
                                      ArchConfig(stem_channels=32), ArchConfig(stem_channels=64)],
                             ids=["desk", "stem16", "stem32", "full"])
    def test_the_frozen_plan_gives_the_taped_forwards_bits(self, arch):
        # embed runs a plan frozen from the model's state; it must give the
        # bits of the taped eval forward (eval_forward_reference), and be
        # rebuilt whenever the running statistics move, as load_state and a
        # taped forward move them here
        rng = np.random.default_rng(11)

        def randomize_norms(model):
            for name, a in model.state_dict().items():
                field = name.rsplit(".", 1)[1]
                if field == "running_var":
                    a[...] = rng.uniform(0.25, 4.0, a.shape)
                elif field in ("gamma", "beta", "running_mean"):
                    a[...] = rng.normal(0.0, 0.5, a.shape)

        def agree(model):
            # the taped forward runs embed's chunks: whether a wide layer's
            # one-GEMM product is batch invariant depends on the BLAS kernels.
            # 8 rows fill one tile, 10 are a LOSO query batch, 60 training's
            # eval batch
            for n in (1, 8, 9, 10, 60, chunk + 1):
                x = rng.standard_normal((n, arch.h)).astype(np.float32)
                taped = [eval_forward_reference(model.net, x[i : i + chunk, None, :])
                         for i in range(0, n, chunk)]
                assert embed(model, x).tobytes() == np.concatenate(taped).tobytes()

        m = build_model(arch, seed=0)
        chunk = sampling.per_chunk("embed", embnet._Plan(m.net, arch.h).row_bytes)
        randomize_norms(m)
        agree(m)
        other = build_model(arch, seed=1)
        randomize_norms(other)
        m.load_state(other.state_dict())
        agree(m)
        m.net(Tensor(rng.standard_normal((4, 1, arch.h)).astype(np.float32)))
        agree(m)
        # an SGD step moves the weights in place, under the plan built since
        # the taped forward that took the gradients
        x = rng.standard_normal((4, 1, arch.h)).astype(np.float32)
        m.net(Tensor(x)).sum().backward()
        agree(m)
        SGD(m.net.named_params(), lr=0.1).step()
        agree(m)
        # a stem whose relu output is all +0.0: the max pool's -inf padding
        # must never reach its output
        m.net.stem_bn.beta.data[...] = -1000.0
        stem = ops.relu(eval_conv_bn_reference(m.net.stem_conv, m.net.stem_bn, Tensor(x))).data
        assert not stem.any() and not np.signbit(stem).any()
        agree(m)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("row", [0, 4, 9])
    def test_a_non_finite_row_is_refused_by_name(self, value, row):
        m = build_model(desk_arch(), 0)
        x = np.random.default_rng(2).standard_normal((10, m.arch.h)).astype(np.float32)
        x[row, 37] = value
        with pytest.raises(EmptyInput, match=f"row {row} holds a NaN or an infinity"):
            embed(m, x)
        with pytest.raises(EmptyInput, match="row 0 "):
            embed(m, x[row : row + 1])

    def test_a_full_width_chunk_stays_within_its_memory(self, monkeypatch):
        # the eval plan must free each activation as soon as the next layer
        # has read it, so a chunk peaks within its rows' row_bytes (the
        # largest conv's im2col and output rows and two activation rows),
        # its output and 64 KiB of tile padding and objects.  512 rows in one
        # chunk would take 24 MiB
        m = build_model(ArchConfig(stem_channels=64), 0)
        x = np.random.default_rng(0).standard_normal((512, m.arch.h)).astype(np.float32)
        embed(m, x[:1])
        monkeypatch.setattr(sampling, "CHUNK_BYTES", 2 << 20)
        tracemalloc.start()
        try:
            out = embed(m, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = sampling.CHUNK_BYTES + out.nbytes + (64 << 10)
        assert 512 * m.plan.row_bytes > bound and peak <= bound, f"{peak / 2**20:.2f} MiB"

    def test_full_width_embedding_bits_are_pinned(self):
        # sha256 of the float32 embeddings of the first 64 efficiency-fixture
        # columns under the full-width network, seed 0
        arch = ArchConfig(stem_channels=64)
        columns = generate_synthetic(efficiency_spec()).attributes[:64]
        x = preprocess([a.values for a in columns], arch)
        digest = hashlib.sha256(embed(build_model(arch, 0), x).tobytes()).hexdigest()
        assert digest == "a02bf64a0826f924ed52a2ff5f79dab63c36916a35f7c6d8e6148032ef4e54a9"

    def test_batching_invariant_with_single_threaded_blas(self):
        # tier-1 runs with the default BLAS thread count; rerun the
        # invariance checks in one child process pinned to one thread, where
        # a large batch runs on the CPUs BLAS leaves idle (ops.gemm_workers)
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(tests.parent / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{tests / 'test_embnet.py'}::TestEmbed::test_batching_never_changes_numbers",
             f"{tests / 'test_embnet.py'}::TestEmbed::test_full_width_embedding_bits_are_pinned",
             f"{tests / 'test_embnet.py'}::TestEmbed::test_a_full_width_chunk_stays_within_its_memory",
             f"{tests / 'test_embnet.py'}::TestWorkers",
             f"{tests / 'test_nn.py'}::TestConvBatchInvariance",
             f"{tests / 'test_nn.py'}::TestTiledMatmulMatchesTiles"],
            cwd=tests.parent, env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]

    def test_width_mismatch(self):
        m = build_model(TINY, seed=0)
        with pytest.raises(WidthMismatch, match=r"expected an \(n, 16\) batch, got shape \(16,\)"):
            embed(m, np.zeros(16, dtype=np.float32))
        with pytest.raises(WidthMismatch):
            embed(m, np.zeros((1, 15), dtype=np.float32))
        with pytest.raises(WidthMismatch):
            embed(m, np.zeros((2, 3, 16), dtype=np.float32))

    def test_wide_magnitude_sweep_stays_finite(self):
        m = build_model(TINY, seed=0)
        rng = np.random.default_rng(7)
        n = 10_000
        mags = 10.0 ** rng.uniform(-6, 6, size=(n, 16))
        signs = rng.choice([-1.0, 1.0], size=(n, 16))
        x = (mags * signs).astype(np.float32)
        for start in range(0, n, 1000):
            out = embed(m, x[start : start + 1000])
            assert np.all(np.isfinite(out))


class TestPrograms:
    """The frozen plan replays a recorded program for each small batch size
    it has seen, within embnet.PROGRAM_BUDGET bytes of buffers per plan, and
    runs larger batches layer by layer; both give the same bits."""

    @pytest.mark.parametrize("arch, programs", [(desk_arch(), {1, 10}),
                                                (ArchConfig(stem_channels=64), {1})],
                             ids=["desk", "full"])  # 10 full-width rows need 10.5 MiB
    def test_a_batch_over_the_budget_runs_the_layer_path_with_the_same_bytes(
            self, arch, programs, monkeypatch):
        rng = np.random.default_rng(12)
        m = build_model(arch, 0)
        batches = [rng.standard_normal((n, arch.h)).astype(np.float32) for n in (1, 10, 1, 10)]
        replayed = [embed(m, x).tobytes() for x in batches]
        assert set(m.plan.programs) == programs
        monkeypatch.setattr(embnet, "PROGRAM_BUDGET", 0)
        m.plan = None  # drops the plan and its programs
        assert [embed(m, x).tobytes() for x in batches] == replayed
        assert m.plan.programs == {} and m.plan.retained == 0

    def test_retained_buffers_stay_within_the_budget(self):
        # one full-width row compiles a program of about 1.25 MiB, its batch
        # norms' tiled constants included; ten rows would need 10.5 MiB more,
        # so they run layer by layer and keep nothing
        m = build_model(ArchConfig(stem_channels=64), 0)
        x = np.random.default_rng(0).standard_normal((10, m.arch.h)).astype(np.float32)
        tracemalloc.start()
        try:
            embed(m, x[:1])
            embed(m, x)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert set(m.plan.programs) == {1}
        assert m.plan.retained <= embnet.PROGRAM_BUDGET
        assert retained <= embnet.PROGRAM_BUDGET, f"{retained / 2**20:.2f} MiB"

    @pytest.mark.parametrize("arch, n", [(desk_arch(), 10), (ArchConfig(stem_channels=64), 1)],
                             ids=["desk", "full"])
    def test_a_program_sees_in_place_writes_to_the_batch_norms(self, arch, n):
        # a program reads copies of each batch norm's constants, tiled to its
        # activation's shape; an in-place write to any array they were copied
        # from, with no load_state and no taped forward, must reach the next
        # embed.  An unchanged model keeps its plan and programs
        rng = np.random.default_rng(14)
        m = build_model(arch, 0)
        x = rng.standard_normal((n, arch.h)).astype(np.float32)
        embed(m, x)
        plan, program = m.plan, m.plan.programs[n]
        for _ in range(3):
            embed(m, x)
        assert m.plan is plan and plan.programs == {n: program}
        bn = m.net.modules()["stage1.0.bn1"]
        writes = [(bn.gamma.data, 0, -0.0),
                  (bn.beta.data, ..., rng.normal(0.0, 0.5, bn.beta.data.shape)),
                  (bn.running_mean, ..., rng.normal(0.0, 0.5, bn.running_mean.shape)),
                  (bn.running_var, ..., rng.uniform(0.25, 4.0, bn.running_var.shape))]
        for i, (array, where, value) in enumerate(writes):
            before = embed(m, x).tobytes()
            array[where] = value
            got = embed(m, x)
            assert got.tobytes() == eval_forward_reference(m.net, x[:, None, :]).tobytes(), i
            assert got.tobytes() != before and m.plan is not plan, i
            assert set(m.plan.programs) == {n}, i  # recorded again
            plan = m.plan
        # -0.0 equals 0.0 but has other bits: the check compares bytes
        bn.beta.data[0] = 0.0
        embed(m, x)
        plan = m.plan
        bn.beta.data[0] = -0.0
        embed(m, x)
        assert m.plan is not plan

    def test_stale_watches_every_batch_norm_the_conv_table_names(self):
        # one in-place write to one entry of any batch norm array makes the
        # plan stale, and putting its bytes back makes it current again
        m = build_model(desk_arch(), 0)
        embed(m, np.zeros((1, m.arch.h), np.float32))
        plan, layers = m.plan, m.net.modules()
        names = [bn for _, bn, *_ in embnet.conv_table(m.arch)]
        assert len(names) == 1 + 2 * 8 + 3  # stem, block convs, projections
        for bn in names:
            mod = layers[bn]
            for array in (mod.gamma.data, mod.beta.data, mod.running_mean, mod.running_var):
                old = array[-1]
                array[-1] = np.nextafter(old, np.inf)
                assert plan.stale(), bn
                array[-1] = old
                assert not plan.stale(), bn

    @pytest.mark.parametrize("arch, n", [(desk_arch(), 10), (ArchConfig(stem_channels=64), 1)],
                             ids=["desk", "full"])
    def test_only_a_batch_norm_change_rebuilds_the_plan(self, arch, n):
        # load_state copies into the buffers the plan views, so new weights
        # with byte-identical batch norm arrays keep the plan and its
        # programs; a taped forward moves the running statistics, and the
        # plan is rebuilt at the next embed, not before
        rng = np.random.default_rng(15)
        m = build_model(arch, 0)
        norms = ("gamma", "beta", "running_mean", "running_var")
        for name, a in m.state_dict().items():
            if name.endswith(norms):
                a[...] = rng.uniform(0.5, 2.0, a.shape)
        x = rng.standard_normal((n, arch.h)).astype(np.float32)
        before = embed(m, x).tobytes()
        plan, program = m.plan, m.plan.programs[n]
        other = build_model(arch, 1).state_dict()
        state = {name: a if name.endswith(norms) else other[name]
                 for name, a in m.state_dict().items()}
        m.load_state(state)
        got = embed(m, x).tobytes()
        assert m.plan is plan and plan.programs == {n: program}
        assert got == eval_forward_reference(m.net, x[:, None, :]).tobytes() != before
        m.net(Tensor(rng.standard_normal((4, 1, arch.h)).astype(np.float32)))
        assert m.plan is plan
        got = embed(m, x).tobytes()
        assert m.plan is not plan and set(m.plan.programs) == {n}
        assert got == eval_forward_reference(m.net, x[:, None, :]).tobytes()

    def test_an_empty_batch_embeds_to_no_rows(self):
        m = build_model(desk_arch(), 0)
        for _ in range(2):  # records, then replays
            out = embed(m, np.zeros((0, m.arch.h), np.float32))
            assert out.shape == (0, m.arch.k) and out.dtype == np.float32

    def test_threads_replaying_one_program_get_their_own_bytes(self):
        # replay writes the program's shared buffers; the plan's lock keeps
        # threads embedding same-sized batches from mixing them.  Four
        # threads, more than a small host's cores
        m = build_model(desk_arch(), 0)
        rng = np.random.default_rng(13)
        batches = [rng.standard_normal((10, m.arch.h)).astype(np.float32) for _ in range(4)]
        want = [embed(m, x).tobytes() for x in batches]
        got = [[] for _ in batches]

        def run(i):
            for _ in range(200):
                got[i].append(embed(m, batches[i]).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(batches))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert set(m.plan.programs) == {10}
        for i in range(len(batches)):
            assert len(got[i]) == 200 and set(got[i]) == {want[i]}


class TestWorkers:
    """A batch larger than one chunk runs in per-worker chunks on
    ops.gemm_workers() threads, which end with the call; with one worker it
    runs on the caller as one-chunk batches do."""

    def test_two_workers_give_each_row_its_own_bytes(self, monkeypatch):
        # 90 full-width rows at a 24-row chunk budget: two workers take 12
        # rows a chunk, so each runs several, and each chunk's wide products
        # run one GEMM over a whole tile and one over the zero-padded tail
        m = build_model(ArchConfig(stem_channels=64), 0)
        x = np.random.default_rng(21).standard_normal((90, m.arch.h)).astype(np.float32)
        alone = [embed(m, row[None]).tobytes() for row in x]
        monkeypatch.setattr(sampling, "CHUNK_BYTES", chunk_budget("embed", 24, m.plan.row_bytes))
        monkeypatch.setattr(ops, "gemm_workers", lambda: 2)
        forward, chunks = embnet._Plan.forward, []

        def spy(plan, chunk):
            chunks.append((threading.current_thread(), len(chunk)))
            return forward(plan, chunk)

        monkeypatch.setattr(embnet._Plan, "forward", spy)
        before = set(threading.enumerate())
        got = embed(m, x)
        assert set(threading.enumerate()) == before  # no worker outlives embed
        assert sorted(n for _, n in chunks) == [6] + [12] * 7
        assert {t for t, _ in chunks} - before  # chunks ran on the workers
        assert [row.tobytes() for row in got] == alone

    @staticmethod
    def _probe(core: str, threads: int):
        """An ops.openblas stand-in: an OpenBLAS of `threads` threads that
        runs the kernel set `core`."""
        handle = SimpleNamespace(scipy_openblas_get_num_threads64_=lambda: threads)
        return lambda: (handle, core)

    @pytest.mark.parametrize("probe", ["unreadable", "no_idle_cpu"])
    def test_no_thread_starts_without_an_idle_cpu(self, monkeypatch, probe):
        # an OpenBLAS that cannot be read, or one with at least as many
        # threads as the process has CPUs, leaves one worker
        if probe == "unreadable":
            monkeypatch.setattr(ops, "openblas", lambda: (None, None))
        else:
            monkeypatch.setattr(ops.os, "sched_getaffinity", lambda pid: {0})
        assert ops.gemm_workers() == 1
        m = build_model(desk_arch(), 0)
        x = np.random.default_rng(22).standard_normal((40, m.arch.h)).astype(np.float32)
        embed(m, x[:1])
        monkeypatch.setattr(sampling, "CHUNK_BYTES", chunk_budget("embed", 16, m.plan.row_bytes))
        call, seen = embnet._Plan.__call__, []

        def spy(plan, chunk):
            seen.append((threading.current_thread(), threading.active_count()))
            return call(plan, chunk)

        monkeypatch.setattr(embnet._Plan, "__call__", spy)
        count = threading.active_count()
        embed(m, x)
        assert seen == [(threading.current_thread(), count)] * 3

    def test_other_kernel_sets_run_tiles_and_keep_their_workers(self, monkeypatch):
        # outside ops._BATCH_INVARIANT_KERNELS even wide float32 products run
        # 8-row tiles, so workers may still cut a batch into chunks
        monkeypatch.setattr(ops, "openblas", self._probe("Haswell", 2))
        monkeypatch.setattr(ops.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert ops.gemm_workers() == 2
        rng = np.random.default_rng(24)
        for n in (256, 512, 1024):
            a = rng.standard_normal((29, 192)).astype(np.float32)
            b = rng.standard_normal((n, 192)).astype(np.float32).T
            steps = []
            got = ops._tiled_matmul(a, b, steps=steps)
            assert got.tobytes() == tiled_matmul_reference(a, b).tobytes(), n
            assert [step.args[0].shape for step in steps[1:]] == [(4, 8, 192)], n

    def test_cpu_count_stands_in_without_sched_getaffinity(self, monkeypatch):
        # Python offers os.sched_getaffinity on some Unix platforms only
        monkeypatch.delattr(ops.os, "sched_getaffinity")
        monkeypatch.setattr(ops.os, "cpu_count", lambda: 6)
        monkeypatch.setattr(ops, "openblas", self._probe("SkylakeX", 2))
        assert ops.gemm_workers() == 3
        m = build_model(desk_arch(), 0)
        x = np.random.default_rng(25).standard_normal((40, m.arch.h)).astype(np.float32)
        alone = embed(m, x)
        monkeypatch.setattr(sampling, "CHUNK_BYTES", chunk_budget("embed", 16, m.plan.row_bytes))
        assert embed(m, x).tobytes() == alone.tobytes()

    def test_a_process_pinned_to_one_cpu_gets_the_same_bytes(self):
        # a child with single-threaded BLAS embeds 200 full-width rows, more
        # than one chunk, on a worker per CPU, then pins itself to one CPU,
        # which leaves it one worker, and embeds them again on the caller
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(tests.parent / "src"), env.get("PYTHONPATH")) if p)
        code = (
            "import os\n"
            "import numpy as np\n"
            "from embnum.embnet import ArchConfig, build_model, embed\n"
            "from embnum.nn import ops\n"
            "m = build_model(ArchConfig(stem_channels=64), 0)\n"
            "x = np.random.default_rng(23).standard_normal((200, 100)).astype(np.float32)\n"
            "spread = embed(m, x).tobytes()\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "print(ops.gemm_workers(), embed(m, x).tobytes() == spread)\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-3000:]
        assert proc.stdout.split() == ["1", "True"]


class TestResidualPath:
    def test_zeroed_branch_passes_input_through(self):
        # gamma of the last norm zeroes the residual branch; identity shortcut
        # then makes the block exactly relu(x) == x for non-negative input
        rng = np.random.default_rng(0)
        block = BasicBlock(4, 4, stride=1)
        init_weights(block, rng)
        block.modules()["bn2"].gamma.data[:] = 0.0
        x = np.abs(rng.standard_normal((2, 4, 8))).astype(np.float32)
        out = block(Tensor(x))
        assert np.array_equal(out.data, x)


class TestCheckpointFormat:
    def test_round_trip_preserves_everything(self, tmp_path):
        m = build_model(TINY, seed=5)
        # move running stats off their initial values first
        x = np.random.default_rng(0).standard_normal((4, 1, 16)).astype(np.float32)
        m.net(Tensor(x))
        m.training_meta["best_mrr"] = 0.75
        p = tmp_path / "model.bin"
        save_model(m, p)
        loaded = load_model(p)
        assert model_to_bytes(loaded) == model_to_bytes(m)

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        m = build_model(TINY, seed=5)
        p = tmp_path / "model.bin"
        save_model(m, p)

        def no_draw(net, rng):
            raise AssertionError("loading a checkpoint drew random weights")

        monkeypatch.setattr(embnet, "init_weights", no_draw)
        assert model_to_bytes(load_model(p)) == model_to_bytes(m)

    def test_magic_and_version_fields(self):
        blob = model_to_bytes(build_model(TINY, seed=0))
        assert blob[:4] == MODEL_MAGIC
        assert int.from_bytes(blob[4:8], "little") == MODEL_VERSION

    def test_truncation_detected(self):
        blob = model_to_bytes(build_model(TINY, seed=0))
        with pytest.raises(ChecksumMismatch):
            model_from_bytes(blob[: len(blob) // 2])

    def test_corruption_detected(self):
        blob = bytearray(model_to_bytes(build_model(TINY, seed=0)))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(ChecksumMismatch):
            model_from_bytes(bytes(blob))

    def test_wrong_magic_detected(self):
        blob = bytearray(model_to_bytes(build_model(TINY, seed=0)))
        blob[:4] = b"XXXX"
        with pytest.raises(ChecksumMismatch):
            model_from_bytes(bytes(blob))

    def test_future_version_detected(self):
        blob = bytearray(model_to_bytes(build_model(TINY, seed=0)))
        blob[4:8] = (MODEL_VERSION + 1).to_bytes(4, "little")
        # CRC still covers the patched bytes, so recompute it
        import zlib

        body = bytes(blob[:-4])
        blob[-4:] = zlib.crc32(body).to_bytes(4, "little")
        with pytest.raises(FormatVersionMismatch):
            model_from_bytes(bytes(blob))

    def test_arrays_must_match_declared_arch(self):
        m = build_model(TINY, seed=0)
        manifest, arrays = _serial.unpack_framed(model_to_bytes(m), MODEL_MAGIC,
                                                 MODEL_VERSION)
        arrays.pop("fc.bias")
        doctored = _serial.pack_framed(MODEL_MAGIC, MODEL_VERSION,
                                       manifest, arrays)
        with pytest.raises(InvalidArch):
            model_from_bytes(doctored)

    @pytest.mark.parametrize("name", ["stem_conv.weight", "fc.bias", "stem_bn.running_var"])
    def test_arrays_must_match_declared_shapes(self, name):
        manifest, arrays = _serial.unpack_framed(model_to_bytes(build_model(TINY, seed=0)),
                                                 MODEL_MAGIC, MODEL_VERSION)
        arrays[name] = np.concatenate([arrays[name].reshape(-1), [0.0]]).astype(np.float32)
        doctored = _serial.pack_framed(MODEL_MAGIC, MODEL_VERSION, manifest, arrays)
        with pytest.raises(InvalidArch):
            model_from_bytes(doctored)

    @pytest.mark.parametrize("missing", ["arch", "training_meta"])
    def test_missing_manifest_key_is_malformed_checkpoint(self, missing):
        manifest, arrays = _serial.unpack_framed(model_to_bytes(build_model(TINY, seed=0)),
                                                 MODEL_MAGIC, MODEL_VERSION)
        del manifest[missing]
        doctored = _serial.pack_framed(MODEL_MAGIC, MODEL_VERSION, manifest, arrays)
        with pytest.raises(MalformedCheckpoint, match=missing):
            model_from_bytes(doctored)

    @pytest.mark.parametrize("field, value", [("width_multiplier", 0.125),
                                              ("input_norm", "signed_log")])
    def test_removed_arch_field_is_malformed_checkpoint(self, field, value):
        manifest, arrays = _serial.unpack_framed(model_to_bytes(build_model(TINY, seed=0)),
                                                 MODEL_MAGIC, MODEL_VERSION)
        manifest["arch"][field] = value
        doctored = _serial.pack_framed(MODEL_MAGIC, MODEL_VERSION, manifest, arrays)
        with pytest.raises(MalformedCheckpoint, match=field):
            model_from_bytes(doctored)

    @pytest.mark.parametrize("training_meta", ["ab", 7])
    def test_mistyped_training_meta_is_malformed_checkpoint(self, training_meta):
        manifest, arrays = _serial.unpack_framed(model_to_bytes(build_model(TINY, seed=0)),
                                                 MODEL_MAGIC, MODEL_VERSION)
        manifest["training_meta"] = training_meta
        doctored = _serial.pack_framed(MODEL_MAGIC, MODEL_VERSION, manifest, arrays)
        with pytest.raises(MalformedCheckpoint):
            model_from_bytes(doctored)

    def test_model_bytes_see_meta_and_weights(self):
        a = build_model(TINY, seed=0)
        b = build_model(TINY, seed=0)
        b.training_meta["epochs_seen"] = 3
        assert model_to_bytes(a) != model_to_bytes(b)
        c = build_model(TINY, seed=0)
        c.net.fc.bias.data[0] += 1e-3
        assert model_to_bytes(a) != model_to_bytes(c)


class TestWeightLayout:
    """A conv at least ops._ONE_GEMM_WIDTH wide holds its weight as (c_in*k,
    c_out) rows, the operand conv1d's forward product reads; narrower convs
    and fc hold C order.  Loading and training keep the layout."""

    @staticmethod
    def _assert_layouts(model):
        wide = 0
        for name, mod in model.net.modules().items():
            w = mod.weight.data if isinstance(mod, (Conv1d, Linear)) else None
            if isinstance(mod, Conv1d) and w.shape[0] >= ops._ONE_GEMM_WIDTH:
                assert w.reshape(w.shape[0], -1).T.flags.c_contiguous, name
                wide += 1
            elif w is not None:
                assert w.flags.c_contiguous, name
        assert wide == 10  # every conv of stages 2 and 3 of the full-width net

    def test_the_layout_survives_loading_and_training(self, desk_dataset, tmp_path):
        model = build_model(ArchConfig(stem_channels=64), seed=0)
        self._assert_layouts(model)
        self._assert_layouts(model_from_bytes(model_to_bytes(model)))
        save_store(index_labeled(desk_dataset, "embnum", model), tmp_path / "e.store")
        self._assert_layouts(load_store(tmp_path / "e.store").model)
        cfg = TrainConfig(epochs=2, batch_labels=10, samples_per_label=3, seed=0)
        self._assert_layouts(train(desk_dataset, ArchConfig(stem_channels=64), cfg)[0])

    def test_load_state_refuses_a_wrong_shape_and_copies_nothing(self):
        model = build_model(ArchConfig(stem_channels=64), seed=0)
        before = model_to_bytes(model)
        arrays = {name: a + 1 for name, a in model.state_dict().items()}
        arrays["stage3.1.conv2.weight"] = arrays["stage3.1.conv2.weight"][:, :, :2]
        with pytest.raises(InvalidArch, match="stage3.1.conv2.weight"):
            model.load_state(arrays)
        assert model_to_bytes(model) == before
        self._assert_layouts(model)
