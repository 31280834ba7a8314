"""Residual 1-D convolutional embedding network.

Maps an h-length sorted quantile vector to a k-dimensional embedding through
a ResNet-18-shaped stack adapted to one spatial dimension: a 7-wide strided
stem, four stages of two two-conv residual blocks with channel doubling and
stride-2 entries, global average pooling, and a final affine projection.
The stem's channel count sets every stage's width, so the same topology runs
at desk scale.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import _serial
from .errors import EmptyInput, InvalidArch, MalformedCheckpoint, WidthMismatch
from .nn import BatchNorm1d, Conv1d, Linear, Tensor, ops
from .sampling import sample_inverse_transform

MODEL_MAGIC = b"EMBN"
MODEL_VERSION = 1
EMBED_CHUNK = 512  # rows per forward pass of embed()
DISTANCE_BUDGET = 1 << 16  # float64 values per block of distances() and training_mrr
PROGRAM_BUDGET = 2 << 20  # bytes of buffers one eval plan's programs retain


@dataclass(frozen=True)
class ArchConfig:
    h: int = 100
    k: int = 100
    stem_channels: int = 64

    def __post_init__(self):
        _serial.check(asdict(self), CHECKPOINT["arch"], InvalidArch, "arch")
        if min(self.h, self.k, self.stem_channels) < 1:
            raise InvalidArch(f"every field must be >= 1: {self}")
        for name, shape in state_shapes(self):  # float32 arrays numpy can address
            if 4 * math.prod(shape) >= 1 << 63:
                raise InvalidArch(f"{name} would need 2**63 bytes or more: {self}")

    @property
    def stage_channels(self) -> tuple[int, int, int, int]:
        c = self.stem_channels
        return (c, 2 * c, 4 * c, 8 * c)


def block_plan(arch: ArchConfig):
    """(stage, block, in channels, out channels, stride) of every residual
    block in order: two per stage, the first of stages 1-3 strided by 2."""
    in_ch = arch.stem_channels
    for i, out_ch in enumerate(arch.stage_channels):
        for j in range(2):
            yield i, j, in_ch, out_ch, 2 if i > 0 and j == 0 else 1
            in_ch = out_ch


POOL = (3, 2, 1)  # the stem's max pool: kernel, stride, padding


def block_convs(in_ch: int, out_ch: int, stride: int, prefix: str = ""):
    """conv_table's rows for one residual block: two 3-wide convs, the first
    strided, then a strided 1-wide projection when the shortcut changes shape."""
    yield prefix + "conv1", prefix + "bn1", (out_ch, in_ch, 3), stride, 1
    yield prefix + "conv2", prefix + "bn2", (out_ch, out_ch, 3), 1, 1
    if stride != 1 or in_ch != out_ch:
        yield prefix + "proj_conv", prefix + "proj_bn", (out_ch, in_ch, 1), stride, 0


def conv_table(arch: ArchConfig):
    """(conv name, name of the batch norm it feeds, (C_out, C_in, K), stride,
    padding) of every conv of a ResNet1d(arch), in state order: the 7-wide
    strided stem, then each block of block_plan.  The one place the layer
    layout is written: the modules are built from its rows and state_shapes
    reads them."""
    yield "stem_conv", "stem_bn", (arch.stem_channels, 1, 7), 2, 3
    for stage, block, in_ch, out_ch, stride in block_plan(arch):
        yield from block_convs(in_ch, out_ch, stride, f"stage{stage}.{block}.")


class _Layers:
    """A Conv1d and the BatchNorm1d it feeds per conv_table row, as (conv,
    bn) pairs in row order, and every module by its state name (modules),
    in the order that fixes state_dict and init_weights' draw."""

    def __init__(self, rows):
        self.pairs, self.layers = [], {}
        for conv, bn, (c_out, c_in, k), stride, padding in rows:
            pair = Conv1d(c_in, c_out, k, stride=stride, padding=padding), BatchNorm1d(c_out)
            self.pairs.append(pair)
            self.layers.update(zip((conv, bn), pair))

    def modules(self) -> dict[str, object]:
        return self.layers

    def named_params(self) -> dict[str, Tensor]:
        return {f"{prefix}.{name}": p for prefix, mod in self.layers.items()
                for name, p in mod.params().items()}

    def named_buffers(self) -> dict[str, np.ndarray]:
        return {f"{prefix}.{name}": b for prefix, mod in self.layers.items()
                if isinstance(mod, BatchNorm1d) for name, b in mod.buffers().items()}


class BasicBlock(_Layers):
    """Two 3-wide convolutions with a residual connection, built from
    block_convs' rows: pairs holds (conv1, bn1), (conv2, bn2) and, when the
    shortcut is not the identity, its projection (proj_conv, proj_bn)."""

    def __init__(self, in_channels: int, out_channels: int, stride: int, prefix: str = ""):
        super().__init__(block_convs(in_channels, out_channels, stride, prefix))

    def __call__(self, x: Tensor) -> Tensor:
        (conv1, bn1), (conv2, bn2), *proj = self.pairs
        y = bn2(conv2(ops.relu(bn1(conv1(x)))))
        for conv, bn in proj:
            x = bn(conv(x))
        return ops.relu(y + x)


class ResNet1d(_Layers):
    """Built from conv_table: pairs holds the stem's pair, then each block's,
    in row order, and layers ends with fc.  The taped forward calls the stem,
    the blocks and fc through their attributes, which a tracer may wrap."""

    def __init__(self, arch: ArchConfig):
        super().__init__([next(conv_table(arch))])
        self.stem_conv, self.stem_bn = self.pairs[0]
        self.stages: list[list[BasicBlock]] = [[] for _ in arch.stage_channels]
        for stage, j, in_ch, out_ch, stride in block_plan(arch):
            block = BasicBlock(in_ch, out_ch, stride, f"stage{stage}.{j}.")
            self.stages[stage].append(block)
            self.pairs += block.pairs
            self.layers.update(block.layers)
        self.fc = self.layers["fc"] = Linear(arch.stage_channels[3], arch.k)
        # infer's frozen forward and its programs, built at the first batch's
        # width and built again once any batch norm array's bytes change
        self.plan = None

    def __call__(self, x: Tensor) -> Tensor:
        """Training's taped forward: each batch norm normalizes by the batch's
        statistics and moves its running ones, which makes the frozen plan
        stale()."""
        y = ops.relu(self.stem_bn(self.stem_conv(x)))
        y = ops.maxpool1d(y, *POOL)
        for blocks in self.stages:
            for block in blocks:
                y = block(y)
        y = ops.global_avgpool1d(y)
        return self.fc(y)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """The eval forward of a (B, 1, h) array, each batch norm on its
        running statistics, run on plain channels-last arrays by a _Plan
        built at width h, which embed has checked against arch.h, and built
        again whenever it is stale(), the one rule by which it is rebuilt;
        each activation stays in its conv's GEMM buffer."""
        if self.plan is None or self.plan.stale():
            self.plan = _Plan(self, x.shape[2])
        return self.plan(x)


def _conv_bn(conv: Conv1d, bn: BatchNorm1d, length: int) -> tuple:
    """What one conv at input length `length` and the batch norm after it
    read in eval mode: the (C_in*K, C_out) view of the conv's weight that
    ops.conv1d reads, its tap spans (ops.tap_spans, as ops.conv1d looks them
    up), and (C,) views of the batch norm's running mean, gamma and beta
    beside 1 / sqrt(running_var + eps), as batchnorm1d takes it of a batch
    variance."""
    w = conv.weight.data
    taps = ops.tap_spans(length, w.shape[2], conv.stride, conv.padding)
    inv = 1.0 / np.sqrt(bn.running_var + ops.BN_EPS)
    return w.reshape(len(w), -1).T, taps, bn.running_mean, inv, bn.gamma.data, bn.beta.data


_NORM_UFUNCS = (np.subtract, np.multiply, np.multiply, np.add)


def _conv_bn_forward(layer: tuple, x: np.ndarray, steps: list | None) -> np.ndarray:
    """The conv, then its batch norm as four in-place passes: ((y - mean) *
    inv) * gamma + beta.  Run layer by layer each pass broadcasts a (C,)
    constant; recorded, it reads a contiguous copy of the constant tiled to
    y's own (B, L_out, C) shape, both operands flat, so replay takes numpy's
    same-shape loop with the same bits."""
    wt, taps, *norm = layer
    y = ops.conv_forward(x, wt, taps, steps)[0]
    if steps is None:
        for fn, c in zip(_NORM_UFUNCS, norm):
            fn(y, c, y)
    else:
        flat = y.reshape(-1)
        for fn, c in zip(_NORM_UFUNCS, norm):
            ops.record(steps, fn, flat, np.tile(c, y.size // c.size), flat)
    return y


class _Plan:
    """net's eval-mode forward as a function of one (B, 1, h) float32 array.

    Every op is ops' own array arithmetic in the network's layer order, each
    batch norm computing ((y - running_mean) * inv) * gamma + beta, so the
    bits are those of the taped ops run with each batch norm on its running
    statistics; no Tensor, tape or module call is made.  Each activation
    stays channels-last, (B, L, C), in the buffer of whole 8-row tiles that
    its conv's GEMM wrote: batch norm, relu and the residual add run in
    place over those contiguous rows, and the next conv's im2col and the max
    pool read it as it is.  Each layer's tap spans come from ops.tap_spans,
    looked up once here by walking the layers from width h, with the keys
    the taped ops use.  The plan holds views of the weights, which SGD,
    init_weights and Model.load_state write in place, the batch norms'
    inverse deviations, computed here once, and the bytes of every batch
    norm's running_mean, running_var, gamma and beta as they were here;
    stale() compares those bytes with the arrays' current ones, and
    ResNet1d.infer builds a new plan when they differ, its only rebuild
    rule, which also covers the taped forward's running statistics.

    forward runs the network layer by layer, allocating each activation and
    freeing it once read; there batch norm broadcasts (C,) constants and
    relu a scalar zero.  The first batch of each size whose buffers fit in
    what PROGRAM_BUDGET leaves also records that run's calls (ops.record)
    into a program: its input buffer and the steps over the buffers the run
    allocated, which stay allocated.  Those include each batch norm
    constant tiled to its activation's shape and one zeros buffer for every
    relu, so each recorded pass reads two same-shaped contiguous operands.
    A later batch of that size copies into the input buffer and replays the
    steps, the same calls on the same operand layouts, so the bits are
    forward's.  Replay writes shared buffers, so one lock per plan
    serializes it; batches without a program run forward, which is
    reentrant, outside the lock.
    """

    def __init__(self, net: ResNet1d, h: int):
        self.stem = _conv_bn(net.stem_conv, net.stem_bn, h)
        self.pool_taps = ops.tap_spans(self.stem[1][0], *POOL)
        length, self.blocks = self.pool_taps[0], []
        for block in (b for blocks in net.stages for b in blocks):
            first, second, *proj = block.pairs
            conv1 = _conv_bn(*first, length)
            proj = [_conv_bn(*pair, length) for pair in proj]
            length = conv1[1][0]
            self.blocks.append((conv1, _conv_bn(*second, length), *proj))
        self.convs = [self.stem, *(layer for block in self.blocks for layer in block)]
        self.fc_wt, self.fc_bias = net.fc.weight.data.T, net.fc.bias.data
        self.norms = [a for _, bn in net.pairs
                      for a in (bn.running_mean, bn.running_var, bn.gamma.data, bn.beta.data)]
        self.norm_bytes = np.concatenate(self.norms).tobytes()
        self.programs: dict[int, tuple] = {}  # batch size -> (input buffer, steps)
        self.retained = 0  # bytes of the programs' buffers
        self.lock = threading.Lock()

    def stale(self) -> bool:
        """Whether any batch norm array's bytes changed since the plan was
        built (so -0.0 and each NaN compare as their bits)."""
        return np.concatenate(self.norms).tobytes() != self.norm_bytes

    def __call__(self, x: np.ndarray) -> np.ndarray:
        with self.lock:
            program = self.programs.get(len(x))
            if program is not None:
                x_in, steps = program
                np.copyto(x_in, x)
                for step in steps:
                    y = step()
                return y
            size = self.program_bytes(x)
            if self.retained + size <= PROGRAM_BUDGET:
                x_in, steps = x.copy(), []
                y = self.forward(x_in, steps)
                self.programs[len(x)] = x_in, tuple(steps)
                self.retained += size
                return y
        return self.forward(x)

    def conv_outputs(self, b: int) -> list[int]:
        """The floats of each conv's (b, L_out, C_out) output, in self.convs' order."""
        return [b * taps[0] * wt.shape[1] for wt, taps, *_ in self.convs]

    def program_bytes(self, x: np.ndarray) -> int:
        """An upper bound, from the shapes alone, on the bytes of the float32
        buffers that recording forward(x) allocates: the input's copy, each
        conv's im2col matrix and product in whole tiles, its batch norm's
        four tiled constants, the relu zeros, the max pool's output, the
        pooled means and their tile-padded copy, and the fc product."""
        b, (c, k), rows = len(x), self.fc_wt.shape, ops.tile_rows
        outputs = self.conv_outputs(b)
        floats = (x.size + b * self.pool_taps[0] * self.stem[0].shape[1]
                  + sum(rows(b * taps[0]) * sum(wt.shape) for wt, taps, *_ in self.convs)
                  + 4 * sum(outputs) + max(outputs)
                  + (b + rows(b)) * c + rows(b) * k)
        return 4 * floats

    def forward(self, x: np.ndarray, steps: list | None = None) -> np.ndarray:
        """The network's layer-by-layer eval forward on a (B, 1, h) array;
        with steps, each array call is recorded into it (ops.record)."""
        zeros = None if steps is None else np.zeros(max(self.conv_outputs(len(x))), x.dtype)

        def relu(y):
            if steps is None:
                return ops.relu_(y, y)
            flat = y.reshape(-1)
            ops.relu_(flat, flat, steps, zeros[: flat.size])
            return y

        y = _conv_bn_forward(self.stem, x.transpose(0, 2, 1), steps)
        y = ops.maxpool_forward(relu(y), self.pool_taps, steps)
        for conv1, conv2, *proj in self.blocks:
            h = _conv_bn_forward(conv1, y, steps)
            h = _conv_bn_forward(conv2, relu(h), steps)
            for layer in proj:
                y = _conv_bn_forward(layer, y, steps)
            ops.record(steps, np.add, h, y, h)
            y = relu(h)
        pooled = np.empty((len(y), y.shape[2]), y.dtype)
        ops.record(steps, np.mean, y, axis=1, out=pooled)
        return ops.record(steps, np.add, ops._tiled_matmul(pooled, self.fc_wt, steps=steps),
                          self.fc_bias)


@dataclass(eq=False)
class Model:
    arch: ArchConfig
    net: ResNet1d
    training_meta: dict = field(default_factory=dict)

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.data for name, p in self.net.named_params().items()}
        state.update(self.net.named_buffers())
        return state

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy every parameter and buffer in from arrays, into the buffers
        the layers allocated, so each keeps its layout (ops.conv_weight) and
        the frozen plan's weight views see the copy; the plan is rebuilt
        only if a batch norm array's bytes change (_Plan.stale).  Unless
        arrays hold exactly this model's names and shapes, InvalidArch names
        the first that differs and nothing is copied."""
        state = self.state_dict()
        shapes = {name: np.shape(a) for name, a in arrays.items()}
        for name in sorted(state.keys() | shapes.keys()):
            if name not in state or shapes.get(name) != state[name].shape:
                raise InvalidArch(f"state array {name!r} is missing, extra or misshapen")
        for name, buf in state.items():
            np.copyto(buf, arrays[name])


def init_weights(net, rng: np.random.Generator) -> None:
    """He-uniform draw for every conv and linear weight of a network or
    block, in modules() order: U(-b, b) with b = sqrt(6 / fan_in), fan_in
    the product of the weight's shape past the output axis."""
    for mod in net.modules().values():
        if isinstance(mod, (Conv1d, Linear)):
            w = mod.weight.data
            bound = np.sqrt(6.0 / math.prod(w.shape[1:]))
            w[...] = rng.uniform(-bound, bound, size=w.shape)


def build_model(arch: ArchConfig, seed: int) -> Model:
    net = ResNet1d(arch)
    init_weights(net, np.random.default_rng(seed))
    return Model(arch=arch, net=net,
                 training_meta={"epochs_seen": 0, "best_mrr": 0.0, "seed": int(seed)})


def normalize_input(raw: np.ndarray) -> np.ndarray:
    """Magnitude conditioning: v -> sign(v) * ln(1 + |v|), at most 709.8 in
    magnitude for any finite float64, so float32 always holds it."""
    raw = np.asarray(raw, dtype=np.float64)
    return np.sign(raw) * np.log1p(np.abs(raw))


def preprocess(columns, arch: ArchConfig) -> np.ndarray:
    """Raw attribute columns -> model-ready (n, h) float32 rows, one per
    column, sampled in one sample_inverse_transform call; one 1-D array is a
    batch of one."""
    return normalize_input(sample_inverse_transform(columns, arch.h)).astype(np.float32)


def embed(model: Model, inputs: np.ndarray) -> np.ndarray:
    """Eval-mode forward pass of an (n, h) batch, at most EMBED_CHUNK rows
    at a time, through the network's frozen plan (ResNet1d.infer); returns
    (n, k) float32 embeddings.  Batching never changes the numbers.  Any
    other shape is WidthMismatch, and a row holding a NaN or an infinity is
    EmptyInput, as sampling refuses such a column.
    """
    x = np.asarray(inputs, dtype=np.float32)
    if x.ndim != 2 or x.shape[1] != model.arch.h:
        raise WidthMismatch(f"expected an (n, {model.arch.h}) batch, got shape {x.shape}")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise EmptyInput(f"embed input row {int(np.argmin(finite))} holds a NaN or an infinity")
    return np.concatenate([model.net.infer(x[i : i + EMBED_CHUNK, None, :])
                           for i in range(0, max(len(x), 1), EMBED_CHUNK)])


def distances(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Exact float64 Euclidean distances, (queries, n), from n (k,) points to
    each row of a (queries, k) block.  Mining, training MRR and labeling all
    rank by it.  Query rows go a block at a time, as many as keep
    the block's differences within DISTANCE_BUDGET float64 values (at least
    one row), through one buffer allocated per call; the same budget bounds
    the rows metric.training_mrr ranks per block.  Each block sums its
    squares with one einsum, which gives every row the bits of summing it
    alone.  Squares underflow for points under about 1e-154 apart (to
    exactly 0 under 1e-162); distinct float32 embeddings are at least
    1.4e-45 apart, far above either."""
    points = np.asarray(points, dtype=np.float64)
    block = np.asarray(queries, dtype=np.float64)
    out = np.empty((len(block), len(points)))
    step = max(1, DISTANCE_BUDGET // max(points.size, 1))
    diff = np.empty((min(step, len(block)), *points.shape))
    for lo in range(0, len(block), step):
        rows = np.subtract(points, block[lo : lo + step, None], out=diff[: len(block) - lo])
        np.sqrt(np.einsum("qij,qij->qi", rows, rows), out=out[lo : lo + step])
    return out


def model_frame(model: Model) -> tuple[dict, dict[str, np.ndarray]]:
    """The manifest metadata and named arrays that a checkpoint frames."""
    meta = {
        "kind": "embedding-model",
        "arch": asdict(model.arch),
        "training_meta": model.training_meta,
    }
    return meta, model.state_dict()


def state_shapes(arch: ArchConfig):
    """(name, shape) of every array in a ResNet1d(arch)'s state, from the
    arch alone (conv_table), so a checkpoint is checked before any array is
    allocated."""
    for conv, bn, shape, _, _ in conv_table(arch):
        yield f"{conv}.weight", shape
        for name in ("gamma", "beta", "running_mean", "running_var"):
            yield f"{bn}.{name}", shape[:1]
    yield "fc.weight", (arch.k, arch.stage_channels[3])
    yield "fc.bias", (arch.k,)


CHECKPOINT = {"kind": str, "arrays?": list, "training_meta": dict,
              "arch": {"h": int, "k": int, "stem_channels": int}}


def model_from_frame(manifest: dict, arrays: dict[str, np.ndarray]) -> Model:
    """Inverse of model_frame: a manifest that is not CHECKPOINT is
    MalformedCheckpoint, arrays that are not its arch's state_shapes InvalidArch,
    and an array holding a NaN or an infinity MalformedCheckpoint."""
    _serial.check(manifest, CHECKPOINT, MalformedCheckpoint, "checkpoint")
    arch = ArchConfig(**manifest["arch"])
    if dict(state_shapes(arch)) != {name: a.shape for name, a in arrays.items()}:
        raise InvalidArch("checkpoint arrays do not match its architecture")
    _serial.check_finite(arrays, MalformedCheckpoint, "checkpoint")
    model = Model(arch=arch, net=ResNet1d(arch), training_meta=manifest["training_meta"])
    model.load_state(arrays)
    return model


def model_to_bytes(model: Model) -> bytes:
    return _serial.pack_framed(MODEL_MAGIC, MODEL_VERSION, *model_frame(model))


def model_from_bytes(blob: bytes) -> Model:
    return model_from_frame(*_serial.unpack_framed(blob, MODEL_MAGIC, MODEL_VERSION))


def save_model(model: Model, path: Path) -> None:
    """Write model's checkpoint; an array holding a NaN or an infinity is
    MalformedCheckpoint, as load_model would find it, and nothing is written."""
    _serial.check_finite(model.state_dict(), MalformedCheckpoint, str(path))
    _serial.atomic_write_bytes(Path(path), model_to_bytes(model))


def load_model(path: Path) -> Model:
    return model_from_bytes(Path(path).read_bytes())
