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
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import _serial
from .errors import InvalidArch, MalformedCheckpoint, WidthMismatch
from .nn import BatchNorm1d, Conv1d, Linear, Tensor, ops
from .sampling import sample_inverse_transform

MODEL_MAGIC = b"EMBN"
MODEL_VERSION = 1
EMBED_CHUNK = 512  # rows per forward pass of embed()
DISTANCE_BUDGET = 1 << 16  # float64 differences held per block of distances()


@dataclass(frozen=True)
class ArchConfig:
    h: int = 100
    k: int = 100
    stem_channels: int = 64

    def __post_init__(self):
        if min(self.h, self.k, self.stem_channels) < 1:
            raise InvalidArch(f"every field must be >= 1: {self}")

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


def _projects(in_channels: int, out_channels: int, stride: int) -> bool:
    return stride != 1 or in_channels != out_channels  # the shortcut changes shape


class BasicBlock:
    """Two 3-wide convolutions with a residual connection.

    The shortcut is the identity when shapes match, else a strided 1-wide
    projection conv + batch norm.
    """

    def __init__(self, in_channels: int, out_channels: int, stride: int):
        self.conv1 = Conv1d(in_channels, out_channels, 3, stride=stride, padding=1)
        self.bn1 = BatchNorm1d(out_channels)
        self.conv2 = Conv1d(out_channels, out_channels, 3, padding=1)
        self.bn2 = BatchNorm1d(out_channels)
        self.proj_conv = self.proj_bn = None
        if _projects(in_channels, out_channels, stride):
            self.proj_conv = Conv1d(in_channels, out_channels, 1, stride=stride)
            self.proj_bn = BatchNorm1d(out_channels)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        y = ops.relu(self.bn1(self.conv1(x), training))
        y = self.bn2(self.conv2(y), training)
        if self.proj_conv is not None:
            shortcut = self.proj_bn(self.proj_conv(x), training)
        else:
            shortcut = x
        return ops.relu(y + shortcut)

    def modules(self) -> dict[str, object]:
        out = {"conv1": self.conv1, "bn1": self.bn1,
               "conv2": self.conv2, "bn2": self.bn2}
        if self.proj_conv is not None:
            out["proj_conv"] = self.proj_conv
            out["proj_bn"] = self.proj_bn
        return out


class ResNet1d:
    def __init__(self, arch: ArchConfig):
        chans = arch.stage_channels
        self.stem_conv = Conv1d(1, chans[0], 7, stride=2, padding=3)
        self.stem_bn = BatchNorm1d(chans[0])
        self.stages: list[list[BasicBlock]] = [[] for _ in chans]
        for stage, _, in_ch, out_ch, stride in block_plan(arch):
            self.stages[stage].append(BasicBlock(in_ch, out_ch, stride))
        self.fc = Linear(chans[3], arch.k)
        # infer's frozen forward; a training-mode forward or Model.load_state,
        # the only writers of the running statistics, drops it
        self.plan = None

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        if training:
            self.plan = None
        y = ops.relu(self.stem_bn(self.stem_conv(x), training))
        y = ops.maxpool1d(y, kernel=3, stride=2, padding=1)
        for blocks in self.stages:
            for block in blocks:
                y = block(y, training)
        y = ops.global_avgpool1d(y)
        return self.fc(y)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """self(Tensor(x), training=False).data, bit for bit, for a (B, 1, h)
        array, run on plain arrays by a plan that _freeze builds once per
        state."""
        if self.plan is None:
            self.plan = _freeze(self)
        return self.plan(x)

    def modules(self) -> dict[str, object]:
        out: dict[str, object] = {"stem_conv": self.stem_conv, "stem_bn": self.stem_bn}
        for i, blocks in enumerate(self.stages):
            for j, block in enumerate(blocks):
                for name, mod in block.modules().items():
                    out[f"stage{i}.{j}.{name}"] = mod
        out["fc"] = self.fc
        return out

    def named_params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for prefix, mod in self.modules().items():
            for name, p in mod.params().items():
                out[f"{prefix}.{name}"] = p
        return out

    def named_buffers(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for prefix, mod in self.modules().items():
            if isinstance(mod, BatchNorm1d):
                for name, b in mod.buffers().items():
                    out[f"{prefix}.{name}"] = b
        return out


def _conv_bn(conv: Conv1d, bn: BatchNorm1d) -> tuple:
    """What one conv and the batch norm after it read in eval mode: views of
    the layers' own buffers, in the layouts ops.conv1d and ops.batchnorm1d
    read, and 1 / sqrt(running_var + eps) as batchnorm1d computes it."""
    w = conv.weight.data
    inv = 1.0 / np.sqrt(bn.running_var + ops.BN_EPS)
    return (w.reshape(len(w), -1).T, conv.stride, conv.padding, bn.running_mean[:, None],
            inv[:, None], bn.gamma.data[:, None], bn.beta.data[:, None])


def _conv_bn_forward(layer: tuple, x: np.ndarray) -> np.ndarray:
    wt, stride, padding, mean, inv, gamma, beta = layer
    y = ops.conv_forward(x, wt, stride, padding)[0]
    y -= mean
    y *= inv
    y *= gamma
    y += beta
    return y


def _relu_(y: np.ndarray) -> np.ndarray:
    np.fmax(y, 0, out=y)
    y += 0
    return y


def _freeze(net: ResNet1d):
    """net's eval-mode forward as a function of one (B, 1, h) float32 array.

    Every op is ops' own array arithmetic in the order the taped forward
    runs it, so the bits are the same; only the Tensors, the tape and the
    module calls are gone, and relu and the residual add write in place.
    The function holds views of the weights, which SGD and init_weights
    update in place, and the batch norms' inverse deviations, computed here
    once, so it is stale once the running statistics change.
    """
    stem = _conv_bn(net.stem_conv, net.stem_bn)
    blocks = [(_conv_bn(b.conv1, b.bn1), _conv_bn(b.conv2, b.bn2),
               None if b.proj_conv is None else _conv_bn(b.proj_conv, b.proj_bn))
              for stage in net.stages for b in stage]
    fc_wt, fc_bias = net.fc.weight.data.T, net.fc.bias.data[None, :]

    def forward(x: np.ndarray) -> np.ndarray:
        y = ops.maxpool_forward(_relu_(_conv_bn_forward(stem, x)), 3, 2, 1)
        for conv1, conv2, proj in blocks:
            h = _conv_bn_forward(conv2, _relu_(_conv_bn_forward(conv1, y)))
            h += y if proj is None else _conv_bn_forward(proj, y)
            y = _relu_(h)
        return ops._tiled_matmul(y.mean(axis=2), fc_wt) + fc_bias

    return forward


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
        the layers allocated, so each keeps its layout (ops.conv_weight),
        and drop the network's frozen forward.  Unless arrays hold exactly
        this model's names and shapes, InvalidArch names the first that
        differs and nothing is copied."""
        state = self.state_dict()
        shapes = {name: np.shape(a) for name, a in arrays.items()}
        for name in sorted(state.keys() | shapes.keys()):
            if name not in state or shapes.get(name) != state[name].shape:
                raise InvalidArch(f"state array {name!r} is missing, extra or misshapen")
        self.net.plan = None
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


def preprocess(values: np.ndarray, arch: ArchConfig) -> np.ndarray:
    """Raw attribute values -> model-ready float32 h-vector."""
    return normalize_input(sample_inverse_transform(values, arch.h)).astype(np.float32)


def embed(model: Model, inputs: np.ndarray) -> np.ndarray:
    """Eval-mode forward pass, at most EMBED_CHUNK rows at a time, through
    the network's frozen plan (ResNet1d.infer), whose bits are the taped
    forward's.

    Accepts one h-vector or a (batch, h) stack; returns float32 embeddings
    with matching leading shape.  Batching never changes the numbers.
    """
    x = np.asarray(inputs, dtype=np.float32)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != model.arch.h:
        raise WidthMismatch(
            f"expected input width {model.arch.h}, got shape {np.asarray(inputs).shape}"
        )
    out = np.concatenate([model.net.infer(x[i : i + EMBED_CHUNK, None, :])
                          for i in range(0, max(len(x), 1), EMBED_CHUNK)])
    return out[0] if single else out


def distances(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Exact float64 Euclidean distances, (queries, n), from n (k,) points to
    each row of a (queries, k) block.  Mining, training MRR and labeling all
    rank by it.  Query rows go a block at a time, as many as keep
    the block's differences within DISTANCE_BUDGET float64 values (at least
    one row), through one buffer allocated per call; each block sums its
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
    arch alone, so a checkpoint is checked before any array is allocated."""
    def conv_bn(conv: str, bn: str, shape: tuple):
        yield f"{conv}.weight", shape
        for name in ("gamma", "beta", "running_mean", "running_var"):
            yield f"{bn}.{name}", shape[:1]

    chans = arch.stage_channels
    yield from conv_bn("stem_conv", "stem_bn", (chans[0], 1, 7))
    for stage, block, in_ch, out_ch, stride in block_plan(arch):
        p = f"stage{stage}.{block}."
        yield from conv_bn(p + "conv1", p + "bn1", (out_ch, in_ch, 3))
        yield from conv_bn(p + "conv2", p + "bn2", (out_ch, out_ch, 3))
        if _projects(in_ch, out_ch, stride):
            yield from conv_bn(p + "proj_conv", p + "proj_bn", (out_ch, in_ch, 1))
    yield "fc.weight", (arch.k, chans[3])
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
