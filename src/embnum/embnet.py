"""Residual 1-D convolutional embedding network.

Maps an h-length sorted quantile vector to a k-dimensional embedding through
a ResNet-18-shaped stack adapted to one spatial dimension: a 7-wide strided
stem, four stages of two-conv residual blocks with channel doubling and
stride-2 entries, global average pooling, and a final affine projection.
A width multiplier scales every channel count so the same topology runs at
desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import _serial
from .errors import InvalidArch, MalformedCheckpoint, MalformedValue, WidthMismatch
from .nn import BatchNorm1d, Conv1d, Linear, Tensor, no_grad, ops
from .sampling import sample_inverse_transform

MODEL_MAGIC = b"EMBN"
MODEL_VERSION = 1

INPUT_NORMS = ("none", "signed_log")


@dataclass(frozen=True)
class ArchConfig:
    h: int = 100
    k: int = 100
    stem_channels: int = 64
    block_counts: tuple[int, int, int, int] = (2, 2, 2, 2)
    width_multiplier: float = 1.0
    input_norm: str = "signed_log"

    def __post_init__(self):
        if self.h < 1:
            raise InvalidArch(f"input width must be >= 1, got {self.h}")
        if self.k < 1:
            raise InvalidArch(f"embedding dimension must be >= 1, got {self.k}")
        if self.stem_channels < 1:
            raise InvalidArch(f"stem_channels must be >= 1, got {self.stem_channels}")
        object.__setattr__(self, "block_counts", tuple(self.block_counts))
        if len(self.block_counts) != 4 or any(c < 1 for c in self.block_counts):
            raise InvalidArch(f"block_counts must be 4 positive ints, got {self.block_counts}")
        if not (self.width_multiplier > 0):
            raise InvalidArch(f"width_multiplier must be positive, got {self.width_multiplier}")
        if self.input_norm not in INPUT_NORMS:
            raise InvalidArch(f"input_norm must be one of {INPUT_NORMS}, got {self.input_norm!r}")
        if min(self.stage_channels) < 1:
            raise InvalidArch(
                f"width_multiplier {self.width_multiplier} collapses a stage to zero channels"
            )

    @property
    def stage_channels(self) -> tuple[int, int, int, int]:
        base = (self.stem_channels, self.stem_channels * 2,
                self.stem_channels * 4, self.stem_channels * 8)
        return tuple(int(round(c * self.width_multiplier)) for c in base)


class BasicBlock:
    """Two 3-wide convolutions with a residual connection.

    The shortcut is the identity when shapes match, else a strided 1-wide
    projection conv + batch norm.  Convolutions carry no bias; the batch
    norms that follow them absorb any offset.
    """

    def __init__(self, in_channels: int, out_channels: int, stride: int, *,
                 rng: np.random.Generator, dtype=np.float32):
        self.conv1 = Conv1d(in_channels, out_channels, 3, stride=stride,
                            padding=1, bias=False, rng=rng, dtype=dtype)
        self.bn1 = BatchNorm1d(out_channels, dtype=dtype)
        self.conv2 = Conv1d(out_channels, out_channels, 3, stride=1,
                            padding=1, bias=False, rng=rng, dtype=dtype)
        self.bn2 = BatchNorm1d(out_channels, dtype=dtype)
        if stride != 1 or in_channels != out_channels:
            self.proj_conv = Conv1d(in_channels, out_channels, 1, stride=stride,
                                    bias=False, rng=rng, dtype=dtype)
            self.proj_bn = BatchNorm1d(out_channels, dtype=dtype)
        else:
            self.proj_conv = None
            self.proj_bn = None

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
    def __init__(self, arch: ArchConfig, *, rng: np.random.Generator,
                 dtype=np.float32):
        chans = arch.stage_channels
        self.stem_conv = Conv1d(1, chans[0], 7, stride=2, padding=3,
                                bias=False, rng=rng, dtype=dtype)
        self.stem_bn = BatchNorm1d(chans[0], dtype=dtype)
        self.stages: list[list[BasicBlock]] = []
        in_ch = chans[0]
        for stage_idx, (out_ch, count) in enumerate(zip(chans, arch.block_counts)):
            blocks = []
            for block_idx in range(count):
                stride = 2 if (stage_idx > 0 and block_idx == 0) else 1
                blocks.append(BasicBlock(in_ch, out_ch, stride, rng=rng, dtype=dtype))
                in_ch = out_ch
            self.stages.append(blocks)
        self.fc = Linear(chans[3], arch.k, rng=rng, dtype=dtype)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        y = ops.relu(self.stem_bn(self.stem_conv(x), training))
        y = ops.maxpool1d(y, kernel=3, stride=2, padding=1)
        for blocks in self.stages:
            for block in blocks:
                y = block(y, training)
        y = ops.global_avgpool1d(y)
        return self.fc(y)

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


@dataclass
class Model:
    arch: ArchConfig
    net: ResNet1d
    training_meta: dict = field(default_factory=dict)

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.data for name, p in self.net.named_params().items()}
        state.update(self.net.named_buffers())
        return state

    def __eq__(self, other) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        if self.arch != other.arch or self.training_meta != other.training_meta:
            return False
        a, b = self.state_dict(), other.state_dict()
        return a.keys() == b.keys() and all(
            np.array_equal(a[k], b[k]) for k in a
        )


def build_model(arch: ArchConfig, seed: int) -> Model:
    rng = np.random.default_rng(seed)
    net = ResNet1d(arch, rng=rng)
    return Model(arch=arch, net=net,
                 training_meta={"epochs_seen": 0, "best_mrr": 0.0, "seed": int(seed)})


def normalize_input(raw: np.ndarray, mode: str) -> np.ndarray:
    """Magnitude conditioning; signed_log maps v to sign(v) * ln(1 + |v|)."""
    if mode == "none":
        return np.asarray(raw)
    if mode == "signed_log":
        raw = np.asarray(raw, dtype=np.float64)
        return np.sign(raw) * np.log1p(np.abs(raw))
    raise InvalidArch(f"input_norm must be one of {INPUT_NORMS}, got {mode!r}")


def preprocess(values: np.ndarray, arch: ArchConfig) -> np.ndarray:
    """Raw attribute values -> model-ready float32 h-vector."""
    sampled = sample_inverse_transform(values, arch.h)
    with np.errstate(over="ignore"):  # overflow is reported as MalformedValue below
        out = normalize_input(sampled, arch.input_norm).astype(np.float32)
    if not np.all(np.isfinite(out)):
        raise MalformedValue(
            f"values overflow float32 under input_norm={arch.input_norm!r}; "
            "signed_log conditioning handles large magnitudes"
        )
    return out


def embed(model: Model, inputs: np.ndarray) -> np.ndarray:
    """Eval-mode forward pass.

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
    with no_grad():
        out = model.net(Tensor(x[:, None, :]), training=False).data
    out = np.asarray(out, dtype=np.float32)
    return out[0] if single else out


def model_frame(model: Model) -> tuple[dict, dict[str, np.ndarray]]:
    """The manifest metadata and named arrays that a checkpoint frames."""
    meta = {
        "kind": "embedding-model",
        "arch": asdict(model.arch),
        "training_meta": model.training_meta,
    }
    return meta, model.state_dict()


def model_from_frame(manifest: dict, arrays: dict[str, np.ndarray]) -> Model:
    """Inverse of model_frame."""
    try:
        arch = ArchConfig(**manifest["arch"])
        training_meta = dict(manifest["training_meta"])
    except KeyError as exc:
        raise MalformedCheckpoint(f"checkpoint lacks {exc.args[0]!r}") from None
    except TypeError as exc:  # an unknown or mistyped arch field
        raise MalformedCheckpoint(f"checkpoint has a malformed header: {exc}") from None
    model = build_model(arch, seed=0)
    params = model.net.named_params()
    buffers = model.net.named_buffers()
    expected = set(params) | set(buffers)
    if expected != set(arrays):
        raise InvalidArch("checkpoint arrays do not match the declared architecture")
    for name, p in params.items():
        p.data = arrays[name].astype(np.float32)
    for name, buf in buffers.items():
        np.copyto(buf, arrays[name])
    model.training_meta = training_meta
    return model


def model_to_bytes(model: Model) -> bytes:
    return _serial.pack_framed(MODEL_MAGIC, MODEL_VERSION, *model_frame(model))


def model_from_bytes(blob: bytes) -> Model:
    return model_from_frame(*_serial.unpack_framed(blob, MODEL_MAGIC, MODEL_VERSION))


def save_model(model: Model, path: Path) -> None:
    _serial.atomic_write_bytes(Path(path), model_to_bytes(model))


def load_model(path: Path) -> Model:
    return model_from_bytes(Path(path).read_bytes())
