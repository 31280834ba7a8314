"""Loading, writing, generating, and partitioning labeled numeric-column datasets.

On-disk layout: ``root/<source_id>/<label_id>.csv``, UTF-8 with an optional
leading byte-order mark, one decimal literal per line, no header.  Scientific
notation is accepted; NaN, infinities and non-numeric tokens are hard errors.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _serial
from .errors import EmptyAttribute, InvalidSpec, MalformedValue, MissingDirectory

@dataclass(eq=False)
class NumericAttribute:
    """One labeled table column: a non-empty list of finite numbers."""

    values: np.ndarray
    label: str
    source: str

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if arr.size == 0:
            raise EmptyAttribute(f"attribute {self.source}/{self.label} has no values")
        if not np.all(np.isfinite(arr)):
            raise MalformedValue(
                f"attribute {self.source}/{self.label} contains NaN or infinity"
            )
        if not self.label or not self.source:
            raise MalformedValue("label and source must be non-empty strings")
        self.values = arr

    def __eq__(self, other):
        if not isinstance(other, NumericAttribute):
            return NotImplemented
        return (
            self.label == other.label
            and self.source == other.source
            and np.array_equal(self.values, other.values)
        )


@dataclass(eq=False)
class Dataset:
    """A multi-source collection of labeled numeric attributes.

    (source, label) pairs are unique; equality is order-insensitive.
    """

    attributes: list[NumericAttribute]

    def __post_init__(self):
        self.attributes = list(self.attributes)
        seen = set()
        for attr in self.attributes:
            key = (attr.source, attr.label)
            if key in seen:
                raise MalformedValue(f"duplicate (source, label) pair {key}")
            seen.add(key)

    @property
    def sources(self) -> list[str]:
        return sorted({a.source for a in self.attributes})

    @property
    def labels(self) -> list[str]:
        return sorted({a.label for a in self.attributes})

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        key = lambda a: (a.source, a.label)
        return sorted(self.attributes, key=key) == sorted(other.attributes, key=key)

    def by_source(self, source: str) -> list[NumericAttribute]:
        return [a for a in self.attributes if a.source == source]


def format_values(values) -> list[str]:
    """Each value's shortest decimal form that parses back to the same float:
    an integer form below 1e16 in magnitude ("-0" for -0.0, so the sign of a
    zero survives), else repr; no Python call per value besides repr and
    str."""
    v = np.asarray(values, dtype=np.float64).ravel()
    out = np.array(list(map(repr, v.tolist())), dtype=object)
    whole = (v == np.trunc(v)) & (np.abs(v) < 1e16)
    out[whole] = list(map(str, v[whole].astype(np.int64).tolist()))
    out[(v == 0) & np.signbit(v)] = "-0"
    return out.tolist()


def _parse_attribute_file(path: Path, source: str, label: str) -> NumericAttribute:
    """Decode once (a leading byte-order mark is dropped), split at text
    mode's line breaks (\\n, \\r, \\r\\n), strip, skip blank lines and cast the
    rest in one numpy call, which gives float()'s bits for every token.  Only
    a file that fails the cast is numbered line by line, to name the line."""
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise MalformedValue(f"{path}: not UTF-8 text ({exc})") from None
    lines = list(map(str.strip, text.replace("\r\n", "\n").replace("\r", "\n").split("\n")))
    try:
        values = np.array(list(filter(None, lines)), dtype=np.float64)
    except ValueError:  # a token float() rejects too; the line loop names it
        values = np.array([np.nan])
    if not np.isfinite(values).all():
        for lineno, token in enumerate(lines, start=1):
            try:
                finite = not token or math.isfinite(float(token))
            except ValueError:
                raise MalformedValue(f"{path}:{lineno}: not a number: {token!r}") from None
            if not finite:
                raise MalformedValue(f"{path}:{lineno}: non-finite value: {token!r}")
    if not values.size:
        raise EmptyAttribute(f"{path}: no parsable rows")
    return NumericAttribute(values=values, label=label, source=source)


def load_attribute_csv(path) -> NumericAttribute:
    """Load one attribute file outside the dataset tree (e.g. a query), labeled
    by its file stem and sourced as "query"."""
    p = Path(path)
    if not p.is_file():
        raise MissingDirectory(f"attribute file {p} "
                               + ("is not a file" if p.exists() else "does not exist"))
    return _parse_attribute_file(p, "query", p.stem)


def load_dataset(root_path) -> Dataset:
    """Load a dataset from a root/<source>/<label>.csv tree.

    Sources and their files are read in sorted order; the returned Dataset
    is immutable by convention and safe to share.
    """
    root = Path(root_path)
    if not root.is_dir():
        raise MissingDirectory(f"dataset root {root} "
                               + ("is not a directory" if root.exists() else "does not exist"))
    source_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not source_dirs:
        raise MissingDirectory(f"dataset root {root} contains no source directories")
    attributes = [_parse_attribute_file(f, src_dir.name, f.stem)
                  for src_dir in source_dirs for f in sorted(src_dir.glob("*.csv"))]
    if not attributes:
        raise MissingDirectory(f"dataset root {root} contains no attribute files")
    return Dataset(attributes)


def write_dataset(dataset: Dataset, root_path) -> Path:
    """Write a dataset in the on-disk layout; files are written atomically.
    The first source or label that names no file of its own there ("." or
    "..", or one holding "/" or a NUL) is MalformedValue, before any write."""
    for name in (n for attr in dataset.attributes for n in (attr.source, attr.label)):
        if name in (".", "..") or "/" in name or "\0" in name:
            raise MalformedValue(f"{name!r} is not a file name of the dataset layout")
    root = Path(root_path)
    root.mkdir(parents=True, exist_ok=True)
    for attr in dataset.attributes:
        src_dir = root / attr.source
        src_dir.mkdir(exist_ok=True)
        body = "\n".join(format_values(attr.values)) + "\n"
        _serial.atomic_write_text(src_dir / f"{attr.label}.csv", body)
    return root


# ---------------------------------------------------------------------------
# synthetic data


FAMILIES = ("uniform", "normal", "lognormal", "exponential", "counts")


@dataclass(frozen=True)
class FamilySpec:
    """Distribution family with location/scale/shape parameters for one label."""

    family: str
    location: float = 0.0
    scale: float = 1.0
    shape: float = 0.5

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSpec(f"unknown family {self.family!r}")
        if not (self.scale > 0 and self.shape >= 0):
            raise InvalidSpec("scale must be positive and shape non-negative")
        if self.family == "counts" and not self.scale <= 1e17:  # numpy's Poisson mean < 9.2e18
            raise InvalidSpec(f"a counts family's scale must be at most 1e17, got {self.scale}")


# The most values a spec may ask for, label_count * source_count * rows_max:
# 8 GB as float64, four orders of magnitude past the largest fixture.
MAX_SPEC_VALUES = 10**9


@dataclass(frozen=True)
class SyntheticSpec:
    label_count: int
    source_count: int
    rows_min: int
    rows_max: int
    family_pool: tuple[FamilySpec, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("label_count", "source_count", "rows_min", "rows_max"):
            if getattr(self, name) >= 2**63:  # numpy's int64 draws stop there
                raise InvalidSpec(f"{name} must be below 2**63")
        if self.label_count < 1 or self.source_count < 1:
            raise InvalidSpec("label_count and source_count must be positive")
        if self.rows_min < 1 or self.rows_min > self.rows_max:
            raise InvalidSpec("need 1 <= rows_min <= rows_max")
        values = self.label_count * self.source_count * self.rows_max
        if values > MAX_SPEC_VALUES:
            raise InvalidSpec(f"label_count * source_count * rows_max is {values}, "
                              f"above MAX_SPEC_VALUES ({MAX_SPEC_VALUES})")
        if self.family_pool is not None:
            object.__setattr__(self, "family_pool", tuple(self.family_pool))
            if self.label_count > len(self.family_pool):
                raise InvalidSpec("family_pool smaller than label_count")
        if not (0 <= self.seed < 2**64):
            raise InvalidSpec("seed must fit in 64 unsigned bits")


def default_family_pool(label_count: int) -> tuple[FamilySpec, ...]:
    """A pool of mutually distinguishable families, one per label.

    Families cycle while location/scale/shape walk apart, so neighboring
    labels differ in both distribution form and range.
    """
    pool = []
    for i in range(label_count):
        pool.append(
            FamilySpec(
                family=FAMILIES[i % len(FAMILIES)],
                location=4.0 * i,
                scale=1.0 + 0.6 * (i % 7),
                shape=0.35 + 0.2 * (i % 4),
            )
        )
    return tuple(pool)


def _draw_family(rng: np.random.Generator, fam: FamilySpec, loc: float, rows: int) -> np.ndarray:
    if fam.family == "uniform":
        return loc + fam.scale * rng.random(rows)
    if fam.family == "normal":
        return loc + fam.scale * rng.standard_normal(rows)
    if fam.family == "lognormal":
        return loc + rng.lognormal(mean=np.log(fam.scale), sigma=fam.shape, size=rows)
    if fam.family == "exponential":
        return loc + rng.exponential(scale=fam.scale, size=rows)
    # counts: discrete non-negative integers
    return loc + rng.poisson(lam=10.0 * fam.scale, size=rows).astype(np.float64)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministically generate label_count x source_count attributes.

    Each label owns one family from the pool; per-source location jitter of
    5% of the family scale keeps sources similar but not identical.
    """
    pool = spec.family_pool or default_family_pool(spec.label_count)
    width_l = max(2, len(str(spec.label_count - 1)))
    width_s = max(1, len(str(spec.source_count - 1)))
    labels = [f"y{i:0{width_l}d}" for i in range(spec.label_count)]
    sources = [f"s{i:0{width_s}d}" for i in range(spec.source_count)]
    rng = np.random.default_rng(spec.seed)
    attributes = []
    for li, label in enumerate(labels):
        fam = pool[li]
        for source in sources:
            rows = int(rng.integers(spec.rows_min, spec.rows_max + 1))
            jitter = 0.05 * fam.scale * rng.uniform(-1.0, 1.0)
            values = _draw_family(rng, fam, fam.location + jitter, rows)
            attributes.append(NumericAttribute(values=values, label=label, source=source))
    return Dataset(attributes)


SPEC = {"label_count": int, "source_count": int, "rows_min": int, "rows_max": int,
        "seed?": int, "family_pool?": [{"family": str, "location?": float,
                                        "scale?": float, "shape?": float}]}


def spec_from_json(text: str | bytes) -> SyntheticSpec:
    """Parse a SyntheticSpec JSON document matching SPEC (family_pool
    optional, seed 0 by default), else InvalidSpec."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise InvalidSpec(f"invalid spec JSON: {exc}") from None
    _serial.check(doc, SPEC, InvalidSpec, "spec")
    pool = doc.pop("family_pool", None)
    return SyntheticSpec(**doc, family_pool=None if pool is None else
                         tuple(FamilySpec(**entry) for entry in pool))


# ---------------------------------------------------------------------------
# partitioning


def split_half(dataset: Dataset, axis: str = "source", seed: int = 0) -> tuple[Dataset, Dataset]:
    """Random 50/50 split along sources (default) or labels."""
    if axis not in ("source", "label"):
        raise InvalidSpec(f"split axis must be 'source' or 'label', got {axis!r}")
    ids = list(dataset.sources if axis == "source" else dataset.labels)
    rng = np.random.default_rng(seed)
    rng.shuffle(ids)
    first = set(ids[: (len(ids) + 1) // 2])
    pick = lambda a: (a.source if axis == "source" else a.label) in first
    part_a = [a for a in dataset.attributes if pick(a)]
    part_b = [a for a in dataset.attributes if not pick(a)]
    return Dataset(part_a), Dataset(part_b)


def dataset_fingerprint(dataset: Dataset) -> str:
    """SHA-256 over the canonical byte serialization of all attributes."""
    digest = hashlib.sha256()
    for attr in sorted(dataset.attributes, key=lambda a: (a.source, a.label)):
        digest.update(attr.source.encode())
        digest.update(b"\0")
        digest.update(attr.label.encode())
        digest.update(b"\0")
        digest.update(np.ascontiguousarray(attr.values, dtype="<f8").tobytes())
    return digest.hexdigest()
