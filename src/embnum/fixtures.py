"""Frozen reproducible fixtures shared by the test suite and example scripts.

Three synthetic regimes:

desk        10 labels x 6 sources whose families are separated in location
            and form; the CPU-scale end-to-end reference. Labeling is easy
            by construction, so it exercises the full pipeline rather than
            the model's discriminative ceiling.
overlapping 10 labels sharing location 0, separated only by distribution
            shape/scale, with short columns (10..30 rows). Hard enough that
            an untrained network is measurably worse than a trained one.
efficiency  50 labels x 11 sources at exactly 1,000 rows per column; sized
            for run-time comparisons, not accuracy.

All seeds are pinned; regenerating any fixture yields byte-identical data.
"""

from __future__ import annotations

from .dataset import FamilySpec, SyntheticSpec
from .embnet import ArchConfig
from .metric import TrainConfig

DESK_DATA_SEED = 42
DESK_TRAIN_SEED = 7
OVERLAP_DATA_SEED = 11
EFFICIENCY_DATA_SEED = 3


def desk_spec() -> SyntheticSpec:
    return SyntheticSpec(label_count=10, source_count=6,
                         rows_min=30, rows_max=200, seed=DESK_DATA_SEED)


def desk_arch() -> ArchConfig:
    return ArchConfig(stem_channels=8)


def desk_train_config() -> TrainConfig:
    return TrainConfig(epochs=30, batch_labels=10, samples_per_label=3,
                       seed=DESK_TRAIN_SEED)


def overlapping_spec() -> SyntheticSpec:
    pool = tuple(
        FamilySpec(family=f, location=0.0, scale=s, shape=sh)
        for f, s, sh in [
            ("normal", 1.0, 0.5), ("normal", 1.6, 0.5), ("normal", 2.56, 0.5),
            ("exponential", 1.0, 0.5), ("exponential", 1.6, 0.5),
            ("exponential", 2.56, 0.5),
            ("lognormal", 1.0, 0.4), ("lognormal", 1.0, 0.9),
            ("uniform", 2.0, 0.5), ("uniform", 4.0, 0.5),
        ]
    )
    return SyntheticSpec(label_count=10, source_count=6, rows_min=10,
                         rows_max=30, family_pool=pool, seed=OVERLAP_DATA_SEED)


def efficiency_spec() -> SyntheticSpec:
    return SyntheticSpec(label_count=50, source_count=11, rows_min=1000,
                         rows_max=1000, seed=EFFICIENCY_DATA_SEED)
