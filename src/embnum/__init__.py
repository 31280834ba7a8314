"""embnum: semantic labeling of numerical table columns.

Unknown columns are matched to labeled ones by embedding a fixed-length
quantile summary of each column with a 1-D residual network trained under a
triplet margin loss, then ranking labeled attributes by Euclidean distance.
Statistical baselines (KS ranking and a logistic KS/MW/Jaccard combination)
share the same labeling and benchmark harness.
"""

from . import baselines, dataset, embnet, labeling, metric, nn, sampling
from .dataset import (Dataset, FamilySpec, NumericAttribute, SyntheticSpec,
                      generate_synthetic, load_dataset, write_dataset)
from .embnet import (ArchConfig, Model, build_model, embed, load_model,
                     normalize_input, preprocess, save_model)
from .errors import EmbnumError
from .labeling import (BenchmarkReport, FeatureStore, RankingList, assign_label,
                       index_labeled, label_queries, load_store, mrr, rank,
                       run_benchmark, save_store)
from .metric import TrainConfig, mine_batch_hard, train
from .sampling import sample_inverse_transform

__version__ = "0.1.0"

__all__ = [
    "ArchConfig", "BenchmarkReport", "Dataset", "EmbnumError", "FamilySpec",
    "FeatureStore", "Model", "NumericAttribute", "RankingList", "SyntheticSpec",
    "TrainConfig", "assign_label", "baselines", "build_model", "dataset",
    "embed", "embnet", "generate_synthetic", "index_labeled", "label_queries",
    "labeling", "load_dataset", "load_model", "load_store", "metric",
    "mine_batch_hard", "mrr", "nn", "normalize_input", "preprocess", "rank",
    "run_benchmark", "sample_inverse_transform", "sampling", "save_model",
    "save_store", "train", "write_dataset",
]
