"""Triplet training of the embedding network.

Each step embeds a batch of P labels x K sampled attributes, mines the
hardest positive and hardest negative inside the batch for every anchor, and
descends the margin loss max(0, alpha + d_pos - d_neg) averaged over the
triplets that are still violating the margin.  After every epoch the model is
scored by mean reciprocal rank on the training attributes themselves, ranked
as labeling ranks a store, and the best-scoring parameters are the ones
returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .embnet import ArchConfig, Model, build_model, preprocess
from .errors import DegenerateBatch, InsufficientSamples, InvalidSpec, NonFiniteLoss
from .nn import SGD, Tensor, no_grad, ops


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.2
    lr0: float = 0.01
    lr_step: int = 10
    lr_decay: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-5
    epochs: int = 100
    batch_labels: int = 8       # P
    samples_per_label: int = 4  # K
    seed: int = 0

    def __post_init__(self):
        if not (self.alpha > 0):
            raise InvalidSpec(f"alpha must be positive, got {self.alpha}")
        if self.batch_labels < 2:
            raise InvalidSpec(f"batch_labels must be >= 2, got {self.batch_labels}")
        if self.samples_per_label < 2:
            raise InvalidSpec(f"samples_per_label must be >= 2, got {self.samples_per_label}")
        for name in ("lr0", "lr_step", "lr_decay", "epochs"):
            if getattr(self, name) <= 0:
                raise InvalidSpec(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("momentum", "weight_decay"):
            if getattr(self, name) < 0:
                raise InvalidSpec(f"{name} must be non-negative, got {getattr(self, name)}")


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    """Step schedule: lr0 * lr_decay ** floor(epoch / lr_step), epoch 0-based."""
    return cfg.lr0 * cfg.lr_decay ** (epoch // cfg.lr_step)


def distances(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Exact float64 Euclidean distance from each row of an (n, k) matrix to
    one (k,) query: the one distance that triplet mining, training MRR and
    labeling all rank by.  A row equal to the query is exactly 0 away.  The
    squared differences underflow for float64 points closer than about
    1e-154 (inexact below that, exactly 0 below about 1e-162); distinct
    float32 embeddings differ by at least 1.4e-45, far above either."""
    diff = np.asarray(matrix, dtype=np.float64) - np.asarray(query, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


@dataclass
class TripletBatch:
    anchors: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray
    embeddings: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        lab = self.labels
        if np.any(self.anchors == self.positives):
            raise DegenerateBatch("anchor and positive must differ")
        if np.any(lab[self.anchors] != lab[self.positives]):
            raise DegenerateBatch("positive must share the anchor's label")
        if np.any(lab[self.anchors] == lab[self.negatives]):
            raise DegenerateBatch("negative must have a different label")


def mine_batch_hard(embeddings: np.ndarray, labels) -> TripletBatch:
    """Hardest positive (max distance) and hardest negative (min distance)
    per anchor, ties broken by lowest batch index."""
    labels = np.asarray(labels)
    emb = np.asarray(embeddings, dtype=np.float64)
    n = emb.shape[0]
    dist = np.stack([distances(emb, row) for row in emb])
    same = labels[:, None] == labels[None, :]
    np_eye = np.eye(n, dtype=bool)
    pos_mask = same & ~np_eye
    neg_mask = ~same
    valid = pos_mask.any(axis=1) & neg_mask.any(axis=1)
    if not valid.any():
        raise DegenerateBatch("batch has no anchor with both a positive and a negative")
    anchors = np.flatnonzero(valid)
    pos_d = np.where(pos_mask[anchors], dist[anchors], -np.inf)
    neg_d = np.where(neg_mask[anchors], dist[anchors], np.inf)
    positives = np.argmax(pos_d, axis=1)
    negatives = np.argmin(neg_d, axis=1)
    return TripletBatch(anchors=anchors, positives=positives,
                        negatives=negatives, embeddings=emb, labels=labels)


def triplet_loss(emb: Tensor, mined: TripletBatch, alpha: float) -> Tensor | None:
    """max(0, alpha + d_pos - d_neg) averaged over the mined triplets that
    violate the margin; None when none does."""
    diff_p = emb.gather_rows(mined.anchors) - emb.gather_rows(mined.positives)
    diff_n = emb.gather_rows(mined.anchors) - emb.gather_rows(mined.negatives)
    # tiny floor keeps sqrt differentiable when a distance hits 0
    d_pos = ((diff_p * diff_p).sum(axis=1) + 1e-12).sqrt()
    d_neg = ((diff_n * diff_n).sum(axis=1) + 1e-12).sqrt()
    per_triplet = ops.relu(d_pos - d_neg + alpha)
    active = np.flatnonzero(per_triplet.data > 0)
    if active.size == 0:
        return None
    return per_triplet.gather_rows(active).sum() * (1.0 / active.size)


def training_mrr(embeddings: np.ndarray, labels) -> float:
    """Each row queries all the others, ranked as labeling ranks a store: by
    distance, ties by label.  The reciprocal rank of the first same-label hit
    (0 when there is none) is averaged in input order.  One row of distances
    is held at a time, so memory grows as n * k, not n * n * k."""
    emb = np.asarray(embeddings, dtype=np.float64)
    _, codes = np.unique(np.asarray(labels), return_inverse=True)
    rr = np.zeros(len(emb))
    for i, row in enumerate(emb):
        dist = distances(emb, row)
        dist[i] = np.inf  # every other distance is finite, so self ranks last
        order = np.lexsort((codes, dist))[:-1]
        hits = np.flatnonzero(codes[order] == codes[i])
        if hits.size:
            rr[i] = 1.0 / (hits[0] + 1.0)
    return float(rr.mean())


def _snapshot(model: Model) -> dict[str, np.ndarray]:
    return {name: arr.copy() for name, arr in model.state_dict().items()}


def train(dataset: Dataset, arch: ArchConfig, cfg: TrainConfig
          ) -> tuple[Model, list[dict]]:
    """Full training loop; returns the best-MRR model and per-epoch history.

    History rows are dicts with keys epoch, mean_loss, train_mrr, lr.
    """
    if not dataset.attributes:
        raise InsufficientSamples("dataset has no attributes")
    by_label: dict[str, list[int]] = {}
    for i, attr in enumerate(dataset.attributes):
        by_label.setdefault(attr.label, []).append(i)
    thin = [lab for lab, idxs in by_label.items() if len(idxs) < 2]
    if thin:
        raise InsufficientSamples(
            f"labels need >= 2 attributes to form triplets; short: {sorted(thin)}"
        )
    if len(by_label) < 2:
        raise InsufficientSamples("training needs at least 2 distinct labels")

    # sample once per attribute, reused every epoch
    vectors = np.stack([preprocess(a.values, arch) for a in dataset.attributes])
    labels = np.array([a.label for a in dataset.attributes])
    label_list = sorted(by_label)

    model = build_model(arch, seed=cfg.seed)
    opt = SGD(model.net.named_params(), lr=cfg.lr0,
              momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)

    history: list[dict] = []
    best_mrr = -1.0
    best_snap = _snapshot(model)
    best_meta = dict(model.training_meta)

    for epoch in range(cfg.epochs):
        opt.lr = lr_at(cfg, epoch)
        losses: list[float] = []
        order = rng.permutation(len(label_list))
        for start in range(0, len(order), cfg.batch_labels):
            group = order[start : start + cfg.batch_labels]
            if len(group) < 2:
                continue  # a lone trailing label cannot form a negative
            idx: list[int] = []
            for li in group:
                pool = by_label[label_list[li]]
                take = rng.choice(len(pool), size=cfg.samples_per_label,
                                  replace=len(pool) < cfg.samples_per_label)
                idx.extend(pool[t] for t in take)
            idx_arr = np.array(idx)
            batch = Tensor(vectors[idx_arr][:, None, :])
            emb = model.net(batch, training=True)
            if not np.all(np.isfinite(emb.data)):
                raise NonFiniteLoss(
                    f"non-finite embeddings at epoch {epoch}, step {start // cfg.batch_labels}; "
                    "the optimizer likely diverged (try a lower lr0)"
                )
            loss = triplet_loss(emb, mine_batch_hard(emb.data, labels[idx_arr]), cfg.alpha)
            if loss is None:
                continue  # margin satisfied everywhere; nothing to descend
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise NonFiniteLoss(
                    f"loss became {loss_val} at epoch {epoch}, step {start // cfg.batch_labels}"
                )
            losses.append(loss_val)
            opt.zero_grad()
            loss.backward()
            opt.step()

        with no_grad():
            emb_all = model.net(Tensor(vectors[:, None, :]), training=False).data
        epoch_mrr = training_mrr(emb_all, labels)
        mean_loss = float(np.mean(losses)) if losses else 0.0
        history.append({"epoch": epoch, "mean_loss": mean_loss,
                        "train_mrr": epoch_mrr, "lr": opt.lr})
        if epoch_mrr > best_mrr:
            best_mrr = epoch_mrr
            best_snap = _snapshot(model)
            best_meta = {"epochs_seen": epoch + 1, "best_mrr": epoch_mrr,
                         "seed": int(cfg.seed)}

    model.load_state(best_snap)
    model.training_meta = best_meta
    return model, history


def history_to_csv(history: list[dict]) -> str:
    lines = ["epoch,mean_loss,train_mrr,lr"]
    for row in history:
        lines.append(f"{row['epoch']},{row['mean_loss']!r},{row['train_mrr']!r},{row['lr']!r}")
    return "\n".join(lines) + "\n"

