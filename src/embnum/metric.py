"""Triplet training of the embedding network.

Each step embeds a batch of P labels x K sampled attributes, mines the
hardest positive and hardest negative inside the batch for every anchor, and
descends the margin loss max(0, ALPHA + d_pos - d_neg) averaged over the
triplets that are still violating the margin.  After every epoch the model is
scored by mean reciprocal rank on the training attributes themselves, ranked
as labeling ranks a store, and the best-scoring parameters are the ones
returned.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import _serial, embnet
from .dataset import Dataset
from .embnet import ArchConfig, Model, build_model, distances, embed, preprocess
from .errors import DegenerateBatch, InsufficientSamples, InvalidSpec, NonFiniteLoss
from .nn import SGD, Tensor, ops


# The triplet margin and SGD schedule, the same for every run.
ALPHA = 0.2
LR0 = 0.01
LR_STEP = 10
LR_DECAY = 0.1
MOMENTUM = 0.9
WEIGHT_DECAY = 1e-5


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_labels: int = 8       # P
    samples_per_label: int = 4  # K
    seed: int = 0

    def __post_init__(self):
        fields = asdict(self)
        _serial.check(fields, dict.fromkeys(fields, int), InvalidSpec, "TrainConfig")
        if self.epochs <= 0:
            raise InvalidSpec(f"epochs must be positive, got {self.epochs}")
        if self.batch_labels < 2:
            raise InvalidSpec(f"batch_labels must be >= 2, got {self.batch_labels}")
        if not 2 <= self.samples_per_label < 1 << 60:  # an int64 draw array numpy can size
            raise InvalidSpec(f"samples_per_label must be from 2 to 2**60 - 1, "
                              f"got {self.samples_per_label}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be non-negative, got {self.seed}")


def lr_at(epoch: int) -> float:
    """Step schedule: LR0 * LR_DECAY ** floor(epoch / LR_STEP), epoch 0-based."""
    return LR0 * LR_DECAY ** (epoch // LR_STEP)


def mine_batch_hard(embeddings: np.ndarray, labels) -> tuple[np.ndarray, ...]:
    """(anchors, positives, negatives) row indices: the hardest positive (max
    distance) and hardest negative (min distance) of each row that has both,
    ties broken by lowest batch index.  Each is picked among the masked rows
    only, so every positive is another row of the anchor's label and every
    negative a row of another label, infinite distances included."""
    labels = np.asarray(labels, dtype=object)
    dist = distances(embeddings, embeddings)
    same = labels[:, None] == labels[None, :]
    pos_mask = same & ~np.eye(len(dist), dtype=bool)
    neg_mask = ~same
    valid = pos_mask.any(axis=1) & neg_mask.any(axis=1)
    if not valid.any():
        raise DegenerateBatch("batch has no anchor with both a positive and a negative")
    anchors = np.flatnonzero(valid)
    # per row, the masked columns sort first, then by distance, then by index
    positives = np.lexsort((-dist[anchors], ~pos_mask[anchors]))[:, 0]
    negatives = np.lexsort((dist[anchors], ~neg_mask[anchors]))[:, 0]
    return anchors, positives, negatives


def triplet_loss(emb: Tensor, mined: tuple[np.ndarray, ...], alpha: float) -> Tensor | None:
    """max(0, alpha + d_pos - d_neg) averaged over those of mine_batch_hard's
    (anchors, positives, negatives) triplets that violate the margin; None
    when none does."""
    anchors, positives, negatives = mined
    diff_p = emb.gather_rows(anchors) - emb.gather_rows(positives)
    diff_n = emb.gather_rows(anchors) - emb.gather_rows(negatives)
    # tiny floor keeps sqrt differentiable when a distance hits 0
    d_pos = ((diff_p * diff_p).sum(axis=1) + 1e-12).sqrt()
    d_neg = ((diff_n * diff_n).sum(axis=1) + 1e-12).sqrt()
    per_triplet = ops.relu(d_pos - d_neg + alpha)
    active = np.flatnonzero(per_triplet.data > 0)
    if active.size == 0:
        return None
    return per_triplet.gather_rows(active).sum() * (1.0 / active.size)


def training_mrr(embeddings: np.ndarray, labels) -> float:
    """Each row queries all the others, ranked by distance, ties by label,
    then by index where labeling goes by source: either way the first
    same-label hit is the same.  The row itself takes a NaN distance, sorted
    after every other, inf included (embeddings are finite), so a first hit
    in the last place is itself and scores 0.  Reciprocal ranks are averaged
    in input order, ranked a block of rows at a time, as many as keep the
    block's distances within embnet.DISTANCE_BUDGET values (at least one
    row), so memory grows with n, not n * n."""
    emb = np.asarray(embeddings, dtype=np.float64)
    _, codes = np.unique(np.asarray(labels, dtype=object), return_inverse=True)
    rr = np.zeros(len(emb))
    step = max(1, embnet.DISTANCE_BUDGET // max(len(emb), 1))
    for lo in range(0, len(emb), step):
        rows = np.arange(lo, min(lo + step, len(emb)))
        dist = distances(emb, emb[rows])
        dist[np.arange(len(rows)), rows] = np.nan  # self sorts last, after any inf
        order = np.lexsort((np.broadcast_to(codes, dist.shape), dist))
        first = (codes[order] == codes[rows][:, None]).argmax(axis=1) + 1
        rr[rows] = np.where(first < len(emb), 1.0 / first, 0.0)
    return float(rr.mean())


def _snapshot(model: Model) -> dict[str, np.ndarray]:
    return {name: arr.copy() for name, arr in model.state_dict().items()}


def train(dataset: Dataset, arch: ArchConfig, cfg: TrainConfig
          ) -> tuple[Model, list[dict]]:
    """Full training loop; returns the best-MRR model and per-epoch history.
    A batch draws K attributes per label from the label's index pool, one
    per np.unique code.  History rows have keys epoch, mean_loss, train_mrr, lr.
    """
    if not dataset.attributes:
        raise InsufficientSamples("dataset has no attributes")
    label_list, labels, counts = np.unique(
        np.array([a.label for a in dataset.attributes], dtype=object),
        return_inverse=True, return_counts=True)  # sorted: ties still go by label
    if (counts < 2).any():
        raise InsufficientSamples(f"labels need >= 2 attributes to form triplets; "
                                  f"short: {label_list[counts < 2].tolist()}")
    if len(label_list) < 2:
        raise InsufficientSamples("training needs at least 2 distinct labels")
    pools = np.split(np.argsort(labels, kind="stable"), np.cumsum(counts)[:-1])  # input order

    # sample once per attribute, reused every epoch
    vectors = preprocess([a.values for a in dataset.attributes], arch)

    model = build_model(arch, seed=cfg.seed)
    opt = SGD(model.net.named_params(), lr=LR0,
              momentum=MOMENTUM, weight_decay=WEIGHT_DECAY)
    rng = np.random.default_rng(cfg.seed)

    history: list[dict] = []
    best_mrr = -1.0  # every epoch's MRR is >= 0, so epoch 0 always sets the best

    for epoch in range(cfg.epochs):
        opt.lr = lr_at(epoch)
        losses: list[float] = []
        order = rng.permutation(len(label_list))
        for start in range(0, len(order), cfg.batch_labels):
            group = order[start : start + cfg.batch_labels]
            if len(group) < 2:
                continue  # a lone trailing label cannot form a negative
            idx_arr = np.concatenate([pools[li][rng.choice(
                counts[li], cfg.samples_per_label, counts[li] < cfg.samples_per_label)]
                for li in group])
            batch = Tensor(vectors[idx_arr][:, None, :])
            emb = model.net(batch)
            if not np.all(np.isfinite(emb.data)):
                raise NonFiniteLoss(
                    f"non-finite embeddings at epoch {epoch}, step {start // cfg.batch_labels}; "
                    "the optimizer likely diverged"
                )
            loss = triplet_loss(emb, mine_batch_hard(emb.data, labels[idx_arr]), ALPHA)
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

        epoch_mrr = training_mrr(embed(model, vectors), labels)
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

