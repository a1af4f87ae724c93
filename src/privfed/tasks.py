"""Synthetic learning tasks and convex local models.

Classification tasks use logistic regression and regression tasks use linear
least squares. Both keep the bias as the final coordinate of a flat float64
parameter vector, so clipping, masking, and averaging all operate on plain
1-D arrays. Convex losses make gradients, training curves, and metric
oracles exactly checkable.

Everything here is a pure function of its inputs and seeds: generating the
same task twice yields bitwise-identical datasets, and local training is
full-batch gradient descent with no hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EvaluationError, NumericError, ShapeError
from .seeding import rng_for

CLASSIFICATION = "binary-classification"
REGRESSION = "regression"
TASK_KINDS = (CLASSIFICATION, REGRESSION)


def ensure_vector(values, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and return a finite 1-D float64 parameter vector."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ShapeError(f"{name} has dimension {v.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(v)):
        raise NumericError(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True)
class SyntheticTask:
    """Seeded synthetic task with a linear ground-truth label rule.

    The truth weights (feature weights plus trailing bias) are drawn
    deterministically from the seed. ``noise`` is the standard deviation of
    the perturbation added to the linear score before labels are produced.
    """

    kind: str
    feature_dim: int
    num_samples: int
    noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigurationError(f"unknown task kind {self.kind!r}")
        if self.feature_dim < 1:
            raise ConfigurationError("feature_dim must be >= 1")
        if self.num_samples < 1:
            raise ConfigurationError("num_samples must be >= 1")
        if self.noise < 0:
            raise ConfigurationError("noise must be >= 0")

    @property
    def model_dim(self) -> int:
        """Parameter count: one weight per feature plus a bias."""
        return self.feature_dim + 1

    def truth(self) -> np.ndarray:
        rng = rng_for(self.seed, "truth")
        w = rng.standard_normal(self.feature_dim)
        w *= 2.0 / max(np.linalg.norm(w), 1e-12)
        # zero bias keeps the two classes balanced in distribution
        return np.concatenate([w, [0.0]])


@dataclass(frozen=True, eq=False)
class LocalDataset:
    """One institution's private samples."""

    institution_id: str
    features: np.ndarray
    labels: np.ndarray
    task_kind: str

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ShapeError("features must be a 2-D matrix")
        if self.labels.ndim != 1:
            raise ShapeError("labels must be a 1-D vector")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ShapeError(
                f"row mismatch: {self.features.shape[0]} feature rows, "
                f"{self.labels.shape[0]} labels"
            )
        if self.features.shape[0] < 1:
            raise ConfigurationError("dataset must contain at least one sample")
        if not (np.all(np.isfinite(self.features)) and np.all(np.isfinite(self.labels))):
            raise NumericError("dataset contains non-finite values")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices, institution_id: str | None = None) -> "LocalDataset":
        idx = np.asarray(indices, dtype=np.intp)
        return LocalDataset(
            institution_id=institution_id or self.institution_id,
            features=self.features[idx].copy(),
            labels=self.labels[idx].copy(),
            task_kind=self.task_kind,
        )


@dataclass(frozen=True)
class EvalMetrics:
    """Metrics for a model on one dataset; fields are None when the task
    kind does not define them (mae on classification, accuracy on regression,
    auroc on a single-class sample)."""

    accuracy: float | None = None
    auroc_proxy: float | None = None
    mae: float | None = None


def _draw_samples(task: SyntheticTask, n: int, rng: np.random.Generator):
    truth = task.truth()
    x = rng.standard_normal((n, task.feature_dim))
    score = x @ truth[:-1] + truth[-1]
    if task.noise > 0:
        score = score + task.noise * rng.standard_normal(n)
    if task.kind == CLASSIFICATION:
        y = (score > 0).astype(np.float64)
    else:
        y = score
    return x, y


def sample_dataset(task: SyntheticTask, n: int, label: str) -> LocalDataset:
    """Fresh samples from the task distribution on an independent seeded stream.

    Used for evaluation splits, attack probes, and shadow pools; never
    overlaps the institutional partition produced by generate_task.
    """
    if n < 1:
        raise ConfigurationError("need at least one sample")
    x, y = _draw_samples(task, n, rng_for(task.seed, "sample", "extra", label))
    return LocalDataset(institution_id=label, features=x, labels=y, task_kind=task.kind)


def partition_sizes(total: int, num_institutions: int) -> list[int]:
    """Near-even split of ``total`` samples, remainder to the first institutions."""
    base, extra = divmod(total, num_institutions)
    return [base + (1 if i < extra else 0) for i in range(num_institutions)]


def generate_task(
    task: SyntheticTask,
    num_institutions: int,
    partition: str = "iid",
    sizes: list[int] | None = None,
) -> list[LocalDataset]:
    """Generate the per-institution datasets for a task.

    ``partition`` is "iid" (seeded shuffle, near-even or explicit sizes) or
    "label-skew" (each institution's class prior drawn from a seeded
    Dirichlet; regression labels are skewed on their median split).
    Partitions are disjoint, cover exactly ``task.num_samples`` samples, and
    are bitwise-reproducible from the task seed.
    """
    if num_institutions < 1:
        raise ConfigurationError("num_institutions must be >= 1")
    if partition not in ("iid", "label-skew"):
        raise ConfigurationError(f"unknown partition {partition!r}")
    if sizes is None:
        if task.num_samples < num_institutions:
            raise ConfigurationError("fewer samples than institutions")
        sizes = partition_sizes(task.num_samples, num_institutions)
    else:
        sizes = [int(s) for s in sizes]
        if len(sizes) != num_institutions:
            raise ConfigurationError("sizes must list one entry per institution")
        if any(s < 1 for s in sizes):
            raise ConfigurationError("every institution needs at least one sample")
        if sum(sizes) != task.num_samples:
            raise ConfigurationError(
                f"sizes sum to {sum(sizes)}, task has {task.num_samples} samples"
            )

    rng = rng_for(task.seed, "partition")
    x, y = _draw_samples(task, task.num_samples, rng_for(task.seed, "data"))

    if partition == "iid" or num_institutions == 1:
        order = rng.permutation(task.num_samples)
    else:
        order = _label_skew_order(y, sizes, task.kind, rng)

    datasets = []
    start = 0
    for i, size in enumerate(sizes):
        idx = order[start:start + size]
        start += size
        datasets.append(LocalDataset(
            institution_id=f"inst{i:02d}",
            features=x[idx].copy(),
            labels=y[idx].copy(),
            task_kind=task.kind,
        ))
    return datasets


def _label_skew_order(y, sizes, kind, rng) -> np.ndarray:
    """Sample order realizing per-institution class priors drawn from a Dirichlet."""
    if kind == CLASSIFICATION:
        classes = (y > 0.5).astype(int)
    else:
        classes = (y >= np.median(y)).astype(int)
    pools = [list(rng.permutation(np.flatnonzero(classes == c))) for c in (0, 1)]
    priors = rng.dirichlet([0.5, 0.5], size=len(sizes))
    order: list[int] = []
    for j, size in enumerate(sizes):
        for _ in range(size):
            want = int(rng.random() >= priors[j][0])
            if not pools[want]:
                want = 1 - want
            order.append(pools[want].pop())
    return np.asarray(order, dtype=np.intp)


def _design_matrix(data: LocalDataset) -> np.ndarray:
    return np.hstack([data.features, np.ones((data.n, 1))])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function; its cost does not depend on the signs."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def local_train_stack(model, datasets: list[LocalDataset], epochs: int,
                      lr: float) -> np.ndarray:
    """Full-batch gradient descent from ``model`` on each of ``datasets`` at once.

    Every dataset must have the same n, feature_dim and task kind (else
    ShapeError). Row p of the returned (P, d) array holds the local weights
    trained on ``datasets[p]``; the input is never mutated, and with
    epochs=0 or lr=0 every row equals the model. Deterministic: the loss is
    convex and the descent path is fully fixed by the inputs.

    Each epoch is one batched matmul per direction over the (P, n, d) design
    stack, and the transposed stack is a view. Each row therefore takes the
    BLAS path a lone 2-D descent takes, so it is bit-identical to training
    that dataset alone. A contiguous transpose, einsum, or zero-padding to a
    common n each change the summation order and break that equality.
    """
    if not datasets:
        raise ShapeError("need at least one dataset to train")
    first = datasets[0]
    shape = (first.n, first.feature_dim, first.task_kind)
    for data in datasets:
        if (data.n, data.feature_dim, data.task_kind) != shape:
            raise ShapeError(f"{data.institution_id} cannot train in a stack with "
                             f"{first.institution_id}: n, feature_dim or task kind differ")
    w = ensure_vector(model, first.feature_dim + 1, "model")
    if epochs < 0:
        raise ConfigurationError("epochs must be >= 0")
    if lr < 0:
        raise ConfigurationError("lr must be >= 0")
    n = first.n
    xb = np.ones((len(datasets), n, first.feature_dim + 1))
    for x, data in zip(xb, datasets):
        x[:, :-1] = data.features
    xt = xb.transpose(0, 2, 1)
    y = np.stack([data.labels for data in datasets])
    w = np.tile(w, (len(datasets), 1))
    # a diverging descent returns non-finite weights, which ensure_vector
    # refuses where they are used, so numpy need not warn on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            z = np.matmul(xb, w[:, :, None])[:, :, 0]
            if first.task_kind == CLASSIFICATION:
                z = _sigmoid(z)
            w -= lr * (np.matmul(xt, (z - y)[:, :, None])[:, :, 0] / n)
    return w


def local_train(model, data: LocalDataset, epochs: int, lr: float) -> np.ndarray:
    """Full-batch gradient descent from ``model`` on one institution's data:
    the one-dataset case of local_train_stack."""
    return local_train_stack(model, [data], epochs, lr)[0]


def predict_scores(model, data: LocalDataset) -> np.ndarray:
    """Per-sample prediction scores: class-1 probability or regression output."""
    w = ensure_vector(model, data.feature_dim + 1, "model")
    z = _design_matrix(data) @ w
    return _sigmoid(z) if data.task_kind == CLASSIFICATION else z


def per_sample_loss(scores, data: LocalDataset) -> np.ndarray:
    """Log-loss (classification) or squared error (regression) of prediction
    ``scores`` against ``data``'s labels, one value per sample."""
    if data.task_kind == CLASSIFICATION:
        p = np.clip(scores, 1e-12, 1.0 - 1e-12)
        return -(data.labels * np.log(p) + (1.0 - data.labels) * np.log(1.0 - p))
    return (scores - data.labels) ** 2


def rank_auc(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Rank-statistic AUC with mid-rank tie handling.

    A stable mergesort orders the scores; each run of equal sorted scores is
    one tie group, found by a single comparison between neighbours, and every
    member of a group gets the group's 1-based mid-rank
    ``0.5 * (first + last) + 1``. The AUC follows from the positives' rank
    sum. None when only one class is present. Invariant under strictly
    monotone transformations of the scores.
    """
    pos = labels > 0.5
    n_pos = int(pos.sum())
    n_neg = int(len(labels) - n_pos)
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    n = len(sorted_scores)
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], n] - 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate(model, data: LocalDataset) -> EvalMetrics:
    """Deterministic full-dataset metrics for a model."""
    if data.n < 1:
        raise EvaluationError("cannot evaluate on an empty dataset")
    scores = predict_scores(model, data)
    if data.task_kind == CLASSIFICATION:
        preds = (scores > 0.5).astype(np.float64)
        accuracy = float(np.mean(preds == data.labels))
        return EvalMetrics(accuracy=accuracy, auroc_proxy=rank_auc(scores, data.labels))
    return EvalMetrics(mae=float(np.mean(np.abs(scores - data.labels))))
