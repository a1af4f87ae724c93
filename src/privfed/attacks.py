"""Membership-inference evaluation via shadow models.

The attack is the simplest shadow-model instantiation: per-sample loss
thresholding. Shadow models are trained with the same recipe as the target
(including its DP setting when the target is DP-trained); the attacker fits
a loss threshold separating the shadows' member and non-member losses, then
applies it to the target's losses on balanced probe sets.

advantage = 2 * (attack_accuracy - 0.5) identically; leakage_signal maps it
onto [0, 1] for the governance controller.

Probes can be queried through an inference-time DP interface: prediction
scores are clipped to [0, 1] and perturbed per query, and the attacker may
average repeated queries, so tighter query limits measurably blunt the
attack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dp import NoiseScale, privatize
from .errors import ConfigurationError, EvaluationError
from .seeding import derive_seed, rng_for
from .tasks import (
    CLASSIFICATION,
    LocalDataset,
    SyntheticTask,
    local_train,
    per_sample_loss,
    predict_scores,
    rank_auc,
    sample_dataset,
)


@dataclass(frozen=True)
class TrainingRecipe:
    """Target training procedure that shadows must mimic.

    Multi-round local training; when dp_scale is set, each round's delta
    goes through ``dp.privatize``, the clip-and-noise step the federation
    applies to transmitted updates.
    """

    rounds: int = 4
    epochs_per_round: int = 50
    lr: float = 1.0
    dp_scale: NoiseScale | None = None

    def __post_init__(self):
        if self.rounds < 1 or self.epochs_per_round < 0 or self.lr < 0:
            raise ConfigurationError("invalid training recipe")


def train_with_recipe(data: LocalDataset, recipe: TrainingRecipe, seed: int) -> np.ndarray:
    w = np.zeros(data.feature_dim + 1)
    for r in range(recipe.rounds):
        local = local_train(w, data, recipe.epochs_per_round, recipe.lr)
        if recipe.dp_scale is None:
            w = local
        else:
            w = privatize(w, local, recipe.dp_scale, derive_seed(seed, "recipe-dp", r))
    return w


def member_probes(datasets: list[LocalDataset], per_institution: int) -> LocalDataset:
    """The attack's member probe set: the first ``per_institution`` samples
    of each dataset (all of a smaller one), stacked in list order."""
    rows = [d.subset(range(min(per_institution, d.n))) for d in datasets]
    return LocalDataset("members", np.vstack([m.features for m in rows]),
                        np.concatenate([m.labels for m in rows]), datasets[0].task_kind)


@dataclass(frozen=True)
class QueryInterface:
    """How the attacker may query the target: per-query score noise and a
    repeat budget for averaging it away."""

    inference_sigma: float = 0.0
    repeats: int = 1

    def __post_init__(self):
        if self.inference_sigma < 0 or self.repeats < 1:
            raise ConfigurationError("invalid query interface")


@dataclass(frozen=True, eq=False)
class ShadowModelSet:
    models: list[np.ndarray]
    in_datasets: list[LocalDataset]
    out_datasets: list[LocalDataset]
    seed: int


@dataclass(frozen=True)
class AttackResult:
    attack_accuracy: float
    advantage: float
    auc: float
    num_queries: int

    def __post_init__(self):
        if abs(self.advantage - 2.0 * (self.attack_accuracy - 0.5)) > 1e-12:
            raise ConfigurationError("advantage must equal 2*(accuracy - 0.5)")


def train_shadow_models(
    task: SyntheticTask,
    k: int,
    recipe: TrainingRecipe,
    seed: int,
    samples_per_split: int = 100,
) -> ShadowModelSet:
    """k shadows on pairwise-disjoint in/out splits of a fresh task pool."""
    if k < 1:
        raise ConfigurationError("need at least one shadow model")
    need = 2 * k * samples_per_split
    if task.num_samples < need:
        raise ConfigurationError(
            f"task pool of {task.num_samples} cannot supply {need} disjoint samples"
        )
    pool = sample_dataset(task, need, f"shadow-pool-{seed}")
    models, ins, outs = [], [], []
    for s in range(k):
        lo = 2 * s * samples_per_split
        mid = lo + samples_per_split
        hi = mid + samples_per_split
        in_data = pool.subset(range(lo, mid), f"shadow{s}-in")
        out_data = pool.subset(range(mid, hi), f"shadow{s}-out")
        models.append(train_with_recipe(in_data, recipe, derive_seed(seed, "shadow", s)))
        ins.append(in_data)
        outs.append(out_data)
    return ShadowModelSet(models=models, in_datasets=ins, out_datasets=outs, seed=seed)


def _queried_losses(model, data: LocalDataset, query: QueryInterface, seed: int) -> np.ndarray:
    """Per-sample loss as seen through the query interface.

    Repeated queries are drawn as one batched noise matrix and averaged,
    the attacker's optimal use of a repeat budget.
    """
    raw = predict_scores(model, data)
    if query.inference_sigma == 0.0:
        scores = raw
    else:
        bounded = np.clip(raw, 0.0, 1.0)
        noise = rng_for(seed, "query").normal(
            0.0, query.inference_sigma, size=(query.repeats, data.n))
        scores = bounded + noise.mean(axis=0)
    return per_sample_loss(scores, data)


def _best_threshold(member_losses: np.ndarray, nonmember_losses: np.ndarray) -> float:
    """Loss threshold maximizing balanced accuracy of 'member iff loss <= tau'.

    The candidates are the midpoints between neighbouring distinct losses
    plus one value below and one above them all. Each set is sorted once, so
    a candidate's hit counts are two searchsorted lookups and all candidates
    are scored at once; a count over its set size is exactly the mean of the
    boolean mask 'loss <= tau'. Ties go to the smallest candidate (argmax
    keeps the first maximum).
    """
    values = np.unique(np.concatenate([member_losses, nonmember_losses]))
    candidates = np.concatenate([
        [values[0] - 1.0],
        (values[:-1] + values[1:]) / 2.0,
        [values[-1] + 1.0],
    ])
    m, k = len(member_losses), len(nonmember_losses)
    members_below = np.searchsorted(np.sort(member_losses), candidates, "right")
    nonmembers_below = np.searchsorted(np.sort(nonmember_losses), candidates, "right")
    acc = 0.5 * (members_below / m) + 0.5 * ((k - nonmembers_below) / k)
    return float(candidates[np.argmax(acc)])


def fit_shadow_threshold(shadows: ShadowModelSet, query: QueryInterface = QueryInterface()) -> float:
    """Calibrate the loss threshold on the shadows' member/non-member losses."""
    shadow_in, shadow_out = [], []
    for s, model in enumerate(shadows.models):
        q_seed = derive_seed(shadows.seed, "shadow-query", s)
        shadow_in.append(_queried_losses(model, shadows.in_datasets[s], query, q_seed))
        shadow_out.append(_queried_losses(model, shadows.out_datasets[s], query, q_seed))
    return _best_threshold(np.concatenate(shadow_in), np.concatenate(shadow_out))


def run_membership_inference(
    target,
    shadows: ShadowModelSet,
    probe_members: LocalDataset,
    probe_nonmembers: LocalDataset,
    query: QueryInterface = QueryInterface(),
    threshold: float | None = None,
) -> AttackResult:
    """Threshold attack calibrated on the shadows, applied to the target.

    Probe sets must be balanced; both are scored through the same query
    interface as the shadow calibration. A pre-fitted threshold may be
    passed to reuse one calibration across repeated measurements.
    """
    if probe_members.n == 0 or probe_nonmembers.n == 0:
        raise EvaluationError("probe sets must be nonempty")
    if probe_members.n != probe_nonmembers.n:
        raise EvaluationError("probe sets must be balanced")

    tau = fit_shadow_threshold(shadows, query) if threshold is None else threshold

    m_seed = derive_seed(shadows.seed, "probe-members")
    n_seed = derive_seed(shadows.seed, "probe-nonmembers")
    member_losses = _queried_losses(target, probe_members, query, m_seed)
    nonmember_losses = _queried_losses(target, probe_nonmembers, query, n_seed)

    hits = int((member_losses <= tau).sum()) + int((nonmember_losses > tau).sum())
    total = probe_members.n + probe_nonmembers.n
    accuracy = hits / total

    # rank AUC of -loss as the membership score
    scores = np.concatenate([-member_losses, -nonmember_losses])
    labels = np.concatenate([np.ones(probe_members.n), np.zeros(probe_nonmembers.n)])
    auc = rank_auc(scores, labels)

    return AttackResult(
        attack_accuracy=accuracy,
        advantage=2.0 * (accuracy - 0.5),
        auc=float(auc),
        num_queries=total * query.repeats,
    )


def leakage_signal(result: AttackResult) -> float:
    """Governance's privacy-risk telemetry: advantage clipped onto [0, 1]."""
    return min(1.0, max(0.0, result.advantage))


# --- engineered overfit scenario -------------------------------------------
# Tiny training set, high dimension, many epochs: the target memorizes its
# members, giving the attack a real signal to find; DP noise on the round
# deltas erodes it.

OVERFIT_FEATURE_DIM = 24
OVERFIT_TRAIN_SIZE = 30
OVERFIT_POOL = 4000
OVERFIT_SHADOWS = 6
# the noise multiplier of the study's strong-DP arm
STRONG_SIGMA = 1.2


def overfit_recipe(dp_scale: NoiseScale | None = None) -> TrainingRecipe:
    return TrainingRecipe(rounds=6, epochs_per_round=60, lr=1.0, dp_scale=dp_scale)


def _overfit_setup(seed: int, recipe: TrainingRecipe):
    """The overfit task, its member and non-member probes, and shadows
    trained with ``recipe``."""
    task = SyntheticTask(CLASSIFICATION, OVERFIT_FEATURE_DIM, OVERFIT_POOL,
                         noise=0.05, seed=derive_seed(seed, "overfit-task"))
    members = sample_dataset(task, OVERFIT_TRAIN_SIZE, f"members-{seed}")
    nonmembers = sample_dataset(task, OVERFIT_TRAIN_SIZE, f"nonmembers-{seed}")
    shadows = train_shadow_models(task, OVERFIT_SHADOWS, recipe,
                                  derive_seed(seed, "shadows"),
                                  samples_per_split=OVERFIT_TRAIN_SIZE)
    return task, members, nonmembers, shadows


def overfit_study(seed: int, dp_scale: NoiseScale | None = None,
                  query: QueryInterface = QueryInterface()) -> AttackResult:
    """Train an overfit (optionally DP) target and attack it."""
    recipe = overfit_recipe(dp_scale)
    _, members, nonmembers, shadows = _overfit_setup(seed, recipe)
    target = train_with_recipe(members, recipe, derive_seed(seed, "target"))
    return run_membership_inference(target, shadows, members, nonmembers, query)


def untrained_study(seed: int) -> AttackResult:
    """Attack a never-trained target: no membership signal exists."""
    task, members, nonmembers, shadows = _overfit_setup(seed, overfit_recipe())
    random_model = rng_for(seed, "random-target").standard_normal(task.model_dim)
    return run_membership_inference(random_model, shadows, members, nonmembers)
