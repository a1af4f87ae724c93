"""Differential privacy engine: clipping, Gaussian noise, and budget accounting.

The mechanism is the classic Gaussian one: a gradient-like vector is clipped
to an L2 bound (its sensitivity), then perturbed with isotropic noise
sigma^2 * I; ``privatize`` is that step on a round's update, shared by the
federation, the governance scenario and the shadow recipe. Calibration uses

    sigma = clip_norm * sqrt(2 * ln(1.25 / delta)) / epsilon

which is exact for epsilon <= 1; larger epsilon keeps the same closed form
and is flagged as heuristic in the ledger, since common settings like
epsilon 2 and 4 fall outside the formula's proof regime.

Accounting is basic (linear) composition: per-round epsilon and delta sums,
enforced exactly against a per-institution run cap. Conservative and
auditable on purpose. Each institution's ledger is written to a file that no
privfed command reads back: an auditor checks the budget from the audit
chain, a budget proof and the policy file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BudgetExhausted, ConfigurationError, LedgerError
from .seeding import derive_seed, rng_for
from .tasks import ensure_vector


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta) pair; epsilon > 0 and delta in (0, 1)."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ConfigurationError("epsilon must be a positive finite real")
        if not (0 < self.delta < 1):
            raise ConfigurationError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class NoiseScale:
    """Gaussian noise standard deviation plus the L2 sensitivity it was sized for."""

    sigma: float
    clip_norm: float
    heuristic_regime: bool = False

    def __post_init__(self):
        if not (self.sigma >= 0 and math.isfinite(self.sigma)):
            raise ConfigurationError("sigma must be a finite real >= 0")
        if not (self.clip_norm > 0 and math.isfinite(self.clip_norm)):
            raise ConfigurationError("clip_norm must be a finite real > 0")


def clip(g, clip_norm: float) -> np.ndarray:
    """Scale ``g`` onto the L2 ball of radius ``clip_norm``.

    Returns g * min(1, clip_norm / ||g||); vectors already inside the ball
    pass through unchanged (a zero vector included).
    """
    if not clip_norm > 0:
        raise ConfigurationError("clip_norm must be > 0")
    v = ensure_vector(g, name="gradient")
    norm = float(np.linalg.norm(v))
    if norm <= clip_norm:
        return v.copy()
    return v * (clip_norm / norm)


def gaussian_mechanism(g, scale: NoiseScale, seed: int) -> np.ndarray:
    """Add seeded isotropic Gaussian noise N(0, sigma^2 I) to ``g``.

    The caller is responsible for having clipped ``g`` to scale.clip_norm;
    with sigma = 0 the input is returned unchanged.
    """
    v = ensure_vector(g, name="gradient")
    if scale.sigma == 0:
        return v.copy()
    noise = rng_for(seed, "gaussian").normal(0.0, scale.sigma, size=v.shape[0])
    return v + noise


def privatize(global_model: np.ndarray, local_weights: np.ndarray,
              scale: NoiseScale, seed: int) -> np.ndarray:
    """The clip-and-noise step on a round delta: global + N(clip(local - global))."""
    delta = clip(local_weights - global_model, scale.clip_norm)
    return global_model + gaussian_mechanism(delta, scale, seed)


def calibrate_sigma(budget: PrivacyBudget, clip_norm: float) -> NoiseScale:
    """Noise scale achieving (epsilon, delta)-DP for sensitivity ``clip_norm``.

    For epsilon > 1 the same closed form is used but the result carries the
    heuristic_regime flag, which is persisted with every ledger entry.
    """
    if not clip_norm > 0:
        raise ConfigurationError("clip_norm must be > 0")
    sigma = clip_norm * math.sqrt(2.0 * math.log(1.25 / budget.delta)) / budget.epsilon
    return NoiseScale(sigma=sigma, clip_norm=clip_norm,
                      heuristic_regime=budget.epsilon > 1.0)


def epsilon_for_sigma(sigma: float, delta: float, clip_norm: float) -> float:
    """Inverse of calibrate_sigma: the epsilon a given sigma corresponds to."""
    if not sigma > 0:
        raise ConfigurationError("sigma must be > 0")
    return clip_norm * math.sqrt(2.0 * math.log(1.25 / delta)) / sigma


@dataclass(frozen=True)
class LedgerEntry:
    round_index: int
    epsilon_spent: float
    delta_spent: float
    sigma: float
    clip_norm: float
    heuristic_regime: bool


class AccountantLedger:
    """Append-only per-institution (epsilon, delta) ledger under a run-level cap.

    Charges compose linearly and are compared against the cap with exact
    float arithmetic: a charge either lands (totals updated, entry appended)
    or raises BudgetExhausted and leaves the ledger untouched.
    """

    def __init__(self, institution_id: str, budget_cap: PrivacyBudget):
        self.institution_id = institution_id
        self.budget_cap = budget_cap
        self.entries: list[LedgerEntry] = []
        self.total_epsilon = 0.0
        self.total_delta = 0.0

    def would_exceed(self, spend: PrivacyBudget) -> bool:
        return (self.total_epsilon + spend.epsilon > self.budget_cap.epsilon
                or self.total_delta + spend.delta > self.budget_cap.delta)

    def charge(self, round_index: int, spend: PrivacyBudget,
               scale: NoiseScale) -> LedgerEntry:
        if self.entries and round_index <= self.entries[-1].round_index:
            raise LedgerError(
                f"round_index {round_index} not after last charged round "
                f"{self.entries[-1].round_index} for {self.institution_id}"
            )
        if round_index < 0:
            raise LedgerError("round_index must be >= 0")
        if self.would_exceed(spend):
            raise BudgetExhausted(self.institution_id, spend.epsilon,
                                  self.total_epsilon, self.budget_cap.epsilon)
        entry = LedgerEntry(
            round_index=round_index,
            epsilon_spent=spend.epsilon,
            delta_spent=spend.delta,
            sigma=scale.sigma,
            clip_norm=scale.clip_norm,
            heuristic_regime=scale.heuristic_regime,
        )
        self.entries.append(entry)
        self.total_epsilon += spend.epsilon
        self.total_delta += spend.delta
        return entry

    def utilization(self) -> float:
        return min(1.0, self.total_epsilon / self.budget_cap.epsilon)

    # --- append-only structured-text serialization -------------------------

    HEADER = "privfed-ledger/1"

    def to_lines(self) -> list[str]:
        lines = [f"{self.HEADER} institution={self.institution_id} "
                 f"cap_epsilon={self.budget_cap.epsilon!r} "
                 f"cap_delta={self.budget_cap.delta!r}"]
        cumulative = 0.0
        for e in self.entries:
            cumulative += e.epsilon_spent
            lines.append(f"round={e.round_index} epsilon={e.epsilon_spent!r} "
                         f"delta={e.delta_spent!r} sigma={e.sigma!r} "
                         f"clip_norm={e.clip_norm!r} cumulative_epsilon={cumulative!r} "
                         f"heuristic={int(e.heuristic_regime)}")
        return lines

    def write(self, path) -> None:
        Path(path).write_bytes(("\n".join(self.to_lines()) + "\n").encode("utf-8"))


def schedule_round_budgets(cap: PrivacyBudget, rounds: int) -> list[PrivacyBudget]:
    """Split a run-level cap into per-round spends that provably fit it.

    Even division in floating point can overshoot the cap by an ulp on the
    final round; the last spend is therefore the exact remainder, so the
    left-fold of successful charges never exceeds the cap.
    """
    if rounds < 1:
        raise ConfigurationError("rounds must be >= 1")
    eps_step = cap.epsilon / rounds
    delta_step = cap.delta / rounds
    spends = []
    total_e = 0.0
    total_d = 0.0
    for r in range(rounds):
        if r == rounds - 1:
            e, d = cap.epsilon - total_e, cap.delta - total_d
        else:
            e, d = eps_step, delta_step
        spends.append(PrivacyBudget(e, d))
        total_e += e
        total_d += d
    return spends


@dataclass(frozen=True)
class UpdatePrivatizer:
    """Round-level DP policy applied to every update before transmission.

    The transmitted quantity is the round delta (local weights minus the
    broadcast global model), the accumulated local gradient step, passed
    through ``privatize`` with a seed derived from (seed, "dp", round,
    institution); the institution then transmits global + privatized delta.
    """

    scale: NoiseScale
    spends: tuple[PrivacyBudget, ...]
    seed: int

    def spend_for_round(self, round_index: int) -> PrivacyBudget:
        if round_index >= len(self.spends):
            raise LedgerError(f"no budget scheduled for round {round_index}")
        return self.spends[round_index]

    def privatize(self, global_model: np.ndarray, local_weights: np.ndarray,
                  round_index: int, institution_id: str) -> np.ndarray:
        return privatize(global_model, local_weights, self.scale,
                         derive_seed(self.seed, "dp", round_index, institution_id))


def build_privatizer(cap: PrivacyBudget, clip_norm: float, rounds: int,
                     seed: int) -> UpdatePrivatizer:
    """Privatizer whose per-round sigma is calibrated from the scheduled spends.

    All spends except possibly the last are equal, so one scale covers the
    run; the remainder-sized final spend only ever implies a larger sigma,
    which we adopt conservatively by calibrating on the smallest spend.
    """
    spends = schedule_round_budgets(cap, rounds)
    smallest = min(spends, key=lambda b: b.epsilon)
    return UpdatePrivatizer(scale=calibrate_sigma(smallest, clip_norm),
                            spends=tuple(spends), seed=seed)
