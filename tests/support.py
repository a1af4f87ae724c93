"""Helpers that only the tests use: oracles, a toy MDP and trace filters."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from privfed.errors import ConfigurationError
from privfed.governance import (
    DISCOUNT,
    NOISE_TIERS,
    NUM_INSTITUTIONS,
    GovernanceAction,
    tier_sigma,
)
from privfed.seeding import rng_for
from privfed.tasks import CLASSIFICATION, LocalDataset, _sigmoid


def reference_local_train(model, data: LocalDataset, epochs: int, lr: float) -> np.ndarray:
    """One institution's full-batch descent as a plain 2-D loop: the oracle
    that stacked training must equal bit for bit."""
    xb = np.hstack([data.features, np.ones((data.n, 1))])
    y = data.labels
    w = np.asarray(model, dtype=np.float64).copy()
    for _ in range(epochs):
        if data.task_kind == CLASSIFICATION:
            grad = xb.T @ (_sigmoid(xb @ w) - y) / data.n
        else:
            grad = xb.T @ (xb @ w - y) / data.n
        w -= lr * grad
    return w


def reference_rank_auc(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Mid-rank AUC with a scalar loop over the sorted scores: the oracle
    that tasks.rank_auc must equal bit for bit."""
    pos = labels > 0.5
    n_pos = int(pos.sum())
    n_neg = int(len(labels) - n_pos)
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # mid-rank, 1-based
        i = j + 1
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def reference_best_threshold(member_losses: np.ndarray, nonmember_losses: np.ndarray) -> float:
    """The threshold search as one loop over the candidates, each scored by
    two full-array means: the oracle that attacks._best_threshold must equal
    bit for bit."""
    values = np.unique(np.concatenate([member_losses, nonmember_losses]))
    candidates = np.concatenate([
        [values[0] - 1.0],
        (values[:-1] + values[1:]) / 2.0,
        [values[-1] + 1.0],
    ])
    best_tau, best_acc = candidates[0], -1.0
    for tau in candidates:
        acc = 0.5 * (member_losses <= tau).mean() + 0.5 * (nonmember_losses > tau).mean()
        if acc > best_acc:
            best_acc, best_tau = acc, float(tau)
    return best_tau


def reference_apply(state: tuple[int, int, int], action: GovernanceAction,
                    floor: float) -> tuple[tuple[int, int, int], bool]:
    """One knob move as a ladder of one branch per action: the oracle that
    GovernanceEnv._apply must agree with. ``state`` is (tier, participants,
    strictness); returns the new state and whether the move was feasible."""
    tier, participants, strictness = state
    if action is GovernanceAction.NO_OP:
        return state, True
    if action is GovernanceAction.RAISE_NOISE_TIER:
        if tier + 1 >= len(NOISE_TIERS):
            return state, False
        return (tier + 1, participants, strictness), True
    if action is GovernanceAction.LOWER_NOISE_TIER:
        if tier == 0:
            return state, False
        if tier_sigma(tier - 1) < floor:
            return state, False
        return (tier - 1, participants, strictness), True
    if action is GovernanceAction.SHRINK_PARTICIPATION:
        if participants <= 1:
            return state, False
        return (tier, participants - 1, strictness), True
    if action is GovernanceAction.GROW_PARTICIPATION:
        if participants >= NUM_INSTITUTIONS:
            return state, False
        return (tier, participants + 1, strictness), True
    if action is GovernanceAction.TIGHTEN_POLICY:
        if strictness >= 2:
            return state, False
        return (tier, participants, strictness + 1), True
    if action is GovernanceAction.RELAX_POLICY:
        if strictness <= 0:
            return state, False
        return (tier, participants, strictness - 1), True
    raise ConfigurationError(f"unknown action {action!r}")


def of_kind(trace, *kinds: str) -> list:
    """The events of ``trace`` whose kind is one of ``kinds``, in order."""
    return [e for e in trace.events if e.kind in kinds]


def report_body_lines(records_path: str | Path) -> list[str]:
    """Report body for determinism comparison: every record except wall-clock."""
    lines = Path(records_path).read_text(encoding="utf-8").split("\n")
    return [l for l in lines if l.strip() and '"kind": "timing-wallclock"' not in l]


class TinyMdp:
    """Three states, three actions, deterministic dynamics.

    Small immediate rewards bait the learner away from the high-value loop
    reached via two unrewarded moves; the optimal policy differs per state.
    """

    N_STATES = 3
    actions = (0, 1, 2)
    # (state, action) -> (next_state, reward)
    TABLE = {
        (0, 0): (0, 0.1), (0, 1): (1, 0.0), (0, 2): (0, 0.0),
        (1, 0): (0, 0.0), (1, 1): (1, 0.15), (1, 2): (2, 0.0),
        (2, 0): (2, 1.0), (2, 1): (0, 0.2), (2, 2): (1, 0.3),
    }

    def __init__(self, seed: int = 0, horizon: int = 15):
        self.seed = seed
        self.horizon = horizon
        self._state = 0
        self._steps = 0

    def reset(self, episode: int) -> int:
        self._state = int(rng_for(self.seed, "tiny-start", episode).integers(self.N_STATES))
        self._steps = 0
        return self._state

    def step(self, action: int):
        nxt, reward = self.TABLE[(self._state, action)]
        self._state = nxt
        self._steps += 1
        return nxt, reward, self._steps >= self.horizon, {}

    def bucket(self, state: int) -> int:
        return state

    def optimal_policy_brute_force(self) -> tuple[int, ...]:
        """Enumerate all 27 stationary policies; exact policy evaluation at
        the learner's DISCOUNT."""
        best, best_value = None, -np.inf
        for a0 in self.actions:
            for a1 in self.actions:
                for a2 in self.actions:
                    pi = (a0, a1, a2)
                    p = np.zeros((3, 3))
                    r = np.zeros(3)
                    for s in range(3):
                        nxt, reward = self.TABLE[(s, pi[s])]
                        p[s, nxt] = 1.0
                        r[s] = reward
                    v = np.linalg.solve(np.eye(3) - DISCOUNT * p, r)
                    value = float(v.mean())  # uniform start distribution
                    if value > best_value + 1e-12:
                        best_value, best = value, pi
        return best
