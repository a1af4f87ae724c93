"""Helpers that only the tests use: oracles, a toy MDP and trace filters."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from privfed.governance import DISCOUNT
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
