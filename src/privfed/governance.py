"""RL-driven governance: an MDP over federation telemetry.

The controller watches telemetry (accuracy A, leakage risk P, latency cost
L, violations, budget utilization) and adjusts three knobs: the DP noise
tier, the participation set, and the access-policy strictness. The reward
is

    R = alpha * A - beta * P - gamma * L.

The learner is tabular Q-learning with epsilon-greedy exploration over
discretized telemetry (each field into four buckets); the policy interface
is learner-agnostic so a heavier learner could be swapped in.

The violation-prone scenario is the evaluation environment: per-round
budget spends at the mid noise tier overrun the run cap partway through an
episode (every denied charge is a violation) and a lenient access policy
lets out-of-region transfers through (each executed breach is a violation).
Raising the noise tier shrinks per-round spends; tightening the policy
blocks breaches and cuts the attacker's query budget. Training continues
past denied charges here - the point of the scenario is that non-compliant
operation is observable, not fatal. The scenario is fixed by the module
constants below; ``ScenarioConfig`` holds only its sizes and its policy.

Each scenario round runs the federation's own round steps (train_clients
with dp.privatize, charge_round without aborting, weighted_average), so the
controller learns on the code the experiment pipeline runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import attacks
from .compliance import AuditRecorder, PolicySpec
from .dp import AccountantLedger, NoiseScale, PrivacyBudget, epsilon_for_sigma, privatize
from .errors import ConfigurationError
from .federation import (
    AGG_MS_PER_UPDATE_COORD,
    DP_MS_PER_COORD,
    charge_round,
    train_clients,
    train_ms,
    weighted_average,
)
from .seeding import derive_seed, rng_for
from .tasks import SyntheticTask, evaluate, generate_task, sample_dataset


class GovernanceAction(Enum):
    RAISE_NOISE_TIER = "raise_noise_tier"
    LOWER_NOISE_TIER = "lower_noise_tier"
    SHRINK_PARTICIPATION = "shrink_participation"
    GROW_PARTICIPATION = "grow_participation"
    TIGHTEN_POLICY = "tighten_policy"
    RELAX_POLICY = "relax_policy"
    NO_OP = "no_op"


GOVERNANCE_ACTIONS = tuple(GovernanceAction)

NOISE_TIERS = (0.5, 1.0, 2.0, 4.0)  # sigma multipliers over the scenario base
STRICTNESS_QUERY_REPEATS = (16, 4, 1)  # lenient, standard, strict


@dataclass(frozen=True)
class RewardWeights:
    alpha: float = 1.0
    beta: float = 2.0
    gamma: float = 0.6

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ConfigurationError("reward weights must be nonnegative")
        if self.alpha == self.beta == self.gamma == 0:
            raise ConfigurationError("reward weights must not all be zero")


@dataclass(frozen=True)
class TelemetrySnapshot:
    accuracy: float
    leakage_risk: float
    latency_cost: float
    violations_count: int
    budget_utilization: float

    def __post_init__(self):
        for name in ("accuracy", "leakage_risk", "budget_utilization"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0) or not math.isfinite(value):
                raise ConfigurationError(f"{name} must lie in [0, 1]")
        if self.latency_cost < 0 or not math.isfinite(self.latency_cost):
            raise ConfigurationError("latency_cost must be a nonnegative real")
        if self.violations_count < 0:
            raise ConfigurationError("violations_count must be >= 0")


def compute_reward(t: TelemetrySnapshot, w: RewardWeights) -> float:
    return w.alpha * t.accuracy - w.beta * t.leakage_risk - w.gamma * t.latency_cost


_UNIT_EDGES = (0.25, 0.5, 0.75)
_LATENCY_EDGES = (0.5, 1.0, 2.0)
_VIOLATION_EDGES = (0.5, 2.5, 6.5)


def _bucket(value: float, edges) -> int:
    return int(np.searchsorted(edges, value, side="right"))


def bucketize(t: TelemetrySnapshot) -> tuple[int, int, int, int, int]:
    """Total discretization: every telemetry snapshot maps to one bucket."""
    return (
        _bucket(t.accuracy, _UNIT_EDGES),
        _bucket(t.leakage_risk, _UNIT_EDGES),
        _bucket(t.latency_cost, _LATENCY_EDGES),
        _bucket(t.violations_count, _VIOLATION_EDGES),
        _bucket(t.budget_utilization, _UNIT_EDGES),
    )


# --------------------------------------------------------------------------
# policy and learner


# the Q-learner's step size and discount, and its epsilon-greedy schedule
LEARNING_RATE = 0.25
DISCOUNT = 0.9
EXPLORATION_START = 1.0
EXPLORATION_MIN = 0.05
EXPLORATION_DECAY = 0.997
# evaluation rollouts start here, disjoint from the training episodes, so
# paired baseline comparisons share seeds
EVAL_EPISODE_OFFSET = 100_000


@dataclass
class GovernancePolicy:
    """Action-value table over telemetry buckets."""

    actions: tuple = GOVERNANCE_ACTIONS
    q_values: dict = field(default_factory=dict)

    def q(self, bucket) -> np.ndarray:
        values = self.q_values.get(bucket)
        if values is None:
            values = np.zeros(len(self.actions))
            self.q_values[bucket] = values
        return values

    def greedy_index(self, bucket) -> int:
        values = self.q_values.get(bucket)
        if values is None:
            return 0  # unvisited bucket stays at the initialization value
        return int(np.argmax(values))  # ties break to the lowest action index

    def greedy(self, bucket):
        return self.actions[self.greedy_index(bucket)]


def static_baseline_policy() -> GovernancePolicy:
    """The constant no-op policy: hold the scenario's starting mid-tier
    configuration forever: its one action is every bucket's greedy choice."""
    return GovernancePolicy(actions=(GovernanceAction.NO_OP,))


@dataclass
class ControllerTraining:
    policy: GovernancePolicy
    curve: list[dict]  # episode, mean_reward, violations, leakage


def train_controller(env, episodes: int, seed: int) -> ControllerTraining:
    """Tabular Q-learning over the env's bucketized states.

    The env owns the reward (for the governance env that is compute_reward
    over fresh telemetry). Deterministic under (env seeds, seed).
    """
    if episodes < 1:
        raise ConfigurationError("episodes must be >= 1")
    policy = GovernancePolicy(actions=tuple(env.actions))
    rng = rng_for(seed, "controller")
    curve: list[dict] = []
    for episode in range(episodes):
        state = env.reset(episode)
        bucket = env.bucket(state)
        epsilon = max(EXPLORATION_MIN, EXPLORATION_START * EXPLORATION_DECAY ** episode)
        rewards = []
        violations = 0
        leakage = []
        done = False
        while not done:
            if rng.random() < epsilon:
                action_index = int(rng.integers(len(policy.actions)))
            else:
                action_index = policy.greedy_index(bucket)
            state, reward, done, info = env.step(policy.actions[action_index])
            next_bucket = env.bucket(state)
            q_row = policy.q(bucket)
            target = reward if done else reward + DISCOUNT * policy.q(next_bucket).max()
            q_row[action_index] += LEARNING_RATE * (target - q_row[action_index])
            bucket = next_bucket
            rewards.append(reward)
            violations += info.get("violations", 0)
            if "leakage" in info:
                leakage.append(info["leakage"])
        curve.append({
            "episode": episode,
            "mean_reward": float(np.mean(rewards)),
            "violations": violations,
            "leakage": float(np.mean(leakage)) if leakage else 0.0,
        })
    return ControllerTraining(policy=policy, curve=curve)


def run_policy(env, policy: GovernancePolicy, episodes: int) -> dict:
    """Greedy rollouts for evaluation, from episode EVAL_EPISODE_OFFSET on."""
    rewards, violations, leakage = [], 0, []
    for e in range(episodes):
        state = env.reset(EVAL_EPISODE_OFFSET + e)
        done = False
        while not done:
            action = policy.greedy(env.bucket(state))
            state, reward, done, info = env.step(action)
            rewards.append(reward)
            violations += info.get("violations", 0)
            if "leakage" in info:
                leakage.append(info["leakage"])
    return {
        "mean_reward": float(np.mean(rewards)),
        "violations": violations,
        "mean_leakage": float(np.mean(leakage)) if leakage else 0.0,
    }


def governance_summary(env, policy: GovernancePolicy, episodes: int) -> dict:
    """Greedy rollouts of ``policy`` against the static baseline on the same
    evaluation episodes: the report's governance-summary fields."""
    trained = run_policy(env, policy, episodes)
    baseline = run_policy(env, static_baseline_policy(), episodes)
    return {
        "trained_violations": trained["violations"],
        "baseline_violations": baseline["violations"],
        "trained_leakage": trained["mean_leakage"],
        "baseline_leakage": baseline["mean_leakage"],
        "trained_reward": trained["mean_reward"],
        "baseline_reward": baseline["mean_reward"],
    }


# --------------------------------------------------------------------------
# the governance environment over a live federation


# the violation-prone scenario (see the module docstring)
FEATURE_DIM = 32
NUM_INSTITUTIONS = 6
TASK_NOISE = 0.1
LR = 0.8                       # the institutions' local descent step size
ROUNDS_PER_STEP = 3
CLIP_NORM = 0.5
ROUND_DELTA = 1e-4
BASE_SIGMA = 0.25              # sigma at the 1x tier
BUDGET_CAP_EPSILON = 110.0
BUDGET_CAP_DELTA = 0.5
START_TIER = 1                 # mid tier
START_STRICTNESS = 0           # lenient
BREACH_PROBABILITY = 0.5
INFERENCE_SIGMA = 0.25
VIOLATION_HANDLING_MS = 4.0    # remediation cost per denied charge or breach
EVAL_SAMPLES = 150
PROBE_MEMBERS_PER_INSTITUTION = 8
SHADOW_COUNT = 3
LATENCY_REFERENCE_MS = 40.0


@dataclass(frozen=True)
class ScenarioConfig:
    """The scenario's sizes and policy; the rest of it is the module
    constants above. Tests shrink the first three to keep the suite fast
    and tighten the sigma floor through ``policy``."""

    samples_per_institution: int = 12
    local_epochs: int = 5
    horizon_steps: int = 8
    policy: PolicySpec = PolicySpec(
        max_epsilon_per_institution=BUDGET_CAP_EPSILON,
        min_sigma_floor=0.125,
        allowed_regions=frozenset({"us-east", "eu-west"}),
    )


def tier_sigma(tier: int) -> float:
    return BASE_SIGMA * NOISE_TIERS[tier]


def tier_epsilon(tier: int) -> float:
    return epsilon_for_sigma(tier_sigma(tier), ROUND_DELTA, CLIP_NORM)


# each knob's inclusive bounds, and the knob and step of each move
_KNOB_BOUNDS = {"tier": (0, len(NOISE_TIERS) - 1), "participants": (1, NUM_INSTITUTIONS),
                "strictness": (0, len(STRICTNESS_QUERY_REPEATS) - 1)}
_KNOB_MOVES = {
    GovernanceAction.RAISE_NOISE_TIER: ("tier", 1),
    GovernanceAction.LOWER_NOISE_TIER: ("tier", -1),
    GovernanceAction.SHRINK_PARTICIPATION: ("participants", -1),
    GovernanceAction.GROW_PARTICIPATION: ("participants", 1),
    GovernanceAction.TIGHTEN_POLICY: ("strictness", 1),
    GovernanceAction.RELAX_POLICY: ("strictness", -1),
}


BREACH_REGION = "offshore-zone"


class GovernanceEnv:
    """One governance step = one epoch of ``ROUNDS_PER_STEP`` federated rounds
    under the current knob settings, then fresh telemetry.

    Knobs: noise tier over NOISE_TIERS, participation count, and policy
    strictness. Infeasible actions (a move past its knob's bounds, or
    lowering sigma through the policy floor) apply as no_op with an
    ``infeasible`` flag. Raising the tier never lowers sigma.

    ``recorder`` is None until a caller sets it; from then on each step's
    action, budget charges and region traffic go to its chain. It draws no
    randomness, so it changes no telemetry or reward.
    """

    actions = GOVERNANCE_ACTIONS

    def __init__(self, scenario: ScenarioConfig, weights: RewardWeights, seed: int):
        self.scenario = scenario
        self.weights = weights
        self.seed = seed
        self.recorder: AuditRecorder | None = None
        self._shadow_cache: dict[tuple[int, int], attacks.ShadowModelSet] = {}

        # the task is fixed for the scenario; episodes differ through the
        # DP-noise and region-request streams, so shadow calibration stays
        # valid across episodes
        self.task = SyntheticTask(
            "binary-classification", FEATURE_DIM,
            scenario.samples_per_institution * NUM_INSTITUTIONS,
            noise=TASK_NOISE, seed=derive_seed(seed, "scenario-task"),
        )
        datasets = generate_task(self.task, NUM_INSTITUTIONS)
        self.datasets = {d.institution_id: d for d in datasets}
        self.eval_data = sample_dataset(self.task, EVAL_SAMPLES, "eval")
        self.probe_members = attacks.member_probes(datasets, PROBE_MEMBERS_PER_INSTITUTION)
        self.probe_nonmembers = sample_dataset(
            self.task, self.probe_members.n, "nonmembers")

    # -- episode state -------------------------------------------------

    def reset(self, episode: int) -> TelemetrySnapshot:
        self._episode = episode
        self.global_model = np.zeros(self.task.model_dim)
        cap = PrivacyBudget(BUDGET_CAP_EPSILON, BUDGET_CAP_DELTA)
        self.ledgers = {pid: AccountantLedger(pid, cap) for pid in self.datasets}
        self.tier = START_TIER
        self.strictness = START_STRICTNESS
        self.participants = NUM_INSTITUTIONS
        self.step_count = 0
        self.round_index = 0
        return self._measure(violations=0, epoch_ms=0.0)

    # -- knobs -----------------------------------------------------------

    def _apply(self, action: GovernanceAction) -> bool:
        """Move one knob one step within its bounds; False leaves it as it was."""
        if action is GovernanceAction.NO_OP:
            return True
        if action not in _KNOB_MOVES:
            raise ConfigurationError(f"unknown action {action!r}")
        knob, step = _KNOB_MOVES[action]
        value = getattr(self, knob) + step
        low, high = _KNOB_BOUNDS[knob]
        if not low <= value <= high:
            return False
        if knob == "tier" and step < 0 and (
                tier_sigma(value) < self.scenario.policy.min_sigma_floor):
            return False  # knob safety: never below the policy floor
        setattr(self, knob, value)
        return True

    # -- dynamics ----------------------------------------------------------

    def step(self, action: GovernanceAction):
        feasible = self._apply(action)
        if self.recorder is not None:
            self.recorder.record_governance_action(
                self.round_index, action.value, self.step_count)

        violations = 0
        epoch_ms = 0.0
        sc = self.scenario
        dim = self.task.model_dim
        scale = NoiseScale(tier_sigma(self.tier), CLIP_NORM, heuristic_regime=True)
        spend = PrivacyBudget(tier_epsilon(self.tier), ROUND_DELTA)
        active = {pid: self.datasets[pid]
                  for pid in sorted(self.datasets)[: self.participants]}
        slowest = max(train_ms(data.n, sc.local_epochs) + DP_MS_PER_COORD * dim
                      for data in active.values())

        def noised(global_model, local, r, pid):
            seed = derive_seed(self.seed, "env-dp", self._episode, r, pid)
            return privatize(global_model, local, scale, seed)

        for _ in range(ROUNDS_PER_STEP):
            r = self.round_index
            updates = train_clients(self.global_model, active, sc.local_epochs, LR,
                                    r, noised)
            # the scenario keeps training past a denied charge; every denied
            # charge is a compliance violation
            round_violations = charge_round(self.ledgers, active, r, spend, scale,
                                            self.recorder, abort=False)
            self.global_model = weighted_average(updates)
            round_violations += self._region_traffic(r, active)
            violations += round_violations
            # every violation triggers simulated remediation handling, so
            # non-compliant configurations surface in the latency telemetry
            epoch_ms += (slowest + AGG_MS_PER_UPDATE_COORD * len(active) * dim
                         + 1.0 * self.strictness
                         + VIOLATION_HANDLING_MS * round_violations)
            self.round_index += 1

        self.step_count += 1
        telemetry = self._measure(violations, epoch_ms)
        reward = compute_reward(telemetry, self.weights)
        done = self.step_count >= sc.horizon_steps
        info = {"violations": violations, "leakage": telemetry.leakage_risk,
                "infeasible": not feasible}
        return telemetry, reward, done, info

    def _region_traffic(self, round_index: int, active) -> int:
        """Seeded transfer requests; lenient policy lets breaches execute."""
        violations = 0
        for pid in active:
            u = rng_for(self.seed, "region", self._episode, round_index, pid).random()
            wants_breach = u < BREACH_PROBABILITY
            if wants_breach:
                if self.strictness == 0:
                    violations += 1
                    if self.recorder is not None:
                        self.recorder.record_region_transfer(round_index, pid, BREACH_REGION)
                elif self.recorder is not None:
                    self.recorder.record_policy_decision(
                        round_index, pid, "transfer-blocked", BREACH_REGION)
            elif self.recorder is not None:
                self.recorder.record_region_transfer(
                    round_index, pid, self.scenario.policy.home_region(pid))
        return violations

    # -- telemetry ---------------------------------------------------------

    def _attack_instrument(self) -> tuple[attacks.ShadowModelSet, float, attacks.QueryInterface]:
        """Shadow set and fitted threshold, cached per (tier, strictness)."""
        key = (self.tier, self.strictness)
        cached = self._shadow_cache.get(key)
        if cached is None:
            sc = self.scenario
            # shadows mimic the per-round global noise level: client noise
            # averages down by sqrt(participants) in the weighted mean
            sigma_global = tier_sigma(self.tier) / math.sqrt(NUM_INSTITUTIONS)
            recipe = attacks.TrainingRecipe(
                rounds=ROUNDS_PER_STEP, epochs_per_round=sc.local_epochs,
                lr=LR, dp_scale=NoiseScale(sigma_global, CLIP_NORM))
            shadows = attacks.train_shadow_models(
                self.task, SHADOW_COUNT, recipe,
                derive_seed(self.seed, "env-shadows", self.tier, self.strictness),
                samples_per_split=sc.samples_per_institution)
            query = attacks.QueryInterface(
                inference_sigma=INFERENCE_SIGMA,
                repeats=STRICTNESS_QUERY_REPEATS[self.strictness])
            threshold = attacks.fit_shadow_threshold(shadows, query)
            cached = (shadows, threshold, query)
            self._shadow_cache[key] = cached
        return cached

    def _measure(self, violations: int, epoch_ms: float) -> TelemetrySnapshot:
        metrics = evaluate(self.global_model, self.eval_data)
        shadows, threshold, query = self._attack_instrument()
        result = attacks.run_membership_inference(
            self.global_model, shadows,
            self.probe_members, self.probe_nonmembers, query, threshold=threshold)
        leakage = attacks.leakage_signal(result)
        latency = epoch_ms / (ROUNDS_PER_STEP * LATENCY_REFERENCE_MS)
        utilization = max(l.utilization() for l in self.ledgers.values())
        return TelemetrySnapshot(
            accuracy=metrics.accuracy,
            leakage_risk=leakage,
            latency_cost=latency,
            violations_count=violations,
            budget_utilization=utilization,
        )

    def bucket(self, state: TelemetrySnapshot):
        return bucketize(state)
