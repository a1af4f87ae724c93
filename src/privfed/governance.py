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
operation is observable, not fatal.

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
from .federation import SimCostModel, charge_round, train_clients, weighted_average
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
    alpha: float
    beta: float
    gamma: float

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
    fixed_action: GovernanceAction | None = None

    def q(self, bucket) -> np.ndarray:
        values = self.q_values.get(bucket)
        if values is None:
            values = np.zeros(len(self.actions))
            self.q_values[bucket] = values
        return values

    def greedy_index(self, bucket) -> int:
        if self.fixed_action is not None:
            return self.actions.index(self.fixed_action)
        values = self.q_values.get(bucket)
        if values is None:
            return 0  # unvisited bucket stays at the initialization value
        return int(np.argmax(values))  # ties break to the lowest action index

    def greedy(self, bucket):
        return self.actions[self.greedy_index(bucket)]


def static_baseline_policy() -> GovernancePolicy:
    """The constant no-op policy: hold the scenario's starting mid-tier
    configuration forever."""
    return GovernancePolicy(fixed_action=GovernanceAction.NO_OP)


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


@dataclass(frozen=True)
class ScenarioConfig:
    """Violation-prone default scenario; see the module docstring."""

    feature_dim: int = 32
    samples_per_institution: int = 12
    num_institutions: int = 6
    task_noise: float = 0.1
    local_epochs: int = 5
    lr: float = 0.8
    rounds_per_step: int = 3
    horizon_steps: int = 8
    clip_norm: float = 0.5
    round_delta: float = 1e-4
    base_sigma: float = 0.25         # sigma at the 1x tier
    budget_cap_epsilon: float = 110.0
    budget_cap_delta: float = 0.5
    start_tier: int = 1              # mid tier
    start_strictness: int = 0        # lenient
    breach_probability: float = 0.5
    inference_sigma: float = 0.25
    violation_handling_ms: float = 4.0  # remediation cost per denied charge or breach
    eval_samples: int = 150
    probe_members_per_institution: int = 8
    shadow_count: int = 3
    latency_reference_ms: float = 40.0
    policy: PolicySpec = PolicySpec(
        max_epsilon_per_institution=110.0,
        min_sigma_floor=0.125,
        allowed_regions=frozenset({"us-east", "eu-west"}),
        max_rounds=500,
    )

    def tier_sigma(self, tier: int) -> float:
        return self.base_sigma * NOISE_TIERS[tier]

    def tier_epsilon(self, tier: int) -> float:
        return epsilon_for_sigma(self.tier_sigma(tier), self.round_delta, self.clip_norm)


BREACH_REGION = "offshore-zone"


class GovernanceEnv:
    """One governance step = one epoch of ``rounds_per_step`` federated rounds
    under the current knob settings, then fresh telemetry.

    Knobs: noise tier over NOISE_TIERS, participation count, and policy
    strictness. Infeasible actions (top-tier raise, lowering sigma through
    the policy floor, shrinking below one participant) apply as no_op with
    an ``infeasible`` flag. Raising the tier never lowers sigma.
    """

    actions = GOVERNANCE_ACTIONS

    def __init__(self, scenario: ScenarioConfig, weights: RewardWeights, seed: int,
                 recorder: AuditRecorder | None = None):
        self.scenario = scenario
        self.weights = weights
        self.seed = seed
        self.recorder = recorder
        self.cost = SimCostModel()
        self._shadow_cache: dict[tuple[int, int], attacks.ShadowModelSet] = {}
        self._episode = -1

        # the task is fixed for the scenario; episodes differ through the
        # DP-noise and region-request streams, so shadow calibration stays
        # valid across episodes
        sc = scenario
        self.task = SyntheticTask(
            "binary-classification", sc.feature_dim,
            sc.samples_per_institution * sc.num_institutions,
            noise=sc.task_noise, seed=derive_seed(seed, "scenario-task"),
        )
        datasets = generate_task(self.task, sc.num_institutions)
        self.datasets = {d.institution_id: d for d in datasets}
        self.eval_data = sample_dataset(self.task, sc.eval_samples, "eval")
        self.probe_members = attacks.member_probes(datasets, sc.probe_members_per_institution)
        self.probe_nonmembers = sample_dataset(
            self.task, self.probe_members.n, "nonmembers")

    # -- episode state -------------------------------------------------

    def reset(self, episode: int) -> TelemetrySnapshot:
        sc = self.scenario
        self._episode = episode
        self.global_model = np.zeros(self.task.model_dim)
        cap = PrivacyBudget(sc.budget_cap_epsilon, sc.budget_cap_delta)
        self.ledgers = {pid: AccountantLedger(pid, cap) for pid in self.datasets}
        self.tier = sc.start_tier
        self.strictness = sc.start_strictness
        self.participants = sc.num_institutions
        self.step_count = 0
        self.round_index = 0
        self.telemetry = self._measure(violations=0, epoch_ms=0.0)
        return self.telemetry

    # -- knobs -----------------------------------------------------------

    def _apply(self, action: GovernanceAction) -> bool:
        sc = self.scenario
        if action is GovernanceAction.NO_OP:
            return True
        if action is GovernanceAction.RAISE_NOISE_TIER:
            if self.tier + 1 >= len(NOISE_TIERS):
                return False
            self.tier += 1
            return True
        if action is GovernanceAction.LOWER_NOISE_TIER:
            if self.tier == 0:
                return False
            if sc.tier_sigma(self.tier - 1) < sc.policy.min_sigma_floor:
                return False  # knob safety: never below the policy floor
            self.tier -= 1
            return True
        if action is GovernanceAction.SHRINK_PARTICIPATION:
            if self.participants <= 1:
                return False
            self.participants -= 1
            return True
        if action is GovernanceAction.GROW_PARTICIPATION:
            if self.participants >= sc.num_institutions:
                return False
            self.participants += 1
            return True
        if action is GovernanceAction.TIGHTEN_POLICY:
            if self.strictness >= 2:
                return False
            self.strictness += 1
            return True
        if action is GovernanceAction.RELAX_POLICY:
            if self.strictness <= 0:
                return False
            self.strictness -= 1
            return True
        raise ConfigurationError(f"unknown action {action!r}")

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
        scale = NoiseScale(sc.tier_sigma(self.tier), sc.clip_norm, heuristic_regime=True)
        spend = PrivacyBudget(sc.tier_epsilon(self.tier), sc.round_delta)
        active = {pid: self.datasets[pid]
                  for pid in sorted(self.datasets)[: self.participants]}
        slowest = max(self.cost.train_ms(data.n, sc.local_epochs) + self.cost.dp_ms(dim)
                      for data in active.values())

        def noised(global_model, local, r, pid):
            seed = derive_seed(self.seed, "env-dp", self._episode, r, pid)
            return privatize(global_model, local, scale, seed)

        for _ in range(sc.rounds_per_step):
            r = self.round_index
            updates = train_clients(self.global_model, active, sc.local_epochs, sc.lr,
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
            epoch_ms += (slowest + self.cost.agg_ms(len(active), dim)
                         + 1.0 * self.strictness
                         + sc.violation_handling_ms * round_violations)
            self.round_index += 1

        self.step_count += 1
        self.telemetry = self._measure(violations, epoch_ms)
        reward = compute_reward(self.telemetry, self.weights)
        done = self.step_count >= sc.horizon_steps
        info = {
            "violations": violations,
            "leakage": self.telemetry.leakage_risk,
            "infeasible": not feasible,
            "tier": self.tier,
            "strictness": self.strictness,
            "participants": self.participants,
        }
        return self.telemetry, reward, done, info

    def _region_traffic(self, round_index: int, active) -> int:
        """Seeded transfer requests; lenient policy lets breaches execute."""
        sc = self.scenario
        violations = 0
        for pid in active:
            u = rng_for(self.seed, "region", self._episode, round_index, pid).random()
            wants_breach = u < sc.breach_probability
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
                    round_index, pid, sc.policy.home_region(pid))
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
            sigma_global = sc.tier_sigma(self.tier) / math.sqrt(sc.num_institutions)
            recipe = attacks.TrainingRecipe(
                rounds=sc.rounds_per_step, epochs_per_round=sc.local_epochs,
                lr=sc.lr, dp_scale=NoiseScale(sigma_global, sc.clip_norm))
            shadows = attacks.train_shadow_models(
                self.task, sc.shadow_count, recipe,
                derive_seed(self.seed, "env-shadows", self.tier, self.strictness),
                samples_per_split=sc.samples_per_institution)
            query = attacks.QueryInterface(
                inference_sigma=sc.inference_sigma,
                repeats=STRICTNESS_QUERY_REPEATS[self.strictness])
            threshold = attacks.fit_shadow_threshold(shadows, query)
            cached = (shadows, threshold, query)
            self._shadow_cache[key] = cached
        return cached

    def _measure(self, violations: int, epoch_ms: float) -> TelemetrySnapshot:
        sc = self.scenario
        metrics = evaluate(self.global_model, self.eval_data)
        shadows, threshold, query = self._attack_instrument()
        result = attacks.run_membership_inference(
            self.global_model, shadows,
            self.probe_members, self.probe_nonmembers, query, threshold=threshold)
        leakage = attacks.leakage_signal(result)
        latency = epoch_ms / (sc.rounds_per_step * sc.latency_reference_ms)
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

    @property
    def sigma(self) -> float:
        return self.scenario.tier_sigma(self.tier)
