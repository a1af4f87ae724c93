import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privfed.compliance import AuditRecorder
from privfed.errors import ConfigurationError
from privfed.governance import (
    NOISE_TIERS,
    NUM_INSTITUTIONS,
    STRICTNESS_QUERY_REPEATS,
    GovernanceAction,
    GovernanceEnv,
    RewardWeights,
    ScenarioConfig,
    TelemetrySnapshot,
    bucketize,
    compute_reward,
    run_policy,
    static_baseline_policy,
    tier_sigma,
    train_controller,
)

from support import TinyMdp, reference_apply


def snapshot(accuracy=0.9, leakage=0.1, latency=0.2, violations=0, utilization=0.0):
    return TelemetrySnapshot(accuracy, leakage, latency, violations, utilization)


SMALL = ScenarioConfig(horizon_steps=4, samples_per_institution=10, local_epochs=2)
WEIGHTS = RewardWeights(1.0, 2.0, 0.6)


class TestReward:
    def test_direct_arithmetic(self):
        w = RewardWeights(1.0, 1.0, 1.0)
        assert compute_reward(snapshot(0.9, 0.1, 0.2), w) == pytest.approx(0.6)

    def test_degenerate_weights(self):
        w = RewardWeights(2.0, 0.0, 0.0)
        assert compute_reward(snapshot(0.7, 0.9, 5.0), w) == pytest.approx(1.4)

    def test_zero_state(self):
        assert compute_reward(snapshot(0.0, 0.0, 0.0), RewardWeights(1, 1, 1)) == 0.0

    def test_linear_in_weights(self):
        t = snapshot(0.8, 0.3, 0.4)
        base = compute_reward(t, RewardWeights(1.0, 2.0, 0.5))
        scaled = compute_reward(t, RewardWeights(3.0, 6.0, 1.5))
        assert scaled == pytest.approx(3.0 * base)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            RewardWeights(0.0, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            RewardWeights(-1.0, 1.0, 1.0)

    def test_argmax_invariant_under_weight_scaling(self):
        states = [snapshot(0.9, 0.4, 0.1), snapshot(0.7, 0.05, 0.3),
                  snapshot(0.5, 0.0, 0.0)]
        w = RewardWeights(1.0, 2.0, 0.5)
        kw = RewardWeights(4.0, 8.0, 2.0)
        pick = max(range(3), key=lambda i: compute_reward(states[i], w))
        pick_scaled = max(range(3), key=lambda i: compute_reward(states[i], kw))
        assert pick == pick_scaled


class TestBucketize:
    def test_total_over_random_snapshots(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            t = snapshot(
                accuracy=float(rng.random()),
                leakage=float(rng.random()),
                latency=float(rng.uniform(0, 5)),
                violations=int(rng.integers(0, 30)),
                utilization=float(rng.random()),
            )
            bucket = bucketize(t)
            assert len(bucket) == 5
            assert all(0 <= b <= 3 for b in bucket)

    def test_distinct_regions_distinct_buckets(self):
        assert bucketize(snapshot(accuracy=0.1)) != bucketize(snapshot(accuracy=0.9))

    def test_invalid_telemetry_rejected(self):
        with pytest.raises(ConfigurationError):
            snapshot(accuracy=1.5)
        with pytest.raises(ConfigurationError):
            snapshot(leakage=-0.2)
        with pytest.raises(ConfigurationError):
            snapshot(latency=-1.0)


class TestTinyMdp:
    def test_brute_force_oracle_policy(self):
        # exact policy evaluation over all 27 stationary policies
        assert TinyMdp(seed=0).optimal_policy_brute_force() == (1, 2, 0)

    def test_learner_matches_brute_force_most_seeds(self):
        optimum = TinyMdp(seed=0).optimal_policy_brute_force()
        hits = 0
        for seed in range(10):
            training = train_controller(TinyMdp(seed=seed), episodes=2000, seed=seed)
            hits += tuple(training.policy.greedy(s) for s in range(3)) == optimum
        assert hits >= 9

    def test_training_deterministic_under_seed(self):
        a = train_controller(TinyMdp(seed=4), episodes=50, seed=7)
        b = train_controller(TinyMdp(seed=4), episodes=50, seed=7)
        assert a.curve == b.curve
        assert set(a.policy.q_values) == set(b.policy.q_values)
        for k in a.policy.q_values:
            assert (a.policy.q_values[k] == b.policy.q_values[k]).all()

    def test_single_episode_policy_exists(self):
        training = train_controller(TinyMdp(seed=1), episodes=1, seed=1)
        assert training.policy.greedy(0) in (0, 1, 2)
        # unvisited buckets answer with the initialization argmax
        assert training.policy.greedy_index("never-seen") == 0


class TestBaselinePolicy:
    def test_always_no_op(self):
        policy = static_baseline_policy()
        for bucket in [(0, 0, 0, 0, 0), (3, 3, 3, 3, 3), "anything"]:
            assert policy.greedy(bucket) is GovernanceAction.NO_OP

    def test_no_op_in_a_bucket_whose_q_row_is_set(self):
        # one action, so the greedy choice of any Q row is that action
        policy = static_baseline_policy()
        assert policy.actions == (GovernanceAction.NO_OP,)
        bucket = (1, 2, 0, 1, 0)
        policy.q(bucket)[:] = -3.0
        assert policy.greedy_index(bucket) == 0
        assert policy.greedy(bucket) is GovernanceAction.NO_OP

    def test_baseline_trace_is_uncontrolled_federation(self):
        env = GovernanceEnv(SMALL, WEIGHTS, seed=11)
        baseline = run_policy(env, static_baseline_policy(), episodes=1)
        env.reset(100_000)
        rewards = []
        done = False
        while not done:
            _, r, done, _ = env.step(GovernanceAction.NO_OP)
            rewards.append(r)
        assert baseline["mean_reward"] == pytest.approx(float(np.mean(rewards)))


class TestGovernanceEnv:
    def test_no_op_keeps_configuration(self):
        env = GovernanceEnv(SMALL, WEIGHTS, seed=5)
        env.reset(0)
        tier, strict, part = env.tier, env.strictness, env.participants
        env.step(GovernanceAction.NO_OP)
        assert (env.tier, env.strictness, env.participants) == (tier, strict, part)

    def test_raise_noise_tier_strictly_increases_sigma(self):
        env = GovernanceEnv(SMALL, WEIGHTS, seed=5)
        env.reset(0)
        before = tier_sigma(env.tier)
        _, _, _, info = env.step(GovernanceAction.RAISE_NOISE_TIER)
        assert tier_sigma(env.tier) > before
        assert not info["infeasible"]

    def test_raise_at_top_tier_is_flagged_no_op(self):
        env = GovernanceEnv(SMALL, WEIGHTS, seed=5)
        env.reset(0)
        for _ in range(len(NOISE_TIERS)):
            _, _, _, info = env.step(GovernanceAction.RAISE_NOISE_TIER)
        assert info["infeasible"]
        assert env.tier == len(NOISE_TIERS) - 1

    def test_shrink_below_one_participant_is_flagged_no_op(self):
        env = GovernanceEnv(SMALL, WEIGHTS, seed=5)
        env.reset(0)
        for _ in range(NUM_INSTITUTIONS + 2):
            _, _, _, info = env.step(GovernanceAction.SHRINK_PARTICIPATION)
        assert info["infeasible"]
        assert env.participants == 1

    def test_sigma_never_below_policy_floor(self):
        import dataclasses
        # floor at the mid tier: lowering out of it must be refused
        policy = dataclasses.replace(
            SMALL.policy, min_sigma_floor=tier_sigma(1))
        scenario = dataclasses.replace(SMALL, policy=policy)
        env = GovernanceEnv(scenario, WEIGHTS, seed=5)
        env.reset(0)
        rng = np.random.default_rng(0)
        for _ in range(30):
            action = rng.choice(list(GovernanceAction))
            env.step(action)
            assert tier_sigma(env.tier) >= policy.min_sigma_floor

    def test_raising_noise_reduces_leakage_paired_seeds(self):
        lows, highs = [], []
        for seed in range(10):
            env = GovernanceEnv(SMALL, WEIGHTS, seed=seed)
            env.reset(0)
            for _ in range(3):
                state, _, _, _ = env.step(GovernanceAction.NO_OP)
            lows.append(state.leakage_risk)
            env.reset(0)
            env.step(GovernanceAction.RAISE_NOISE_TIER)
            env.step(GovernanceAction.RAISE_NOISE_TIER)
            for _ in range(1):
                state, _, _, _ = env.step(GovernanceAction.NO_OP)
            highs.append(state.leakage_risk)
        assert float(np.mean(highs)) < float(np.mean(lows))

    def test_budget_pressure_creates_violations_at_mid_tier(self):
        env = GovernanceEnv(ScenarioConfig(), WEIGHTS, seed=2)
        env.reset(0)
        total = 0
        done = False
        while not done:
            _, _, done, info = env.step(GovernanceAction.NO_OP)
            total += info["violations"]
        assert total > 20  # the scenario is violation-prone by construction

    def test_step_deterministic_for_episode_seed(self):
        env_a = GovernanceEnv(SMALL, WEIGHTS, seed=9)
        env_b = GovernanceEnv(SMALL, WEIGHTS, seed=9)
        env_a.reset(3)
        env_b.reset(3)
        for action in (GovernanceAction.RAISE_NOISE_TIER, GovernanceAction.NO_OP,
                       GovernanceAction.TIGHTEN_POLICY):
            sa, ra, da, ia = env_a.step(action)
            sb, rb, db, ib = env_b.step(action)
            assert sa == sb and ra == rb and da == db and ia == ib


def test_trained_controller_beats_baseline_on_small_scenario():
    # smoke-scale analogue of the acceptance criterion
    env = GovernanceEnv(ScenarioConfig(horizon_steps=6), WEIGHTS, seed=0)
    training = train_controller(env, episodes=150, seed=0)
    trained = run_policy(env, training.policy, episodes=2)
    baseline = run_policy(env, static_baseline_policy(), episodes=2)
    assert trained["mean_reward"] > baseline["mean_reward"]
    assert trained["violations"] < baseline["violations"]


def test_recorder_changes_no_training():
    plain = train_controller(GovernanceEnv(SMALL, WEIGHTS, seed=4), episodes=3, seed=4)
    env = GovernanceEnv(SMALL, WEIGHTS, seed=4)
    env.recorder = AuditRecorder(seed=0)
    recorded = train_controller(env, episodes=3, seed=4)
    assert env.recorder.chain.entries
    assert recorded.curve == plain.curve
    assert recorded.policy.q_values.keys() == plain.policy.q_values.keys()
    for bucket, values in plain.policy.q_values.items():
        assert np.array_equal(recorded.policy.q_values[bucket], values)


TIER_SIGMAS = [tier_sigma(t) for t in range(len(NOISE_TIERS))]
# floors at every tier sigma and halfway between neighbouring ones
FLOORS = sorted(TIER_SIGMAS + [(a + b) / 2 for a, b in zip(TIER_SIGMAS, TIER_SIGMAS[1:])])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    start=st.tuples(st.integers(0, len(NOISE_TIERS) - 1), st.integers(1, NUM_INSTITUTIONS),
                    st.integers(0, len(STRICTNESS_QUERY_REPEATS) - 1)),
    actions=st.lists(st.sampled_from(GovernanceAction), max_size=40),
    floor=st.sampled_from(FLOORS),
)
# a floor above the start tier's sigma: raising the tier is still feasible
@example(start=(0, NUM_INSTITUTIONS, 0),
         actions=[GovernanceAction.RAISE_NOISE_TIER] * 4 + [GovernanceAction.LOWER_NOISE_TIER],
         floor=TIER_SIGMAS[-1])
def test_knob_moves_match_reference_ladder(start, actions, floor):
    policy = dataclasses.replace(SMALL.policy, min_sigma_floor=floor)
    env = GovernanceEnv(dataclasses.replace(SMALL, policy=policy), WEIGHTS, seed=0)
    env.tier, env.participants, env.strictness = start
    state = start
    for action in actions:
        state, expected = reference_apply(state, action, floor)
        feasible = env._apply(action)
        assert (env.tier, env.participants, env.strictness, feasible) == (*state, expected)


def test_unknown_action_raises():
    env = GovernanceEnv(SMALL, WEIGHTS, seed=0)
    with pytest.raises(ConfigurationError):
        env._apply("raise_noise_tier")
