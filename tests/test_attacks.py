import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from privfed.attacks import (
    AttackResult,
    _best_threshold,
    QueryInterface,
    TrainingRecipe,
    leakage_signal,
    overfit_study,
    run_membership_inference,
    train_shadow_models,
    train_with_recipe,
    untrained_study,
)
from privfed.dp import NoiseScale
from privfed.errors import ConfigurationError, EvaluationError
from privfed.tasks import CLASSIFICATION, SyntheticTask, sample_dataset

from support import reference_best_threshold


def spearman(xs, ys):
    """Rank correlation without ties (tier means are distinct floats)."""
    rx = np.argsort(np.argsort(xs))
    ry = np.argsort(np.argsort(ys))
    return float(np.corrcoef(rx, ry)[0, 1])


class TestBestThreshold:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(m=st.integers(1, 2000), k=st.integers(1, 2000),
           ties=st.sampled_from(["none", "rounded", "shared", "constant"]),
           seed=st.integers(0, 2**32 - 1))
    @example(m=2000, k=1999, ties="none", seed=1)
    @example(m=2000, k=700, ties="rounded", seed=2)
    @example(m=1, k=2000, ties="shared", seed=3)
    def test_equals_the_loop_reference_bit_for_bit(self, m, k, ties, seed):
        rng = np.random.default_rng(seed)
        members = rng.exponential(0.5, m)
        nonmembers = rng.exponential(1.0, k)
        if ties == "rounded":
            members, nonmembers = np.round(members, 1), np.round(nonmembers, 1)
        elif ties == "shared":
            # losses duplicated across the two sets
            nonmembers[: k // 2] = rng.choice(members, k // 2)
        elif ties == "constant":
            members, nonmembers = np.full(m, 0.25), np.full(k, 0.25)
        got = _best_threshold(members, nonmembers)
        assert type(got) is float
        assert got == reference_best_threshold(members, nonmembers)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.floats(0.0, 50.0) | st.sampled_from([0.0, 0.5, 1.0]),
                    min_size=1, max_size=40),
           st.lists(st.floats(0.0, 50.0) | st.sampled_from([0.0, 0.5, 1.0]),
                    min_size=1, max_size=40))
    def test_drawn_losses_equal_the_loop_reference(self, members, nonmembers):
        members, nonmembers = np.array(members), np.array(nonmembers)
        assert _best_threshold(members, nonmembers) == reference_best_threshold(
            members, nonmembers)

    def test_first_of_equal_maxima_wins(self):
        # candidates 1.5 and 4.5 both score 0.75; the smaller is kept
        assert _best_threshold(np.array([1.0, 4.0]), np.array([2.0, 5.0])) == 1.5
        # nothing separates identical sets, so the lowest candidate stays
        assert _best_threshold(np.array([2.0]), np.array([2.0])) == 1.0

    def test_midpoint_that_rounds_onto_a_loss_counts_it_as_below(self):
        # the midpoint of two neighbouring floats rounds to 1.0 itself; the
        # member at 1.0 is on the 'loss <= tau' side, so 1.0 separates the sets
        members, nonmembers = np.array([1.0]), np.array([np.nextafter(1.0, 2.0)])
        assert _best_threshold(members, nonmembers) == 1.0
        assert reference_best_threshold(members, nonmembers) == 1.0


class TestShadowModels:
    def test_single_shadow_disjoint_splits(self):
        task = SyntheticTask(CLASSIFICATION, 6, 400, seed=1)
        shadows = train_shadow_models(task, 1, TrainingRecipe(rounds=1), seed=2,
                                      samples_per_split=50)
        in_rows = {tuple(r) for r in shadows.in_datasets[0].features}
        out_rows = {tuple(r) for r in shadows.out_datasets[0].features}
        assert not (in_rows & out_rows)

    def test_same_seed_identical_shadows(self):
        task = SyntheticTask(CLASSIFICATION, 6, 400, seed=1)
        a = train_shadow_models(task, 2, TrainingRecipe(rounds=1), seed=5,
                                samples_per_split=40)
        b = train_shadow_models(task, 2, TrainingRecipe(rounds=1), seed=5,
                                samples_per_split=40)
        for ma, mb in zip(a.models, b.models):
            assert (ma == mb).all()

    def test_eight_shadows_sixteen_disjoint_splits(self):
        # derived check: all in/out splits pairwise disjoint by row content
        task = SyntheticTask(CLASSIFICATION, 5, 2000, seed=3)
        shadows = train_shadow_models(task, 8, TrainingRecipe(rounds=1), seed=9,
                                      samples_per_split=100)
        splits = shadows.in_datasets + shadows.out_datasets
        assert len(splits) == 16
        seen: set[tuple] = set()
        for split in splits:
            rows = {tuple(r) for r in split.features}
            assert len(rows) == 100
            assert not (rows & seen)
            seen |= rows

    def test_insufficient_pool_rejected(self):
        task = SyntheticTask(CLASSIFICATION, 5, 100, seed=3)
        with pytest.raises(ConfigurationError):
            train_shadow_models(task, 4, TrainingRecipe(rounds=1), seed=0,
                                samples_per_split=50)


class TestAttackResult:
    def test_advantage_identity_enforced(self):
        r = AttackResult(attack_accuracy=0.65, advantage=2 * (0.65 - 0.5),
                         auc=0.7, num_queries=10)
        assert r.advantage == 2 * (r.attack_accuracy - 0.5)
        with pytest.raises(ConfigurationError):
            AttackResult(attack_accuracy=0.65, advantage=0.5, auc=0.7, num_queries=10)

    def test_identity_holds_for_harness_results(self):
        for s in range(5):
            r = overfit_study(s)
            assert r.advantage == 2 * (r.attack_accuracy - 0.5)

    def test_leakage_signal_clips(self):
        def res(adv):
            return AttackResult(0.5 + adv / 2, 2 * ((0.5 + adv / 2) - 0.5), 0.5, 1)
        assert leakage_signal(res(-0.1)) == 0.0
        assert leakage_signal(res(0.3)) == pytest.approx(0.3)
        assert leakage_signal(res(1.0)) == 1.0


class TestMembershipInference:
    def test_untrained_target_has_no_signal(self):
        advantages = [untrained_study(s).advantage for s in range(10)]
        assert abs(float(np.mean(advantages))) < 0.08

    def test_exchangeable_probes_auc_near_half(self):
        aucs = [untrained_study(s).auc for s in range(20)]
        assert 0.45 < float(np.mean(aucs)) < 0.55

    def test_overfit_target_leaks(self):
        advantages = [overfit_study(s).advantage for s in range(10)]
        assert float(np.mean(advantages)) > 0.2

    def test_strong_dp_halves_advantage_paired_seeds(self):
        strong = NoiseScale(1.2, 1.0)  # 4x tier over the 0.3 study base
        pairs = [(overfit_study(s).advantage,
                  overfit_study(s, dp_scale=strong).advantage) for s in range(10)]
        no_dp = float(np.mean([p[0] for p in pairs]))
        with_dp = float(np.mean([p[1] for p in pairs]))
        assert with_dp <= 0.5 * no_dp

    def test_advantage_non_increasing_in_sigma(self):
        # 10 seeds per tier; Spearman over tier means must be <= 0
        tier_means = []
        for mult in (0.5, 1.0, 2.0, 4.0):
            scale = NoiseScale(0.3 * mult, 1.0)
            advs = [overfit_study(s, dp_scale=scale).advantage for s in range(10)]
            tier_means.append(float(np.mean(advs)))
        assert spearman([0.5, 1.0, 2.0, 4.0], tier_means) <= 0.0

    def test_empty_or_unbalanced_probes_rejected(self):
        task = SyntheticTask(CLASSIFICATION, 6, 400, seed=1)
        shadows = train_shadow_models(task, 1, TrainingRecipe(rounds=1), seed=2,
                                      samples_per_split=40)
        members = sample_dataset(task, 10, "m")
        nonmembers = sample_dataset(task, 12, "n")
        with pytest.raises(EvaluationError):
            run_membership_inference(np.zeros(7), shadows, members, nonmembers)

    def test_query_noise_blunts_the_attack_and_repeats_restore_it(self):
        # inference-time DP lowers advantage; averaging repeated queries
        # recovers part of it, which is what query limits are for
        noisy_once = QueryInterface(inference_sigma=0.4, repeats=1)
        noisy_many = QueryInterface(inference_sigma=0.4, repeats=16)
        clean = [overfit_study(s).advantage for s in range(8)]
        once = [overfit_study(s, query=noisy_once).advantage for s in range(8)]
        many = [overfit_study(s, query=noisy_many).advantage for s in range(8)]
        assert float(np.mean(once)) < float(np.mean(clean))
        assert float(np.mean(many)) > float(np.mean(once))

    def test_num_queries_counts_repeats(self):
        task = SyntheticTask(CLASSIFICATION, 6, 400, seed=1)
        shadows = train_shadow_models(task, 1, TrainingRecipe(rounds=2), seed=2,
                                      samples_per_split=40)
        members = sample_dataset(task, 10, "m")
        nonmembers = sample_dataset(task, 10, "n")
        result = run_membership_inference(
            np.zeros(7), shadows, members, nonmembers,
            QueryInterface(inference_sigma=0.1, repeats=4))
        assert result.num_queries == 80


def test_recipe_dp_changes_model():
    task = SyntheticTask(CLASSIFICATION, 6, 100, seed=4)
    data = sample_dataset(task, 50, "train")
    plain = train_with_recipe(data, TrainingRecipe(rounds=3), seed=1)
    noised = train_with_recipe(
        data, TrainingRecipe(rounds=3, dp_scale=NoiseScale(0.5, 1.0)), seed=1)
    assert not np.allclose(plain, noised)
    again = train_with_recipe(
        data, TrainingRecipe(rounds=3, dp_scale=NoiseScale(0.5, 1.0)), seed=1)
    assert (noised == again).all()
