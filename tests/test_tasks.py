import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from privfed.errors import ConfigurationError, EvaluationError, ShapeError
from privfed.tasks import (
    CLASSIFICATION,
    REGRESSION,
    LocalDataset,
    SyntheticTask,
    evaluate,
    generate_task,
    _sigmoid,
    local_train,
    local_train_stack,
    per_sample_loss,
    predict_scores,
    rank_auc,
    sample_dataset,
)

from support import reference_rank_auc


def mean_loss(model, data):
    return float(np.mean(per_sample_loss(predict_scores(model, data), data)))


def toy_separable():
    # two clusters on opposite sides of the diagonal; separability is
    # re-established in-test by an independent perceptron oracle
    x = np.array([
        [1.0, 1.0], [2.0, 1.5], [1.5, 2.0], [2.5, 2.5],
        [-1.0, -1.0], [-2.0, -1.5], [-1.5, -2.0], [-2.5, -2.5],
    ])
    y = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=float)
    return LocalDataset("toy", x, y, CLASSIFICATION)


def perceptron_finds_separator(data, max_iters=1000):
    w = np.zeros(data.feature_dim + 1)
    for _ in range(max_iters):
        errors = 0
        for xi, yi in zip(data.features, data.labels):
            xb = np.append(xi, 1.0)
            pred = 1.0 if xb @ w > 0 else 0.0
            if pred != yi:
                w += (yi - pred) * xb
                errors += 1
        if errors == 0:
            return True
    return False


class TestGenerateTask:
    def test_single_institution_gets_everything(self):
        task = SyntheticTask(CLASSIFICATION, 5, 200, seed=1)
        (ds,) = generate_task(task, 1)
        assert ds.n == 200

    def test_same_spec_is_bitwise_identical(self):
        task = SyntheticTask(CLASSIFICATION, 6, 300, seed=42)
        a = generate_task(task, 3)
        b = generate_task(task, 3)
        for da, db in zip(a, b):
            assert (da.features == db.features).all()
            assert (da.labels == db.labels).all()

    def test_sizes_sum_to_total(self):
        task = SyntheticTask(CLASSIFICATION, 4, 1000, seed=9)
        datasets = generate_task(task, 4)
        assert sum(d.n for d in datasets) == 1000

    def test_partitions_are_disjoint(self):
        task = SyntheticTask(CLASSIFICATION, 4, 240, seed=3)
        datasets = generate_task(task, 4, "label-skew")
        rows = [tuple(r) for d in datasets for r in d.features]
        assert len(rows) == len(set(rows)) == 240

    def test_explicit_sizes(self):
        task = SyntheticTask(REGRESSION, 3, 100, seed=5)
        datasets = generate_task(task, 3, sizes=[50, 30, 20])
        assert [d.n for d in datasets] == [50, 30, 20]

    def test_label_skew_skews_priors(self):
        task = SyntheticTask(CLASSIFICATION, 8, 2000, seed=7)
        skewed = generate_task(task, 4, "label-skew")
        fracs = [d.labels.mean() for d in skewed]
        assert max(fracs) - min(fracs) > 0.2

    def test_invalid_configs_rejected(self):
        task = SyntheticTask(CLASSIFICATION, 4, 10, seed=0)
        with pytest.raises(ConfigurationError):
            generate_task(task, 0)
        with pytest.raises(ConfigurationError):
            generate_task(task, 2, sizes=[4, 5])
        with pytest.raises(ConfigurationError):
            generate_task(task, 20)
        with pytest.raises(ConfigurationError):
            SyntheticTask(CLASSIFICATION, 0, 10)
        with pytest.raises(ConfigurationError):
            SyntheticTask("mystery", 4, 10)


class TestLocalTrain:
    def test_zero_epochs_is_identity(self):
        data = toy_separable()
        model = np.array([0.3, -0.2, 0.1])
        assert (local_train(model, data, 0, 1.0) == model).all()

    def test_zero_lr_is_identity(self):
        data = toy_separable()
        model = np.array([0.3, -0.2, 0.1])
        assert (local_train(model, data, 10, 0.0) == model).all()

    def test_separable_toy_set_reaches_perfect_training_accuracy(self):
        data = toy_separable()
        assert perceptron_finds_separator(data)  # oracle: a separator exists
        model = local_train(np.zeros(3), data, 50, 1.0)
        assert evaluate(model, data).accuracy == 1.0

    def test_stack_of_unequal_sizes_raises(self):
        small, large = generate_task(SyntheticTask(CLASSIFICATION, 2, 7, seed=3), 2, sizes=[3, 4])
        with pytest.raises(ShapeError):
            local_train_stack(np.zeros(3), [small, large], 1, 0.1)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ShapeError):
            local_train(np.zeros(5), toy_separable(), 1, 0.1)

    def test_loss_non_increasing_small_lr(self):
        task = SyntheticTask(CLASSIFICATION, 6, 300, noise=0.3, seed=11)
        (data,) = generate_task(task, 1)
        model = np.zeros(7)
        losses = [mean_loss(model, data)]
        for _ in range(30):
            model = local_train(model, data, 1, 0.2)
            losses.append(mean_loss(model, data))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_regression_loss_non_increasing(self):
        task = SyntheticTask(REGRESSION, 5, 200, noise=0.2, seed=13)
        (data,) = generate_task(task, 1)
        model = np.zeros(6)
        losses = [mean_loss(model, data)]
        for _ in range(20):
            model = local_train(model, data, 1, 0.1)
            losses.append(mean_loss(model, data))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_pure_function_of_inputs(self):
        data = toy_separable()
        model = np.array([0.5, 0.5, 0.0])
        a = local_train(model, data, 7, 0.3)
        b = local_train(model, data, 7, 0.3)
        assert (a == b).all()
        assert (model == np.array([0.5, 0.5, 0.0])).all()  # input untouched


class TestEvaluate:
    def test_constant_predictor_on_balanced_labels(self):
        x = np.zeros((50, 2))
        y = np.array([0.0] * 25 + [1.0] * 25)
        data = LocalDataset("b", x, y, CLASSIFICATION)
        # large negative bias predicts class 0 for every sample
        metrics = evaluate(np.array([0.0, 0.0, -10.0]), data)
        assert metrics.accuracy == 0.5

    def test_perfect_predictor_auroc_is_one(self):
        data = toy_separable()
        model = local_train(np.zeros(3), data, 50, 1.0)
        assert evaluate(model, data).auroc_proxy == 1.0

    def test_random_scores_auroc_near_half(self):
        # Monte-Carlo oracle: over seeds, random scores give AUC 0.5 +- 0.05
        for seed in range(10):
            rng = np.random.default_rng(seed)
            scores = rng.random(2000)
            labels = (rng.random(2000) > 0.5).astype(float)
            assert abs(rank_auc(scores, labels) - 0.5) < 0.05

    def test_auroc_monotone_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.random(300)
        labels = (rng.random(300) > 0.4).astype(float)
        base = rank_auc(scores, labels)
        assert rank_auc(np.exp(4.0 * scores), labels) == pytest.approx(base, abs=1e-12)
        assert rank_auc(2.0 * scores - 7.0, labels) == pytest.approx(base, abs=1e-12)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(1, 2000), ties=st.sampled_from(["none", "rounded", "constant"]),
           positive_share=st.sampled_from([0.0, 0.03, 0.5, 0.9, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    @example(n=2000, ties="none", positive_share=0.5, seed=1)
    @example(n=2000, ties="rounded", positive_share=0.03, seed=2)
    @example(n=1, ties="none", positive_share=1.0, seed=3)
    def test_auroc_equals_the_loop_reference_bit_for_bit(self, n, ties, positive_share,
                                                         seed):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal(n)
        if ties == "rounded":
            scores = np.round(scores, 1)  # about 60 distinct values, long tie groups
        elif ties == "constant":
            scores = np.full(n, scores[0])
        labels = (rng.random(n) < positive_share).astype(np.float64)
        got, want = rank_auc(scores, labels), reference_rank_auc(scores, labels)
        if want is None:
            assert got is None
        else:
            assert type(got) is float and got == want

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 1.0]),
                              st.booleans()), min_size=1, max_size=60))
    def test_auroc_on_drawn_floats_equals_the_loop_reference(self, rows):
        scores = np.array([s for s, _ in rows])
        labels = np.array([float(y) for _, y in rows])
        assert rank_auc(scores, labels) == reference_rank_auc(scores, labels)

    def test_single_class_has_no_auroc(self):
        x = np.ones((5, 2))
        data = LocalDataset("one", x, np.ones(5), CLASSIFICATION)
        metrics = evaluate(np.zeros(3), data)
        assert metrics.auroc_proxy is None

    def test_regression_mae(self):
        task = SyntheticTask(REGRESSION, 3, 100, noise=0.0, seed=2)
        (data,) = generate_task(task, 1)
        truth = task.truth()
        metrics = evaluate(truth, data)
        assert metrics.mae == pytest.approx(0.0, abs=1e-9)
        assert metrics.accuracy is None

    def test_metrics_deterministic(self):
        task = SyntheticTask(CLASSIFICATION, 4, 150, seed=8)
        (data,) = generate_task(task, 1)
        model = local_train(np.zeros(5), data, 5, 0.5)
        assert evaluate(model, data) == evaluate(model, data)


def test_sample_dataset_disjoint_stream_from_partition():
    task = SyntheticTask(CLASSIFICATION, 4, 200, seed=21)
    part_rows = {tuple(r) for d in generate_task(task, 2) for r in d.features}
    extra = sample_dataset(task, 200, "probe")
    extra_rows = {tuple(r) for r in extra.features}
    assert not (part_rows & extra_rows)


def test_empty_dataset_rejected():
    with pytest.raises((ConfigurationError, EvaluationError)):
        LocalDataset("e", np.zeros((0, 2)), np.zeros(0), CLASSIFICATION)


def test_sigmoid_matches_sign_split_form_bit_for_bit():
    # the split form evaluates exp only where it cannot overflow
    def split(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    rng = np.random.default_rng(2)
    z = np.concatenate([rng.normal(0, 6, 10_000), rng.normal(0, 400, 1_000),
                        [0.0, -0.0, 1e-320, -1e-320, 700.0, -700.0, 800.0, -800.0]])
    with np.errstate(over="raise"):
        assert _sigmoid(z).tobytes() == split(z).tobytes()
