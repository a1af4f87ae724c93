import math

import numpy as np
import pytest

from privfed.dp import AccountantLedger, PrivacyBudget, build_privatizer
from privfed.errors import ProtocolError, ShapeError
from privfed.federation import (
    Federation,
    NetworkConfig,
    weighted_average,
)
from privfed.tasks import CLASSIFICATION, SyntheticTask, generate_task, local_train, sample_dataset
from privfed.wire import ClientUpdate, NETWORK_PAYLOADS

from support import of_kind


def fsum_weighted_mean(updates):
    """Brute-force oracle: per-coordinate math.fsum of n_i * w_i / n_total."""
    n_total = sum(u.n_i for u in updates)
    dim = updates[0].dimension
    return np.array([
        math.fsum(u.n_i * u.weights[j] for u in updates) / n_total
        for j in range(dim)
    ])


def make_federation(num_inst=4, dim=6, total=400, seed=5, sizes=None, **net_kwargs):
    task = SyntheticTask(CLASSIFICATION, dim, total, noise=0.1, seed=seed)
    datasets = generate_task(task, num_inst, sizes=sizes)
    eval_data = sample_dataset(task, 200, "eval")
    net = NetworkConfig(**{"latency_ms": 10.0, "drop_probability": 0.0, "seed": seed,
                           **net_kwargs})
    fed = Federation({d.institution_id: d for d in datasets}, eval_data, net,
                     session_seed=seed)
    return task, fed


class TestWeightedAverage:
    def test_single_update_identity(self):
        u = ClientUpdate("a", np.array([1.0, -2.0, 3.0]), 17, 0)
        assert (weighted_average([u]) == u.weights).all()

    def test_quarter_three_quarter_weights(self):
        u1 = ClientUpdate("a", np.array([0.0, 4.0]), 1, 0)
        u2 = ClientUpdate("b", np.array([4.0, 0.0]), 3, 0)
        assert weighted_average([u1, u2]) == pytest.approx([3.0, 1.0], abs=1e-15)

    def test_matches_fsum_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            updates = [
                ClientUpdate(f"i{k}", rng.normal(0, 5, 30), int(rng.integers(1, 400)), 0)
                for k in range(5)
            ]
            got = weighted_average(updates)
            assert np.abs(got - fsum_weighted_mean(updates)).max() < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        updates = [
            ClientUpdate(f"i{k}", rng.normal(0, 2, 40), int(rng.integers(1, 100)), 0)
            for k in range(12)
        ]
        base = weighted_average(updates)
        for _ in range(5):
            perm = list(rng.permutation(len(updates)))
            shuffled = [updates[i] for i in perm]
            assert np.abs(weighted_average(shuffled) - base).max() < 1e-9

    def test_empty_list_rejected(self):
        with pytest.raises(ProtocolError):
            weighted_average([])

    def test_dimension_mismatch_rejected(self):
        u1 = ClientUpdate("a", np.ones(3), 1, 0)
        u2 = ClientUpdate("b", np.ones(4), 1, 0)
        with pytest.raises(ShapeError):
            weighted_average([u1, u2])

    def test_mixed_rounds_rejected(self):
        u1 = ClientUpdate("a", np.ones(3), 1, 0)
        u2 = ClientUpdate("b", np.ones(3), 1, 1)
        with pytest.raises(ProtocolError):
            weighted_average([u1, u2])


class TestRunRound:
    def test_zero_epochs_single_client_keeps_global(self):
        task, fed = make_federation(num_inst=1)
        model = np.full(task.model_dim, 0.25)
        result = fed.run_round(model, 0, 0, 1.0)
        assert result.global_model == pytest.approx(model, abs=1e-15)
        assert not result.round_failed

    def test_plain_and_secure_agree_without_dropouts(self):
        for seed in range(5):
            _, fed_a = make_federation(num_inst=5, seed=seed,
                                       sizes=[100, 60, 90, 80, 70])
            _, fed_b = make_federation(num_inst=5, seed=seed,
                                       sizes=[100, 60, 90, 80, 70])
            model = np.zeros(7)
            plain = fed_a.run_round(model, 0, 2, 0.5, agg_mode="plain")
            secure = fed_b.run_round(model, 0, 2, 0.5, agg_mode="secure")
            assert np.abs(plain.global_model - secure.global_model).max() < 1e-6

    def test_all_clients_dropped_flags_failure(self):
        task, fed = make_federation(num_inst=2, drop_probability=0.999)
        model = np.ones(task.model_dim)
        result = fed.run_round(model, 0, 1, 0.5)
        assert result.round_failed
        assert (result.global_model == model).all()
        assert result.dropped_ids == frozenset(fed.datasets)

    def test_dropouts_deterministic_in_seed_and_round(self):
        _, fed = make_federation(num_inst=8, drop_probability=0.4, seed=9)
        first = fed.dropped_for_round(3)
        again = fed.dropped_for_round(3)
        other_round = fed.dropped_for_round(4)
        assert first == again
        assert first != other_round  # extremely unlikely to match at p=0.4, 8 clients

    def test_secure_mode_coordinator_sees_only_masked_updates(self):
        _, fed = make_federation(num_inst=4)
        fed.run_round(np.zeros(7), 0, 1, 0.5, agg_mode="secure")
        inbound = [e for e in of_kind(fed.trace, "send", "receive")
                   if e.target == "coordinator" or e.source == "coordinator"]
        client_to_coord = [e for e in inbound if e.kind in ("send", "receive")
                           and e.payload != "global-model"]
        assert client_to_coord
        assert all(e.payload == "masked-update" for e in client_to_coord)

    def test_no_dataset_payload_ever_crosses_network(self):
        _, fed = make_federation(num_inst=3)
        fed.run_round(np.zeros(7), 0, 2, 0.5, agg_mode="plain")
        for event in of_kind(fed.trace, "broadcast", "send", "receive"):
            assert event.payload in NETWORK_PAYLOADS


class TestDpIntegration:
    def test_dp_apply_precedes_every_send(self):
        _, fed = make_federation(num_inst=3)
        cap = PrivacyBudget(4.0, 1e-3)
        fed.ledgers = {pid: AccountantLedger(pid, cap) for pid in fed.datasets}
        dp = build_privatizer(cap, clip_norm=1.0, rounds=4, seed=2)
        fed.run_training(np.zeros(7), rounds=4, local_epochs=1, lr=0.5, dp_policy=dp)
        sends = [e for e in of_kind(fed.trace, "send")]
        assert sends
        for send in sends:
            applied = [e for e in of_kind(fed.trace, "dp-apply")
                       if e.round_index == send.round_index
                       and e.source == send.source and e.index < send.index]
            assert applied, f"update sent without DP at round {send.round_index}"

    def test_budget_exhaustion_halts_training_at_predicted_round(self):
        _, fed = make_federation(num_inst=3)
        cap = PrivacyBudget(0.5, 1e-3)
        fed.ledgers = {pid: AccountantLedger(pid, cap) for pid in fed.datasets}
        # spends 0.2 per round against a 0.5 cap: accountant arithmetic on
        # both margins says rounds 0 and 1 land, round 2 must be rejected
        dp = build_privatizer(PrivacyBudget(2.0, 1e-4), clip_norm=1.0, rounds=10, seed=2)
        predicted_halt = 0
        total_e, total_d = 0.0, 0.0
        for spend in dp.spends:
            if (total_e + spend.epsilon > cap.epsilon
                    or total_d + spend.delta > cap.delta):
                break
            total_e += spend.epsilon
            total_d += spend.delta
            predicted_halt += 1
        assert predicted_halt == 2
        run = fed.run_training(np.zeros(7), rounds=10, local_epochs=1, lr=0.5, dp_policy=dp)
        assert run.status == "budget-exhausted"
        assert len(run.results) == predicted_halt


class TestRunTraining:
    def test_single_round_equals_run_round(self):
        _, fed_a = make_federation(num_inst=3, seed=7)
        _, fed_b = make_federation(num_inst=3, seed=7)
        model = np.zeros(7)
        run = fed_a.run_training(model, rounds=1, local_epochs=2, lr=0.5)
        single = fed_b.run_round(model, 0, 2, 0.5)
        assert (run.results[0].global_model == single.global_model).all()
        assert run.status == "completed"

    def test_federated_close_to_centralized_oracle(self):
        # oracle: centralized training on the pooled data
        task = SyntheticTask(CLASSIFICATION, 8, 1200, noise=0.1, seed=17)
        datasets = generate_task(task, 4)
        eval_data = sample_dataset(task, 600, "eval")
        pooled_x = np.vstack([d.features for d in datasets])
        pooled_y = np.concatenate([d.labels for d in datasets])
        from privfed.tasks import LocalDataset, evaluate
        pooled = LocalDataset("pool", pooled_x, pooled_y, CLASSIFICATION)
        central = local_train(np.zeros(task.model_dim), pooled, 60, 1.0)
        central_acc = evaluate(central, eval_data).accuracy

        net = NetworkConfig(latency_ms=5, drop_probability=0.0, seed=17)
        fed = Federation({d.institution_id: d for d in datasets}, eval_data, net,
                         session_seed=17)
        run = fed.run_training(np.zeros(task.model_dim), rounds=30,
                               local_epochs=2, lr=1.0)
        assert run.status == "completed"
        assert run.results[-1].metrics.accuracy >= central_acc - 0.02

    def test_wall_time_deterministic(self):
        _, fed_a = make_federation(num_inst=4, seed=3)
        _, fed_b = make_federation(num_inst=4, seed=3)
        run_a = fed_a.run_training(np.zeros(7), rounds=3, local_epochs=1, lr=0.5)
        run_b = fed_b.run_training(np.zeros(7), rounds=3, local_epochs=1, lr=0.5)
        assert [r.wall_time_ms for r in run_a.results] == [r.wall_time_ms for r in run_b.results]


def test_secure_agg_overhead_below_12_percent_at_20_institutions():
    rng = np.random.default_rng(0)
    sizes = [int(s) for s in rng.integers(30, 90, 20)]
    times = {}
    for mode in ("plain", "secure"):
        task, fed = make_federation(num_inst=20, total=sum(sizes), sizes=sizes, seed=1)
        run = fed.run_training(np.zeros(task.model_dim), rounds=3,
                               local_epochs=2, lr=0.5, agg_mode=mode)
        times[mode] = sum(r.wall_time_ms for r in run.results)
    overhead = (times["secure"] - times["plain"]) / times["plain"]
    assert 0.0 < overhead <= 0.12
