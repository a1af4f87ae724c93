"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints one line with the measured quantities so a log review can
confirm margins, and the suite doubles as the runnable definition of done.
Statistical criteria run on fixed seeds and are therefore exact replays, not
flaky samples.
"""

import math
import time
from dataclasses import replace

import numpy as np

from privfed.attacks import overfit_study, untrained_study
from privfed.compliance import (
    AuditChain,
    ComplianceProof,
    PolicySpec,
    Verdict,
    prove_budget_compliance,
    split_record_lines,
    verify_proof,
)
from privfed.config import ExperimentConfig
from privfed.dp import (
    AccountantLedger,
    NoiseScale,
    PrivacyBudget,
    gaussian_mechanism,
)
from privfed.errors import BudgetExhausted, ChainFormatError
from privfed.experiment import (
    run_experiment,
    run_sweep,
    sweep_table,
)
from privfed.federation import Federation, NetworkConfig, weighted_average
from privfed.governance import (
    GovernanceEnv,
    RewardWeights,
    ScenarioConfig,
    run_policy,
    static_baseline_policy,
    train_controller,
)
from privfed.tasks import SyntheticTask, generate_task, sample_dataset
from privfed.wire import ClientUpdate

from support import TinyMdp, audit_verdict, report_body_lines


def report(name: str, detail: str):
    print(f"ACCEPTANCE {name}: PASS  [{detail}]")


# -------------------------------------------------------------------------


def test_criterion_1_weighted_average_oracle_equivalence():
    """Aggregation matches a high-precision weighted-mean oracle to 1e-12."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for case in range(500):
        n_clients = int(rng.integers(1, 51))
        dim = int(np.exp(rng.uniform(0, math.log(10_000))))
        updates = [
            ClientUpdate(f"i{k:02d}", rng.normal(0, 3, dim), int(rng.integers(1, 1000)), 0)
            for k in range(n_clients)
        ]
        got = weighted_average(updates)
        # oracle: extended-precision accumulation, independent order and dtype
        acc = np.zeros(dim, dtype=np.longdouble)
        total = np.longdouble(0)
        for u in updates:
            acc += np.longdouble(u.n_i) * u.weights.astype(np.longdouble)
            total += np.longdouble(u.n_i)
        oracle = acc / total
        worst = max(worst, float(np.max(np.abs(got - oracle.astype(np.float64)))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 10.0
    report("1 weighted-average oracle equivalence",
           f"500 cases, worst coordinate error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_secure_aggregation_equivalence_and_overhead():
    """Secure mode equals plain mode within 1e-6; overhead <= 12% at 20 institutions."""
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(7)
    for round_seed in range(100):
        n_inst = 2 + round_seed % 19  # cycles 2..20
        sizes = [int(s) for s in rng.integers(20, 120, n_inst)]
        task = SyntheticTask("binary-classification", 6, sum(sizes), noise=0.1,
                             seed=round_seed)
        datasets = generate_task(task, n_inst, sizes=sizes)
        eval_data = sample_dataset(task, 50, "eval")
        data = {d.institution_id: d for d in datasets}
        net = NetworkConfig(latency_ms=10, drop_probability=0.0, seed=round_seed)
        model = np.zeros(task.model_dim)
        plain = Federation(data, eval_data, net, session_seed=round_seed).run_round(
            model, 0, 2, 0.8, agg_mode="plain")
        secure = Federation(data, eval_data, net, session_seed=round_seed).run_round(
            model, 0, 2, 0.8, agg_mode="secure")
        worst = max(worst, float(np.max(np.abs(
            plain.global_model - secure.global_model))))
    assert worst < 1e-6

    # overhead at 20 institutions, unequal sizes
    sizes = [int(s) for s in np.random.default_rng(0).integers(30, 90, 20)]
    task = SyntheticTask("binary-classification", 12, sum(sizes), noise=0.1, seed=1)
    datasets = generate_task(task, 20, sizes=sizes)
    eval_data = sample_dataset(task, 100, "eval")
    data = {d.institution_id: d for d in datasets}
    net = NetworkConfig(latency_ms=10, drop_probability=0.0, seed=1)
    times = {}
    for mode in ("plain", "secure"):
        fed = Federation(data, eval_data, net, session_seed=1)
        run = fed.run_training(np.zeros(task.model_dim), 3, 2, 0.5, agg_mode=mode)
        times[mode] = sum(r.wall_time_ms for r in run.results)
    overhead = (times["secure"] - times["plain"]) / times["plain"]
    elapsed = time.perf_counter() - start
    assert 0.0 < overhead <= 0.12
    assert elapsed < 30.0
    report("2 secure-aggregation equivalence",
           f"100 rounds worst diff {worst:.2e}, overhead {overhead:.1%} "
           f"at 20 institutions, {elapsed:.1f}s")


def test_criterion_3_gaussian_mechanism_statistics():
    """Noise moments: mean within 0.02*sigma, std within 1%, |rho| < 0.02."""
    start = time.perf_counter()
    sigma = 1.7
    scale = NoiseScale(sigma, 1.0)
    dim = 6
    draws = np.stack([
        gaussian_mechanism(np.zeros(dim), scale, seed=s) for s in range(100_000)
    ])
    mean_err = float(np.abs(draws.mean(axis=0)).max())
    std_err = float(np.abs(draws.std(axis=0) / sigma - 1.0).max())
    corr = np.corrcoef(draws, rowvar=False)
    rho = float(np.abs(corr[~np.eye(dim, dtype=bool)]).max())
    elapsed = time.perf_counter() - start
    assert mean_err < 0.02 * sigma
    assert std_err < 0.01
    assert rho < 0.02
    assert elapsed < 20.0
    report("3 gaussian-noise statistical correctness",
           f"1e5 draws: |mean| {mean_err:.4f} (< {0.02 * sigma:.3f}), "
           f"std err {std_err:.2%}, |rho| {rho:.4f}, {elapsed:.1f}s")


def test_criterion_4_utility_trend_across_privacy_budgets(tmp_path):
    """Mean accuracy over 5 seeds non-increasing over no-dp, eps=4, eps=2."""
    start = time.perf_counter()
    config = ExperimentConfig(seed=11)
    sweep = run_sweep(config, ("inf", "4", "2"), seeds=5, out_dir=tmp_path)
    table = sweep_table(sweep, ["no-dp", "eps=4", "eps=2"])
    means = [table[s]["accuracy"][0] for s in ("no-dp", "eps=4", "eps=2")]
    stds = [table[s]["accuracy"][1] for s in ("no-dp", "eps=4", "eps=2")]
    elapsed = time.perf_counter() - start
    for i in range(2):
        pooled = math.sqrt((stds[i] ** 2 + stds[i + 1] ** 2) / 2)
        assert means[i + 1] <= means[i] + pooled, (
            f"accuracy increased from {means[i]:.3f} to {means[i + 1]:.3f} "
            f"beyond pooled std {pooled:.3f}")
    assert elapsed < 120.0
    report("4 utility trend",
           "accuracy " + " >= ".join(f"{m:.3f}" for m in means)
           + f" (5 seeds, pooled-std slack), {elapsed:.1f}s")


def test_criterion_5_membership_inference_reduction():
    """Strong DP cuts attack advantage by >= 50% on the overfit scenario."""
    start = time.perf_counter()
    strong = NoiseScale(1.2, 1.0)  # 4x tier over the overfit study base
    plain_adv, dp_adv = [], []
    for seed in range(10):  # paired seeds
        plain_adv.append(overfit_study(seed).advantage)
        dp_adv.append(overfit_study(seed, dp_scale=strong).advantage)
    calibration = [untrained_study(seed).advantage for seed in range(10)]
    mean_plain = float(np.mean(plain_adv))
    mean_dp = float(np.mean(dp_adv))
    mean_cal = float(np.mean(calibration))
    elapsed = time.perf_counter() - start
    assert mean_plain > 0.2  # the engineered scenario leaks without DP
    assert mean_dp <= 0.5 * mean_plain
    assert abs(mean_cal) < 0.08
    assert elapsed < 180.0
    report("5 membership-inference reduction",
           f"advantage {mean_plain:.3f} -> {mean_dp:.3f} "
           f"({1 - mean_dp / mean_plain:.0%} reduction), calibration "
           f"{mean_cal:+.3f}, {elapsed:.1f}s")


def test_criterion_6_budget_accountant_soundness():
    """1e4 random charge sequences: totals never exceed caps; exhaustion fires
    exactly where independent linear-composition arithmetic predicts."""
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    sequences = 10_000
    exhaustions = 0
    for _ in range(sequences):
        cap_eps = float(rng.uniform(0.2, 4.0))
        cap_delta = float(rng.uniform(1e-4, 0.5))
        n_charges = int(rng.integers(1, 12))
        spends = [(float(rng.uniform(0.01, 1.2)), float(rng.uniform(1e-8, 0.05)))
                  for _ in range(n_charges)]

        # independent oracle: plain left-fold sums with exact comparisons
        predicted = []
        tot_e = tot_d = 0.0
        for eps, delta in spends:
            ok = tot_e + eps <= cap_eps and tot_d + delta <= cap_delta
            predicted.append(ok)
            if ok:
                tot_e += eps
                tot_d += delta

        ledger = AccountantLedger("x", PrivacyBudget(cap_eps, cap_delta))
        actual = []
        for r, (eps, delta) in enumerate(spends):
            try:
                ledger.charge(r, PrivacyBudget(eps, delta), NoiseScale(1.0, 1.0))
                actual.append(True)
            except BudgetExhausted:
                actual.append(False)
                exhaustions += 1
            assert ledger.total_epsilon <= cap_eps
            assert ledger.total_delta <= cap_delta
        assert actual == predicted
        assert ledger.total_epsilon == tot_e
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("6 accountant soundness",
           f"{sequences} sequences, {exhaustions} exhaustion signals, all "
           f"exactly as predicted, {elapsed:.1f}s")


def _charged_recorder(charges_by_inst, seed, cap_eps):
    from privfed.compliance import AuditRecorder
    recorder = AuditRecorder(seed=seed)
    ledgers = {}
    for inst, epsilons in charges_by_inst.items():
        ledger = AccountantLedger(inst, PrivacyBudget(cap_eps, 0.9))
        for r, eps in enumerate(epsilons):
            entry = ledger.charge(r, PrivacyBudget(eps, 1e-6), NoiseScale(1.0, 1.0))
            recorder.record_budget_charge(r, inst, entry)
        ledgers[inst] = ledger
    return recorder, ledgers


def _build_50_entry_artifacts():
    charges = {f"inst{i}": [0.1 + 0.01 * j for j in range(10)] for i in range(5)}
    recorder, ledgers = _charged_recorder(charges, seed=5, cap_eps=10.0)
    assert len(recorder.chain.entries) == 50
    proof = prove_budget_compliance(recorder, ledgers["inst0"])
    policy = PolicySpec(10.0, 0.0, frozenset({"us-east"}))
    chain_bytes = ("\n".join(recorder.chain.to_lines()) + "\n").encode()
    proof_bytes = ("\n".join(proof.to_lines()) + "\n").encode()
    return chain_bytes, proof_bytes, policy


def test_criterion_7_tamper_evidence_and_verification_speed():
    """Every single-bit flip on a 50-entry chain and its proof is detected;
    verify_proof on a 1000-entry chain with 50 opened records runs < 20 ms."""
    start = time.perf_counter()
    chain_bytes, proof_bytes, policy = _build_50_entry_artifacts()
    assert audit_verdict(chain_bytes, proof_bytes, policy) is Verdict.COMPLIANT

    # fast paths equivalent to audit_verdict, reusing the unmutated side
    pristine_proof = ComplianceProof.parse_lines(split_record_lines(proof_bytes))
    pristine_chain = AuditChain.parse_lines(split_record_lines(chain_bytes))
    assert pristine_chain.verify()
    trusted_head = pristine_chain.head_hash

    def chain_flip_detected(mutated: bytes) -> bool:
        try:
            chain = AuditChain.parse_lines(split_record_lines(mutated))
        except (ChainFormatError, UnicodeDecodeError):
            return True
        if not chain.verify():
            return True
        # a verifying chain with a different head can never validate the proof
        return verify_proof(pristine_proof, chain.head_hash, policy) is Verdict.INVALID

    def proof_flip_detected(mutated: bytes) -> bool:
        try:
            proof = ComplianceProof.parse_lines(split_record_lines(mutated))
        except (ChainFormatError, UnicodeDecodeError):
            return True
        return verify_proof(proof, trusted_head, policy) is Verdict.INVALID

    flips = 0
    for data, detector in ((chain_bytes, chain_flip_detected),
                           (proof_bytes, proof_flip_detected)):
        buffer = bytearray(data)
        for byte_idx in range(len(buffer)):
            original = buffer[byte_idx]
            for bit in range(8):
                buffer[byte_idx] = original ^ (1 << bit)
                assert detector(bytes(buffer)), (
                    f"undetected flip at byte {byte_idx} bit {bit}")
                flips += 1
            buffer[byte_idx] = original

    # spot-check that the fast path agrees with the public entry point
    probe = bytearray(chain_bytes)
    probe[len(probe) // 2] ^= 1
    assert audit_verdict(bytes(probe), proof_bytes, policy) is Verdict.INVALID

    # verification speed on a 1000-entry chain with 50 opened records
    charges = {f"inst{i:02d}": [0.01] * 50 for i in range(20)}
    recorder, ledgers = _charged_recorder(charges, seed=9, cap_eps=10.0)
    big_proof = prove_budget_compliance(recorder, ledgers["inst00"])
    big_policy = PolicySpec(10.0, 0.0, frozenset({"us-east"}))
    head = recorder.chain.head_hash
    verify_proof(big_proof, head, big_policy)  # warm up
    t0 = time.perf_counter()
    verdict = verify_proof(big_proof, head, big_policy)
    verify_ms = (time.perf_counter() - t0) * 1000
    elapsed = time.perf_counter() - start
    assert verdict is Verdict.COMPLIANT
    assert verify_ms < 20.0
    assert elapsed < 60.0
    report("7 tamper evidence",
           f"{flips} bit flips all detected, 1000-entry verify "
           f"{verify_ms:.2f} ms, {elapsed:.1f}s")


def test_criterion_8_governance_effectiveness():
    """Trained controller (<= 800 episodes) cuts violations >= 50% and mean
    leakage >= 25% vs the static baseline over 5 seeds; the learner recovers
    the brute-force optimum on the tiny MDP for >= 9/10 seeds."""
    start = time.perf_counter()

    optimum = TinyMdp(seed=0).optimal_policy_brute_force()
    hits = 0
    for seed in range(10):
        training = train_controller(TinyMdp(seed=seed), episodes=2000, seed=seed)
        hits += tuple(training.policy.greedy(s) for s in range(3)) == optimum
    assert hits >= 9

    weights = RewardWeights(1.0, 2.0, 0.6)
    trained_violations = baseline_violations = 0
    trained_leakage, baseline_leakage = [], []
    for seed in range(5):
        env = GovernanceEnv(ScenarioConfig(), weights, seed=seed)
        training = train_controller(env, episodes=800, seed=seed)
        trained = run_policy(env, training.policy, episodes=3)
        baseline = run_policy(env, static_baseline_policy(), episodes=3)
        trained_violations += trained["violations"]
        baseline_violations += baseline["violations"]
        trained_leakage.append(trained["mean_leakage"])
        baseline_leakage.append(baseline["mean_leakage"])
    violation_reduction = 1 - trained_violations / baseline_violations
    leakage_reduction = 1 - float(np.mean(trained_leakage)) / float(np.mean(baseline_leakage))
    elapsed = time.perf_counter() - start
    assert violation_reduction >= 0.5
    assert leakage_reduction >= 0.25
    assert elapsed < 300.0
    report("8 governance effectiveness",
           f"tiny-MDP {hits}/10 optimal; violations "
           f"{trained_violations} vs {baseline_violations} "
           f"({violation_reduction:.0%}), leakage reduction "
           f"{leakage_reduction:.0%}, {elapsed:.1f}s")


def test_criterion_9_end_to_end_determinism(tmp_path):
    """Same config and seed twice: byte-identical report bodies excluding
    wall-clock fields."""
    start = time.perf_counter()
    config = replace(ExperimentConfig(), attack_enabled=True,
                     governance_enabled=True, governance_episodes=20, seed=42)
    run_experiment(config, tmp_path / "first")
    run_experiment(config, tmp_path / "second")
    first = report_body_lines(tmp_path / "first" / "report.records")
    second = report_body_lines(tmp_path / "second" / "report.records")
    elapsed = time.perf_counter() - start
    assert first == second
    assert len(first) > 10
    for name in ("audit.chain", "audit.policy", "inst00.budget.proof"):
        assert ((tmp_path / "first" / name).read_bytes()
                == (tmp_path / "second" / name).read_bytes())
    assert elapsed < 60.0
    report("9 end-to-end determinism",
           f"{len(first)} records byte-identical (plus audit artifacts), "
           f"{elapsed:.1f}s")
