import math

import numpy as np
import pytest

from privfed.dp import (
    AccountantLedger,
    NoiseScale,
    PrivacyBudget,
    build_privatizer,
    calibrate_sigma,
    clip,
    epsilon_for_sigma,
    gaussian_mechanism,
    privatize,
    schedule_round_budgets,
)
from privfed.errors import (
    BudgetExhausted,
    ConfigurationError,
    LedgerError,
    NumericError,
)


class TestClip:
    def test_inside_ball_unchanged(self):
        g = np.array([0.3, 0.4])  # norm 0.5
        assert (clip(g, 1.0) == g).all()

    def test_outside_ball_scaled(self):
        g = np.array([6.0, 8.0])  # norm 10
        assert clip(g, 1.0) == pytest.approx([0.6, 0.8], abs=1e-15)

    def test_norm_never_exceeds_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            dim = int(rng.integers(1, 40))
            g = rng.normal(0, rng.uniform(0.1, 50), dim)
            c = rng.uniform(0.01, 10)
            assert np.linalg.norm(clip(g, c)) <= c + 1e-12

    def test_zero_vector_passes_through(self):
        assert (clip(np.zeros(4), 1.0) == np.zeros(4)).all()

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            clip(np.array([1.0, np.inf]), 1.0)
        with pytest.raises(ConfigurationError):
            clip(np.ones(3), 0.0)


class TestGaussianMechanism:
    def test_sigma_zero_is_identity(self):
        g = np.array([1.0, -2.0, 3.0])
        out = gaussian_mechanism(g, NoiseScale(0.0, 1.0), seed=1)
        assert (out == g).all()

    def test_moments(self):
        # Monte-Carlo moment oracle: sample mean ~ 0, sample std ~ sigma
        scale = NoiseScale(1.0, 1.0)
        draws = np.stack([
            gaussian_mechanism(np.zeros(4), scale, seed=s) for s in range(20_000)
        ])
        assert np.abs(draws.mean(axis=0)).max() < 0.02
        assert np.abs(draws.std(axis=0) - 1.0).max() < 0.02

    def test_seed_determinism(self):
        g = np.ones(6)
        scale = NoiseScale(2.0, 1.0)
        a = gaussian_mechanism(g, scale, seed=7)
        b = gaussian_mechanism(g, scale, seed=7)
        c = gaussian_mechanism(g, scale, seed=8)
        assert (a == b).all()
        assert not (a == c).all()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            NoiseScale(-0.1, 1.0)


class TestCalibrateSigma:
    def test_closed_form_value(self):
        # oracle: direct evaluation of clip * sqrt(2 ln(1.25/delta)) / eps
        scale = calibrate_sigma(PrivacyBudget(1.0, 1e-5), 1.0)
        assert scale.sigma == pytest.approx(4.844805262605389, rel=1e-12)
        assert not scale.heuristic_regime

    def test_linear_in_clip_norm(self):
        b = PrivacyBudget(0.7, 1e-5)
        assert calibrate_sigma(b, 2.0).sigma == pytest.approx(
            2 * calibrate_sigma(b, 1.0).sigma, rel=1e-12)

    def test_inverse_linear_in_epsilon(self):
        assert calibrate_sigma(PrivacyBudget(0.5, 1e-5), 1.0).sigma == pytest.approx(
            2 * calibrate_sigma(PrivacyBudget(1.0, 1e-5), 1.0).sigma, rel=1e-12)

    def test_heuristic_flag_above_one(self):
        assert calibrate_sigma(PrivacyBudget(2.0, 1e-5), 1.0).heuristic_regime
        assert calibrate_sigma(PrivacyBudget(4.0, 1e-5), 1.0).heuristic_regime

    def test_epsilon_for_sigma_inverts(self):
        scale = calibrate_sigma(PrivacyBudget(0.8, 1e-5), 1.5)
        assert epsilon_for_sigma(scale.sigma, 1e-5, 1.5) == pytest.approx(0.8, rel=1e-12)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            PrivacyBudget(0.0, 1e-5)
        with pytest.raises(ConfigurationError):
            PrivacyBudget(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            PrivacyBudget(1.0, 0.0)


class TestAccountant:
    def test_charges_within_cap_succeed(self):
        ledger = AccountantLedger("a", PrivacyBudget(2.0, 1e-2))
        scale = NoiseScale(1.0, 1.0)
        for r in range(3):
            ledger.charge(r, PrivacyBudget(0.5, 1e-5), scale)
        assert ledger.total_epsilon == pytest.approx(1.5)
        assert len(ledger.entries) == 3

    def test_exceeding_charge_rejected_and_ledger_unchanged(self):
        ledger = AccountantLedger("a", PrivacyBudget(2.0, 1e-2))
        scale = NoiseScale(1.0, 1.0)
        for r in range(3):
            ledger.charge(r, PrivacyBudget(0.5, 1e-5), scale)
        with pytest.raises(BudgetExhausted) as exc:
            ledger.charge(3, PrivacyBudget(0.6, 1e-5), scale)
        assert exc.value.institution_id == "a"
        assert ledger.total_epsilon == pytest.approx(1.5)
        assert len(ledger.entries) == 3

    def test_ledgers_are_independent(self):
        cap = PrivacyBudget(1.0, 1e-2)
        scale = NoiseScale(1.0, 1.0)
        a = AccountantLedger("a", cap)
        b = AccountantLedger("b", cap)
        a.charge(0, PrivacyBudget(0.4, 1e-5), scale)
        b.charge(0, PrivacyBudget(0.9, 1e-5), scale)
        a.charge(1, PrivacyBudget(0.4, 1e-5), scale)
        assert a.total_epsilon == pytest.approx(0.8)
        assert b.total_epsilon == pytest.approx(0.9)

    def test_out_of_order_round_rejected(self):
        ledger = AccountantLedger("a", PrivacyBudget(2.0, 1e-2))
        scale = NoiseScale(1.0, 1.0)
        ledger.charge(5, PrivacyBudget(0.1, 1e-5), scale)
        with pytest.raises(LedgerError):
            ledger.charge(5, PrivacyBudget(0.1, 1e-5), scale)
        with pytest.raises(LedgerError):
            ledger.charge(2, PrivacyBudget(0.1, 1e-5), scale)

    def test_budget_monotone_never_exceeds_cap(self):
        # property sweep over random charge sequences
        rng = np.random.default_rng(42)
        for _ in range(500):
            cap_eps = float(rng.uniform(0.5, 5.0))
            ledger = AccountantLedger("x", PrivacyBudget(cap_eps, 0.5))
            prev_total = 0.0
            for r in range(int(rng.integers(1, 15))):
                spend = PrivacyBudget(float(rng.uniform(0.01, 1.0)), 1e-6)
                try:
                    ledger.charge(r, spend, NoiseScale(1.0, 1.0))
                except BudgetExhausted:
                    pass
                assert ledger.total_epsilon >= prev_total
                assert ledger.total_epsilon <= cap_eps
                prev_total = ledger.total_epsilon

    def test_delta_cap_enforced(self):
        ledger = AccountantLedger("a", PrivacyBudget(100.0, 2e-5))
        scale = NoiseScale(1.0, 1.0)
        ledger.charge(0, PrivacyBudget(0.1, 1e-5), scale)
        ledger.charge(1, PrivacyBudget(0.1, 1e-5), scale)
        with pytest.raises(BudgetExhausted):
            ledger.charge(2, PrivacyBudget(0.1, 1e-5), scale)

    def test_serialization_round_trip(self, tmp_path):
        ledger = AccountantLedger("inst07", PrivacyBudget(3.0, 1e-2))
        for r in range(4):
            ledger.charge(r, PrivacyBudget(0.25, 1e-4),
                          calibrate_sigma(PrivacyBudget(0.25, 1e-4), 1.0))
        path = tmp_path / "ledger.txt"
        ledger.write(path)
        loaded = AccountantLedger.read(path)
        assert loaded.institution_id == "inst07"
        assert loaded.total_epsilon == ledger.total_epsilon
        assert loaded.entries == ledger.entries


    @pytest.mark.parametrize("bad_line", [
        "round=1 epsilon=0.25",                  # missing fields
        "round=x epsilon=0.25 delta=1e-4 sigma=1.0 clip_norm=1.0 heuristic=0",
        "round=1 epsilon=-1 delta=1e-4 sigma=1.0 clip_norm=1.0 heuristic=0",
        "garbage",
    ])
    def test_malformed_line_raises_ledger_error(self, tmp_path, bad_line):
        ledger = AccountantLedger("inst07", PrivacyBudget(3.0, 1e-2))
        ledger.charge(0, PrivacyBudget(0.25, 1e-4), NoiseScale(1.0, 1.0))
        path = tmp_path / "ledger.txt"
        path.write_text("\n".join(ledger.to_lines() + [bad_line]) + "\n")
        with pytest.raises(LedgerError, match="line 3"):
            AccountantLedger.read(path)


def written_ledger() -> list[str]:
    """The lines of a two-entry ledger file as ``write`` produces them."""
    ledger = AccountantLedger("inst07", PrivacyBudget(1.0, 1e-2))
    ledger.charge(0, PrivacyBudget(0.5, 1e-4), NoiseScale(1.0, 1.0))
    ledger.charge(2, PrivacyBudget(0.25, 1e-4), NoiseScale(1.0, 1.0, True))
    return ledger.to_lines()


class TestLedgerReader:
    def test_written_file_reads_back_exactly(self, tmp_path):
        path = tmp_path / "a.ledger"
        path.write_text("\n".join(written_ledger()) + "\n")
        assert AccountantLedger.read(path).to_lines() == written_ledger()
        # the final newline is optional, as in the audit readers
        assert AccountantLedger.parse_lines(written_ledger()).to_lines() == written_ledger()

    def test_over_cap_file_is_malformed_not_exhausted(self, tmp_path):
        lines = written_ledger()
        lines[0] = lines[0].replace("cap_epsilon=1.0", "cap_epsilon=0.6")
        path = tmp_path / "a.ledger"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match="^line 3: .*cap"):
            AccountantLedger.read(path)

    @pytest.mark.parametrize("edit, bad_line", [
        (lambda ls: [ls[0] + "\r"] + ls[1:], 1),                      # \r\n ending
        (lambda ls: [ls[0], ""] + ls[1:], 2),                         # blank line
        (lambda ls: [ls[0], "\r"] + ls[1:], 2),                       # \r\n blank line
        (lambda ls: ls[:1] + [ls[1].replace(" ", "  ")] + ls[2:], 2),  # space runs
        (lambda ls: ls[:1] + [" " + ls[1]] + ls[2:], 2),              # leading space
        (lambda ls: ls[:2] + [ls[2] + " "], 3),                       # trailing space
        (lambda ls: [ls[0].replace(" ", "  ", 1)] + ls[1:], 1),       # header spaces
        (lambda ls: ls[:2] + [ls[2].replace("cumulative_epsilon=0.75",
                                            "cumulative_epsilon=99.0")], 3),
        (lambda ls: ls[:1] + [ls[1].replace("epsilon=0.5 ", "epsilon=5e-1 ")] + ls[2:], 2),
        (lambda ls: ls[:1] + [ls[1].replace("round=0", "round=+0")] + ls[2:], 2),
        (lambda ls: ls[:1] + [ls[1].replace("heuristic=0", "heuristic=2")] + ls[2:], 2),
        (lambda ls: ls[:1] + [ls[1].replace("sigma=1.0", "sigma=nan")] + ls[2:], 2),
        (lambda ls: ls[:2] + [ls[2].replace("round=2", "round=0")], 3),  # round order
        (lambda ls: ls + [""], 4),                                    # second final newline
        (lambda ls: [], 1),                                           # empty file
    ])
    def test_other_spellings_raise_ledger_error_naming_the_line(self, tmp_path, edit,
                                                                bad_line):
        path = tmp_path / "a.ledger"
        path.write_text("\n".join(edit(written_ledger())) + "\n")
        with pytest.raises(LedgerError, match=f"^line {bad_line}: "):
            AccountantLedger.read(path)


class TestSchedule:
    def test_schedule_fits_cap_exactly(self):
        # awkward division cases where naive repeated addition overshoots
        for cap_eps, rounds in [(4.0, 5), (2.0, 3), (1.0, 7), (0.5, 9), (6.0, 24)]:
            spends = schedule_round_budgets(PrivacyBudget(cap_eps, 1e-3), rounds)
            total = 0.0
            for s in spends:
                total += s.epsilon
            assert total <= cap_eps
            assert total == pytest.approx(cap_eps, rel=1e-12)

    def test_schedule_charges_all_succeed(self):
        cap = PrivacyBudget(4.0, 1e-3)
        spends = schedule_round_budgets(cap, 5)
        ledger = AccountantLedger("a", cap)
        for r, s in enumerate(spends):
            ledger.charge(r, s, NoiseScale(1.0, 1.0))
        assert ledger.total_epsilon == cap.epsilon


class TestPrivatizer:
    def test_privatized_update_is_global_plus_bounded_noisy_delta(self):
        dp = build_privatizer(PrivacyBudget(0.8, 1e-3), clip_norm=1.0,
                              rounds=4, seed=3)
        g = np.zeros(5)
        local = np.full(5, 10.0)
        out = dp.privatize(g, local, 0, "a")
        # delta was clipped to norm 1 before noise
        assert np.linalg.norm(out - g) < 1.0 + 6 * dp.scale.sigma * math.sqrt(5)

    def test_privatize_deterministic_per_round_and_institution(self):
        dp = build_privatizer(PrivacyBudget(0.8, 1e-3), clip_norm=1.0,
                              rounds=4, seed=3)
        g, local = np.zeros(3), np.ones(3)
        assert (dp.privatize(g, local, 1, "a") == dp.privatize(g, local, 1, "a")).all()
        assert not (dp.privatize(g, local, 1, "a") == dp.privatize(g, local, 2, "a")).all()
        assert not (dp.privatize(g, local, 1, "a") == dp.privatize(g, local, 1, "b")).all()

    def test_privatize_is_global_plus_noised_clipped_delta(self):
        scale = NoiseScale(0.3, 0.5)
        g, local = np.array([1.0, -2.0, 0.5]), np.array([4.0, 2.0, 0.5])
        expected = g + gaussian_mechanism(clip(local - g, 0.5), scale, seed=9)
        assert (privatize(g, local, scale, seed=9) == expected).all()


def test_noise_cross_coordinate_independence():
    scale = NoiseScale(1.0, 1.0)
    draws = np.stack([
        gaussian_mechanism(np.zeros(4), scale, seed=s) for s in range(20_000)
    ])
    corr = np.corrcoef(draws, rowvar=False)
    off_diag = corr[~np.eye(4, dtype=bool)]
    assert np.abs(off_diag).max() < 0.02
