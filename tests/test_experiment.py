import numpy as np
import pytest

from privfed.compliance import AuditChain, ComplianceProof, PolicySpec, Verdict, verify_proof
from privfed.config import ExperimentConfig, config_hash
from privfed.errors import ConfigValidationError, RecordsFormatError
from privfed.experiment import (
    ExperimentReport,
    parse_record_lines,
    records_to_lines,
    render_table,
    run_experiment,
    run_sweep,
    sweep_table,
)
from privfed.governance import ScenarioConfig

from support import report_body_lines


def small_config(**overrides):
    base = dict(
        task_num_samples=400, institutions_count=4, rounds=3, local_epochs=2,
        lr=1.0, dp_epsilon=4.0, governance_enabled=False, attack_enabled=False,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_minimal_single_institution_run(self, tmp_path):
        cfg = small_config(task_num_samples=100, institutions_count=1, rounds=1,
                           dp_enabled=False, agg_mode="plain")
        report = run_experiment(cfg, tmp_path)
        assert report.status == "completed"
        assert len(report.rounds) == 1
        assert report.config_hash == config_hash(cfg)

    def test_report_sections_cover_enabled_modules(self, tmp_path):
        cfg = small_config(attack_enabled=True, governance_enabled=True,
                           governance_episodes=5)
        report = run_experiment(cfg, tmp_path)
        assert report.rounds
        assert report.final_metrics
        assert report.attack_results          # attack enabled -> present
        assert report.governance_curve        # governance enabled -> present
        assert report.governance_summary is not None
        assert report.compliance_verdicts     # dp enabled -> budget verdicts
        claims = {v["claim"] for v in report.compliance_verdicts}
        assert "budget-within-cap" in claims and "region-compliant" in claims

    def test_governance_chain_holds_the_evaluation_rollouts_then_a_seal(self, tmp_path):
        # two policies (trained, static baseline) x two greedy episodes; the
        # training episodes write nothing
        run_experiment(small_config(governance_enabled=True, governance_episodes=2), tmp_path)
        chain = AuditChain.read(tmp_path / "governance.chain")
        kinds = [e.record_kind for e in chain.entries]
        assert kinds.count("governance-action") == 2 * 2 * ScenarioConfig().horizon_steps
        assert kinds.index("chain-seal") == len(kinds) - 1
        assert chain.verify()

    def test_attack_section_omitted_when_disabled(self, tmp_path):
        report = run_experiment(small_config(), tmp_path)
        assert report.attack_results == []
        kinds = {r["kind"] for r in report.to_records()}
        assert "attack" not in kinds

    def test_budget_exhaustion_status(self, tmp_path):
        # the run's schedule fits its own cap by construction, so exhaustion is
        # forced with a cap tighter than the schedule the privatizer carries
        from privfed.dp import AccountantLedger, PrivacyBudget, build_privatizer
        from privfed.experiment import build_federation
        cfg = small_config()
        fed, task = build_federation(cfg)
        dp = build_privatizer(PrivacyBudget(3.0, 1e-3), cfg.dp_clip_norm, 3, 0)
        fed.ledgers = {pid: AccountantLedger(pid, PrivacyBudget(1.0, 1e-3))
                       for pid in fed.datasets}
        run = fed.run_training(np.zeros(task.model_dim), 3, cfg.local_epochs,
                               cfg.lr, dp_policy=dp)
        assert run.status == "budget-exhausted"
        assert len(run.results) == 1  # round 0 spends 1.0 exactly, round 1 denied

    def test_artifacts_written_and_verifiable(self, tmp_path):
        cfg = small_config()
        run_experiment(cfg, tmp_path)
        chain = AuditChain.read(tmp_path / "audit.chain")
        assert chain.verify()
        policy = PolicySpec.read(tmp_path / "audit.policy")
        proof = ComplianceProof.read(tmp_path / "inst00.budget.proof")
        assert verify_proof(proof, chain.head_hash, policy) is Verdict.COMPLIANT

    def test_invalid_config_lists_fields(self, tmp_path):
        cfg = small_config(rounds=0, dp_epsilon=-2.0)
        with pytest.raises(ConfigValidationError) as exc:
            run_experiment(cfg, tmp_path)
        assert len(exc.value.errors) >= 2

    def test_deterministic_report_bodies(self, tmp_path):
        cfg = small_config(attack_enabled=True)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        assert (report_body_lines(tmp_path / "a" / "report.records")
                == report_body_lines(tmp_path / "b" / "report.records"))


class TestRecordsRoundTrip:
    def test_parse_emit_inverse(self, tmp_path):
        cfg = small_config(attack_enabled=True, governance_enabled=True,
                           governance_episodes=4)
        report = run_experiment(cfg, tmp_path)
        lines = records_to_lines(report.to_records())
        parsed = ExperimentReport.from_records(parse_record_lines(lines))
        assert parsed == report

    def test_every_record_carries_config_hash(self, tmp_path):
        cfg = small_config()
        report = run_experiment(cfg, tmp_path)
        for record in report.to_records():
            assert record["config_hash"] == report.config_hash


class TestSweep:
    def test_grid_order_is_column_order(self, tmp_path):
        cfg = small_config(task_num_samples=800, institutions_count=8, rounds=2)
        report = run_sweep(cfg, ("inf", "4", "2"), seeds=2, out_dir=tmp_path)
        seen = []
        for m in report.final_metrics:
            if m["setting"] not in seen:
                seen.append(m["setting"])
        assert seen == ["no-dp", "eps=4", "eps=2"]
        text = (tmp_path / "report.txt").read_text()
        header = next(l for l in text.split("\n") if l.startswith("metric"))
        assert header.index("no-dp") < header.index("eps=4") < header.index("eps=2")

    def test_three_rows_per_setting_and_seeds(self, tmp_path):
        cfg = small_config(task_num_samples=800, institutions_count=8, rounds=2)
        report = run_sweep(cfg, ("inf", "2"), seeds=3, out_dir=tmp_path)
        assert len(report.final_metrics) == 6
        table = sweep_table(report, ["no-dp", "eps=2"])
        assert "accuracy" in table["no-dp"]

    def test_render_contains_attack_only_when_present(self, tmp_path):
        report = run_experiment(small_config(), tmp_path)
        text = render_table(report)
        assert "membership inference" not in text


class TestRecordsAreStrictJson:
    def test_non_finite_value_is_not_written(self):
        with pytest.raises(ValueError):
            records_to_lines([{"kind": "round", "accuracy": float("nan")}])

    def test_non_finite_constant_is_not_read(self):
        with pytest.raises(RecordsFormatError):
            parse_record_lines(['{"kind": "round", "accuracy": Infinity}'])

    @pytest.mark.parametrize("number", ["1e999", "-1e999", "1" + "0" * 400])
    def test_number_past_float_range_is_not_read(self, number):
        with pytest.raises(RecordsFormatError, match="line 1:"):
            parse_record_lines([f'{{"kind": "round", "accuracy": {number}}}'])

    @pytest.mark.parametrize("record", [
        {"kind": "round", "accuracy": "high"},
        {"kind": "final-metric", "accuracy": "high"},
        {"kind": "final-metric", "setting": 4},
        {"kind": "attack", "attack_accuracy": 0.5, "advantage": 0.0, "auc": 0.5,
         "num_queries": 10},
        {"kind": "attack", "scenario": "x", "attack_accuracy": 0.5, "advantage": 0.0,
         "auc": 0.5, "num_queries": 1.5},
        {"kind": "compliance", "institution": "a", "claim": "c", "verdict": True},
        {"kind": "timing-simulated", "total_ms": None},
        {"kind": "governance-summary", "trained_violations": 1},
    ])
    def test_wrong_typed_or_missing_field_rejected(self, record):
        meta = {"kind": "meta", "config_hash": "h", "seed": 1, "status": "completed"}
        with pytest.raises(RecordsFormatError):
            ExperimentReport.from_records([meta, record])

    def test_meta_seed_must_be_an_integer(self):
        with pytest.raises(RecordsFormatError):
            ExperimentReport.from_records(
                [{"kind": "meta", "config_hash": "h", "seed": "1", "status": "completed"}])
