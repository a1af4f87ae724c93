import dataclasses

import pytest

from privfed.config import (
    ExperimentConfig,
    canonical_text,
    config_hash,
    load_config,
    parse_config_text,
)
from privfed.errors import ConfigValidationError


class TestCanonicalForm:
    def test_round_trip(self):
        cfg = ExperimentConfig(seed=99, institutions_sizes=None)
        assert parse_config_text(canonical_text(cfg)) == cfg

    def test_round_trip_with_sizes(self):
        cfg = ExperimentConfig(task_num_samples=60, institutions_count=3,
                               institutions_sizes=(30, 20, 10))
        assert parse_config_text(canonical_text(cfg)) == cfg

    def test_every_field_round_trips_at_a_non_default_value(self):
        values = dict(
            task_kind="regression", task_feature_dim=3, task_num_samples=90,
            institutions_count=3, institutions_partition="label-skew",
            institutions_sizes=(40, 30, 20), rounds=3, local_epochs=7, lr=0.75,
            dp_enabled=False, dp_epsilon=2.5, dp_delta=1e-5, dp_clip_norm=1.25,
            agg_mode="plain", network_latency_ms=5.5, network_drop_probability=0.125,
            governance_enabled=True, governance_episodes=7, attack_enabled=True,
            policy_max_epsilon=6.0, policy_min_sigma_floor=0.1,
            policy_allowed_regions=("eu-west",), seed=77,
        )
        fields = dataclasses.fields(ExperimentConfig)
        assert set(values) == {f.name for f in fields}
        assert {f.type for f in fields} == {
            "str", "int", "float", "bool", "tuple[int, ...] | None", "tuple[str, ...]"}
        cfg = ExperimentConfig(**values)
        for f in fields:
            assert getattr(cfg, f.name) != f.default, f.name
        assert parse_config_text(canonical_text(cfg)) == cfg

    def test_hash_stable_under_key_order(self):
        cfg = ExperimentConfig(seed=5)
        lines = canonical_text(cfg).strip().split("\n")
        shuffled = "\n".join(reversed(lines)) + "\n"
        assert config_hash(parse_config_text(shuffled)) == config_hash(cfg)

    def test_hash_changes_with_any_field(self):
        base = config_hash(ExperimentConfig())
        assert config_hash(ExperimentConfig(seed=1)) != base
        assert config_hash(ExperimentConfig(dp_epsilon=2.0)) != base

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nseed=4\nrounds=3\n"
        cfg = parse_config_text(text)
        assert cfg.seed == 4 and cfg.rounds == 3

    def test_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig(seed=123, agg_mode="plain")
        path = tmp_path / "exp.cfg"
        path.write_text(canonical_text(cfg), encoding="utf-8")
        assert load_config(path) == cfg


class TestValidation:
    def test_valid_default(self):
        ExperimentConfig().validate()

    def test_sigma_floor_must_not_exceed_the_calibrated_sigma(self):
        # the defaults calibrate sigma 0.989; without DP the floor binds nothing
        ExperimentConfig(policy_min_sigma_floor=0.98).validate()
        ExperimentConfig(policy_min_sigma_floor=100.0, dp_enabled=False).validate()
        with pytest.raises(ConfigValidationError) as exc:
            ExperimentConfig(policy_min_sigma_floor=1.0).validate()
        assert [e.split(":")[0] for e in exc.value.errors] == ["policy.min_sigma_floor"]

    def test_all_violations_listed(self):
        cfg = ExperimentConfig(
            task_feature_dim=0,
            institutions_count=0,
            rounds=0,
            dp_epsilon=-1.0,
            network_drop_probability=1.5,
            agg_mode="quantum",
        )
        with pytest.raises(ConfigValidationError) as exc:
            cfg.validate()
        joined = "\n".join(exc.value.errors)
        for key in ("task.feature_dim", "institutions.count", "rounds",
                    "dp.epsilon", "network.drop_probability", "agg.mode"):
            assert key in joined
        assert len(exc.value.errors) >= 6

    def test_sizes_must_sum(self):
        cfg = ExperimentConfig(task_num_samples=100, institutions_count=2,
                               institutions_sizes=(50, 40))
        with pytest.raises(ConfigValidationError):
            cfg.validate()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigValidationError) as exc:
            parse_config_text("myst.key=1\n")
        assert "unknown key" in exc.value.errors[0]

    @pytest.mark.parametrize("text", ["dp.epsilon=4\nseed=1\ndp_epsilon=40\n",
                                      "dp.epsilon=4\nseed=1\ndp.epsilon=4\n"])
    def test_key_set_twice_rejected(self, text):
        # either spelling names the one field; a second line must not win
        with pytest.raises(ConfigValidationError) as exc:
            parse_config_text(text)
        assert exc.value.errors == ["line 3: 'dp.epsilon' already set at line 1"]

    def test_bad_value_rejected_with_line(self):
        with pytest.raises(ConfigValidationError) as exc:
            parse_config_text("rounds=three\n")
        assert "line 1" in exc.value.errors[0]

    def test_rounds_cannot_exceed_policy(self):
        # refused before the sigma check calibrates one budget per round
        cfg = dataclasses.replace(ExperimentConfig(), rounds=1001)
        with pytest.raises(ConfigValidationError) as exc:
            cfg.validate()
        assert exc.value.errors == ["rounds: must be <= 1000"]

    @pytest.mark.parametrize("key,value", [
        ("dp.epsilon", "inf"), ("lr", "nan"), ("dp.clip_norm", "inf"),
        ("network.latency_ms", "inf"), ("dp.delta", "nan"),
        ("policy.min_sigma_floor", "nan"), ("dp.epsilon", "-inf"),
    ])
    def test_non_finite_numbers_rejected(self, key, value):
        with pytest.raises(ConfigValidationError) as exc:
            parse_config_text(f"{key}={value}\n")
        assert f"{key}: must be a finite number" in exc.value.errors

    def test_bad_region_tag_listed(self):
        with pytest.raises(ConfigValidationError) as exc:
            parse_config_text("policy.allowed_regions=us east\n")
        assert exc.value.errors == ["policy.allowed_regions: bad region tag 'us east'"]

    def test_unreadable_file_is_a_validation_error(self, tmp_path):
        with pytest.raises(ConfigValidationError) as exc:
            load_config(tmp_path / "missing.cfg")
        assert "cannot read config file" in exc.value.errors[0]
