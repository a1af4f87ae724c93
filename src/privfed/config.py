"""Experiment configuration: flat dotted-key text files, canonical hashing.

A config file is ``key=value`` lines (``#`` comments allowed). The canonical
serialization sorts keys and normalizes value formatting; its SHA-256 is the
config hash stamped on every report record, so any two runs with equal
hashes are replaying the same experiment. Where a run writes its artifacts
is not part of the config. Each field's annotation names how its value is
parsed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .compliance import PolicySpec
from .dp import PrivacyBudget, build_privatizer
from .errors import ConfigurationError, ConfigValidationError
from .federation import AGG_PLAIN, AGG_SECURE, NetworkConfig
from .tasks import TASK_KINDS


@dataclass(frozen=True)
class ExperimentConfig:
    task_kind: str = "binary-classification"
    task_feature_dim: int = 8
    task_num_samples: int = 2400
    task_noise: float = 0.1

    institutions_count: int = 16
    institutions_partition: str = "iid"
    institutions_sizes: tuple[int, ...] | None = None  # optional unequal n_i

    rounds: int = 2
    local_epochs: int = 5
    lr: float = 1.5

    dp_enabled: bool = True
    dp_epsilon: float = 4.0       # run-level cap, split across rounds
    dp_delta: float = 1e-3        # run-level cap
    dp_clip_norm: float = 0.5

    agg_mode: str = AGG_SECURE

    network_latency_ms: float = 10.0
    network_jitter_ms: float = 2.0
    network_drop_probability: float = 0.0

    governance_enabled: bool = False
    governance_alpha: float = 1.0
    governance_beta: float = 2.0
    governance_gamma: float = 0.6
    governance_episodes: int = 300

    attack_enabled: bool = False
    attack_shadows: int = 6
    attack_probes: int = 200

    policy_max_epsilon: float = 4.0
    policy_min_sigma_floor: float = 0.0
    policy_allowed_regions: tuple[str, ...] = ("us-east", "eu-west")
    policy_max_rounds: int = 1000

    seed: int = 0

    # ---- field <-> dotted key mapping -------------------------------------

    @staticmethod
    def key_for(field_name: str) -> str:
        return field_name.replace("_", ".", 1) if "_" in field_name else field_name

    @classmethod
    def field_for(cls, key: str) -> str:
        return key.replace(".", "_", 1)

    def validate(self) -> None:
        """Collect every violated field and raise once, listing them all."""
        errors = [f"{self.key_for(f.name)}: must be a finite number"
                  for f in fields(self) if f.type == "float"
                  and not math.isfinite(getattr(self, f.name))]
        if self.task_kind not in TASK_KINDS:
            errors.append(f"task.kind: unknown kind {self.task_kind!r}")
        if self.task_feature_dim < 1:
            errors.append("task.feature_dim: must be >= 1")
        if self.task_num_samples < 1:
            errors.append("task.num_samples: must be >= 1")
        if self.task_noise < 0:
            errors.append("task.noise: must be >= 0")
        if self.institutions_count < 1:
            errors.append("institutions.count: must be >= 1")
        if self.institutions_partition not in ("iid", "label-skew"):
            errors.append("institutions.partition: must be iid or label-skew")
        if self.institutions_sizes is not None:
            if len(self.institutions_sizes) != self.institutions_count:
                errors.append("institutions.sizes: must list one size per institution")
            elif sum(self.institutions_sizes) != self.task_num_samples:
                errors.append("institutions.sizes: must sum to task.num_samples")
            elif min(self.institutions_sizes) < 1:
                errors.append("institutions.sizes: every size must be >= 1")
        elif self.task_num_samples < self.institutions_count:
            errors.append("task.num_samples: fewer samples than institutions")
        if self.rounds < 1:
            errors.append("rounds: must be >= 1")
        if self.local_epochs < 0:
            errors.append("local_epochs: must be >= 0")
        if self.lr < 0:
            errors.append("lr: must be >= 0")
        if self.dp_enabled:
            if not self.dp_epsilon > 0:
                errors.append("dp.epsilon: must be > 0")
            if not (0 < self.dp_delta < 1):
                errors.append("dp.delta: must lie in (0, 1)")
            if not self.dp_clip_norm > 0:
                errors.append("dp.clip_norm: must be > 0")
        if self.agg_mode not in (AGG_PLAIN, AGG_SECURE):
            errors.append("agg.mode: must be plain or secure")
        if self.network_latency_ms < 0 or self.network_jitter_ms < 0:
            errors.append("network.latency_ms: latency and jitter must be >= 0")
        if not (0 <= self.network_drop_probability < 1):
            errors.append("network.drop_probability: must lie in [0, 1)")
        if self.governance_enabled:
            if self.governance_episodes < 1:
                errors.append("governance.episodes: must be >= 1")
            if min(self.governance_alpha, self.governance_beta,
                   self.governance_gamma) < 0:
                errors.append("governance.alpha: reward weights must be >= 0")
        if self.attack_enabled:
            if self.attack_shadows < 1:
                errors.append("attack.shadows: must be >= 1")
            if self.attack_probes < 1:
                errors.append("attack.probes: must be >= 1")
        if not self.policy_max_epsilon > 0:
            errors.append("policy.max_epsilon: must be > 0")
        if self.policy_min_sigma_floor < 0:
            errors.append("policy.min_sigma_floor: must be >= 0")
        if not self.policy_allowed_regions:
            errors.append("policy.allowed_regions: must be nonempty")
        if self.policy_max_rounds < 1:
            errors.append("policy.max_rounds: must be >= 1")
        if self.rounds > self.policy_max_rounds:
            errors.append("rounds: exceeds policy.max_rounds")
        if self.dp_enabled and not any(e.startswith(("dp.", "rounds:")) for e in errors):
            sigma = build_privatizer(PrivacyBudget(self.dp_epsilon, self.dp_delta),
                                     self.dp_clip_norm, self.rounds, self.seed).scale.sigma
            if self.policy_min_sigma_floor > sigma:
                errors.append(f"policy.min_sigma_floor: above the sigma {sigma!r} that "
                              f"dp.epsilon={self.dp_epsilon!r} calibrates")
        if not any(e.startswith("policy.") for e in errors):
            try:  # what PolicySpec checks beyond the above: the region tags
                self.policy_spec()
            except ConfigurationError as exc:
                errors.append(f"policy.allowed_regions: {exc}")
        if errors:
            raise ConfigValidationError(errors)

    def policy_spec(self) -> PolicySpec:
        return PolicySpec(
            max_epsilon_per_institution=self.policy_max_epsilon,
            min_sigma_floor=self.policy_min_sigma_floor,
            allowed_regions=frozenset(self.policy_allowed_regions),
            max_rounds=self.policy_max_rounds,
        )

    def network(self) -> NetworkConfig:
        return NetworkConfig(
            latency_ms=self.network_latency_ms,
            jitter_ms=self.network_jitter_ms,
            drop_probability=self.network_drop_probability,
            seed=self.seed,
        )


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def _parse_value(field_name: str, text: str, kind: str):
    """``text`` as a value of the field annotation ``kind`` (one of the
    spellings ExperimentConfig uses)."""
    text = text.strip()
    if kind == "bool":
        if text not in ("true", "false"):
            raise ValueError(f"{field_name}: expected true/false, got {text!r}")
        return text == "true"
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    if kind == "tuple[int, ...] | None":
        if text == "none":
            return None
        return tuple(int(v) for v in text.split(","))
    if kind == "tuple[str, ...]":
        return tuple(v.strip() for v in text.split(",") if v.strip())
    return text


def canonical_text(config: ExperimentConfig) -> str:
    """Sorted dotted keys, normalized values; the hashing form."""
    lines = []
    for f in fields(ExperimentConfig):
        lines.append(f"{ExperimentConfig.key_for(f.name)}={_format_value(getattr(config, f.name))}")
    return "\n".join(sorted(lines)) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(config).encode("utf-8")).hexdigest()


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse key=value lines into a validated config."""
    values = {}
    errors = []
    kinds = {f.name: f.type for f in fields(ExperimentConfig)}
    for i, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            errors.append(f"line {i}: expected key=value")
            continue
        key, value = line.split("=", 1)
        field_name = ExperimentConfig.field_for(key.strip())
        if field_name not in kinds:
            errors.append(f"line {i}: unknown key {key.strip()!r}")
            continue
        try:
            values[field_name] = _parse_value(field_name, value, kinds[field_name])
        except ValueError as exc:
            errors.append(f"line {i}: {exc}")
    if errors:
        raise ConfigValidationError(errors)
    config = ExperimentConfig(**values)
    config.validate()
    return config


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigValidationError([f"cannot read config file: {exc}"]) from exc
    return parse_config_text(text)
