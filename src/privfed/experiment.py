"""Experiment pipelines: configured runs, epsilon sweeps, reports.

Every number a report carries is recomputable from (config, seed); the
config hash is stamped on every record. Wall-clock timing is reported but
excluded from the determinism contract; simulated times are deterministic.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import attacks
from .compliance import (
    CLAIM_REGION,
    AuditRecorder,
    prove_budget_compliance,
    prove_compliance,
    verify_proof,
)
from .config import ExperimentConfig, config_hash
from .dp import AccountantLedger, NoiseScale, PrivacyBudget, UpdatePrivatizer, build_privatizer
from .errors import ConfigValidationError, ConfigurationError, RecordsFormatError
from .federation import Federation, TrainingRun
from .governance import (
    GovernanceEnv,
    RewardWeights,
    ScenarioConfig,
    governance_summary,
    train_controller,
)
from .seeding import derive_seed
from .tasks import SyntheticTask, generate_task, sample_dataset
from . import __version__

SETTING_NO_DP = "no-dp"

# the membership attack on a run's final model: shadow models, and member
# probes shared out across the institutions
ATTACK_SHADOWS = 6
ATTACK_PROBES = 200


@dataclass
class ExperimentReport:
    config_hash: str
    seed: int
    status: str
    rounds: list[dict] = field(default_factory=list)
    final_metrics: list[dict] = field(default_factory=list)
    attack_results: list[dict] = field(default_factory=list)
    governance_curve: list[dict] = field(default_factory=list)
    governance_summary: dict | None = None
    compliance_verdicts: list[dict] = field(default_factory=list)
    simulated_ms: float = 0.0
    wall_seconds: float = 0.0  # excluded from the determinism contract

    def to_records(self) -> list[dict]:
        h = self.config_hash
        records = [{"kind": "meta", "config_hash": h, "package": "privfed",
                    "version": __version__, "seed": self.seed, "status": self.status}]
        records += [{"kind": "round", "config_hash": h, **r} for r in self.rounds]
        records += [{"kind": "final-metric", "config_hash": h, **m}
                    for m in self.final_metrics]
        records += [{"kind": "attack", "config_hash": h, **a}
                    for a in self.attack_results]
        records += [{"kind": "governance-episode", "config_hash": h, **c}
                    for c in self.governance_curve]
        if self.governance_summary is not None:
            records.append({"kind": "governance-summary", "config_hash": h,
                            **self.governance_summary})
        records += [{"kind": "compliance", "config_hash": h, **v}
                    for v in self.compliance_verdicts]
        records.append({"kind": "timing-simulated", "config_hash": h,
                        "total_ms": self.simulated_ms})
        records.append({"kind": "timing-wallclock", "config_hash": h,
                        "seconds": self.wall_seconds})
        return records

    @classmethod
    def from_records(cls, records: list[dict]) -> "ExperimentReport":
        meta = next((r for r in records if r["kind"] == "meta"), None)
        if meta is None:
            raise RecordsFormatError("no meta record")
        for r in records:
            _check_record_fields(r)
        report = cls(config_hash=meta["config_hash"], seed=meta["seed"],
                     status=meta["status"])
        for r in records:
            body = {k: v for k, v in r.items() if k not in ("kind", "config_hash")}
            kind = r["kind"]
            if kind == "round":
                report.rounds.append(body)
            elif kind == "final-metric":
                report.final_metrics.append(body)
            elif kind == "attack":
                report.attack_results.append(body)
            elif kind == "governance-episode":
                report.governance_curve.append(body)
            elif kind == "governance-summary":
                report.governance_summary = body
            elif kind == "compliance":
                report.compliance_verdicts.append(body)
            elif kind == "timing-simulated":
                report.simulated_ms = body["total_ms"]
            elif kind == "timing-wallclock":
                report.wall_seconds = body["seconds"]
        return report


# The fields a report is rebuilt and rendered from, per record kind:
# name -> (type, required). Other fields pass through unchecked.
_NUMBER = (int, float)
_METRICS = {"accuracy": (_NUMBER, False), "auroc": (_NUMBER, False),
            "mae": (_NUMBER, False)}
_RECORD_FIELDS = {
    "meta": {"config_hash": (str, True), "seed": (int, True), "status": (str, True)},
    "round": _METRICS,
    "final-metric": {"setting": (str, False), **_METRICS},
    "attack": {"scenario": (str, True), "attack_accuracy": (_NUMBER, True),
               "advantage": (_NUMBER, True), "auc": (_NUMBER, True),
               "num_queries": (int, True)},
    "governance-summary": {
        f"{who}_{what}": (_NUMBER, True) for who in ("trained", "baseline")
        for what in ("violations", "leakage", "reward")},
    "compliance": {"institution": (str, True), "claim": (str, True),
                   "verdict": (str, True)},
    "timing-simulated": {"total_ms": (_NUMBER, True)},
    "timing-wallclock": {"seconds": (_NUMBER, True)},
}


def _check_record_fields(record: dict) -> None:
    """RecordsFormatError unless every known field has its type (no bools)."""
    for name, (kind, required) in _RECORD_FIELDS.get(record["kind"], {}).items():
        if name not in record:
            if required:
                raise RecordsFormatError(f"{record['kind']} record lacks field {name!r}")
            continue
        value = record[name]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise RecordsFormatError(
                f"{record['kind']} record field {name!r} has the wrong type "
                f"({type(value).__name__})")


def records_to_lines(records: list[dict]) -> list[str]:
    return [json.dumps(r, sort_keys=True, allow_nan=False) for r in records]


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _in_float_range(convert):
    """A JSON number parser refusing a number past the float range, which
    would read as inf (``1e999``) or not render (a 400-digit integer)."""
    def parse(text: str):
        if not math.isfinite(float(text)):
            raise ValueError("a number is past the float range")
        return convert(text)
    return parse


def parse_record_lines(lines: list[str]) -> list[dict]:
    records = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line, parse_constant=_refuse_constant,
                                parse_float=_in_float_range(float),
                                parse_int=_in_float_range(int))
        except ValueError as exc:
            raise RecordsFormatError(f"not JSON ({exc})", line_no=line_no) from exc
        if not isinstance(record, dict) or not isinstance(record.get("kind"), str):
            raise RecordsFormatError("expected a JSON object with a string \"kind\"",
                                     line_no=line_no)
        records.append(record)
    return records


# ---------------------------------------------------------------------------


def _eps_label(eps: float) -> str:
    return f"eps={int(eps)}" if float(eps).is_integer() else f"eps={eps}"


def _setting_label(config: ExperimentConfig) -> str:
    return _eps_label(config.dp_epsilon) if config.dp_enabled else SETTING_NO_DP


def _metrics_dict(metrics) -> dict:
    out = {}
    if metrics.accuracy is not None:
        out["accuracy"] = metrics.accuracy
    if metrics.auroc_proxy is not None:
        out["auroc"] = metrics.auroc_proxy
    if metrics.mae is not None:
        out["mae"] = metrics.mae
    return out


def build_federation(config: ExperimentConfig, recorder=None) -> tuple[Federation, SyntheticTask]:
    task = SyntheticTask(
        kind=config.task_kind,
        feature_dim=config.task_feature_dim,
        num_samples=config.task_num_samples,
        seed=derive_seed(config.seed, "task"),
    )
    datasets = generate_task(task, config.institutions_count,
                             config.institutions_partition,
                             sizes=list(config.institutions_sizes)
                             if config.institutions_sizes else None)
    eval_data = sample_dataset(task, max(200, config.task_num_samples // 4), "eval")
    fed = Federation(
        {d.institution_id: d for d in datasets}, eval_data, config.network(),
        session_seed=derive_seed(config.seed, "session"), recorder=recorder,
    )
    return fed, task


def _run_training(config: ExperimentConfig, recorder):
    """(run, federation, task, privatizer or None) of one configured training."""
    fed, task = build_federation(config, recorder)
    dp_policy = None
    if config.dp_enabled:
        cap = PrivacyBudget(config.dp_epsilon, config.dp_delta)
        dp_policy = build_privatizer(cap, config.dp_clip_norm, config.rounds,
                                     derive_seed(config.seed, "dp"))
        fed.ledgers = {pid: AccountantLedger(pid, cap) for pid in fed.datasets}
    run = fed.run_training(
        np.zeros(task.model_dim), config.rounds, config.local_epochs, config.lr,
        dp_policy=dp_policy, agg_mode=config.agg_mode,
    )
    return run, fed, task, dp_policy


def attack_record(scenario: str, result: attacks.AttackResult) -> dict:
    """The ``attack`` record of one membership-inference result."""
    return {
        "scenario": scenario,
        "attack_accuracy": result.attack_accuracy,
        "advantage": result.advantage,
        "auc": result.auc,
        "num_queries": result.num_queries,
        "leakage": attacks.leakage_signal(result),
    }


def _attack_on_run(config: ExperimentConfig, run: TrainingRun, fed: Federation,
                   task: SyntheticTask, dp_policy: UpdatePrivatizer | None) -> dict:
    """Membership inference against the run's final global model."""
    per_inst = max(1, ATTACK_PROBES // len(fed.datasets))
    members = attacks.member_probes([fed.datasets[pid] for pid in sorted(fed.datasets)],
                                    per_inst)
    nonmembers = sample_dataset(task, members.n, "attack-nonmembers")

    rounds_done = max(1, len(run.results))
    dp_scale = None
    if dp_policy is not None:
        dp_scale = NoiseScale(dp_policy.scale.sigma / math.sqrt(len(fed.datasets)),
                              config.dp_clip_norm)
    recipe = attacks.TrainingRecipe(
        rounds=min(rounds_done, 6), epochs_per_round=config.local_epochs,
        lr=config.lr, dp_scale=dp_scale)
    shadows = attacks.train_shadow_models(
        task, ATTACK_SHADOWS, recipe, derive_seed(config.seed, "shadows"),
        samples_per_split=min(members.n, task.num_samples // (2 * ATTACK_SHADOWS)))
    return attack_record("final-model", attacks.run_membership_inference(
        run.final_model, shadows, members, nonmembers))


def run_governance(config: ExperimentConfig, episodes: int, report: ExperimentReport,
                   recorder: AuditRecorder | None = None) -> None:
    """Train the governance controller on the violation-prone scenario for
    ``episodes`` episodes; put its learning curve and its summary against the
    static baseline into ``report``.

    ``recorder`` audits what the controller does, not how it learned: it is
    attached only after training, so its chain holds the greedy evaluation
    rollouts of the summary, trained policy first and then the static
    baseline. A simulated controller's exploration episodes act for no real
    institution, and no proof is built from them."""
    env = GovernanceEnv(ScenarioConfig(), RewardWeights(),
                        seed=derive_seed(config.seed, "governance"))
    training = train_controller(env, episodes, derive_seed(config.seed, "controller"))
    env.recorder = recorder
    report.governance_curve = training.curve
    report.governance_summary = governance_summary(env, training.policy, episodes=2)


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> ExperimentReport:
    """Execute the configured pipeline, write report artifacts, return the report."""
    config.validate()
    started = time.perf_counter()
    h = config_hash(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    recorder = AuditRecorder(seed=derive_seed(config.seed, "audit"))
    run, fed, task, dp_policy = _run_training(config, recorder)
    policy = config.policy_spec()

    report = ExperimentReport(config_hash=h, seed=config.seed, status=run.status)
    for r in run.results:
        report.rounds.append({
            "round": r.round_index,
            **_metrics_dict(r.metrics),
            "wall_ms": r.wall_time_ms,
            "dropped": len(r.dropped_ids),
            "failed": r.round_failed,
        })
    report.simulated_ms = float(sum(r.wall_time_ms for r in run.results))
    if run.results:
        report.final_metrics.append({
            "setting": _setting_label(config),
            "seed": config.seed,
            **_metrics_dict(run.results[-1].metrics),
        })

    # region-transfer audit records for each completed round
    for r in run.results:
        if not r.round_failed:
            for pid in sorted(fed.datasets):
                if pid not in r.dropped_ids:
                    recorder.record_region_transfer(
                        r.round_index, pid, policy.home_region(pid))

    if config.attack_enabled:
        report.attack_results.append(_attack_on_run(config, run, fed, task, dp_policy))

    if config.governance_enabled:
        gov_recorder = AuditRecorder(seed=derive_seed(config.seed, "gov-audit"))
        run_governance(config, config.governance_episodes, report, gov_recorder)
        gov_recorder.chain.seal()
        gov_recorder.chain.write(out / "governance.chain")

    # event trace: one JSON record per simulated network/compute event
    trace_lines = [
        json.dumps({
            "index": e.index, "t_ms": e.t_ms, "kind": e.kind, "round": e.round_index,
            "source": e.source, "target": e.target, "payload": e.payload,
            "note": e.note,
        }, sort_keys=True, allow_nan=False)
        for e in fed.trace
    ]
    (out / "trace.records").write_text("\n".join(trace_lines) + "\n", encoding="utf-8")

    # compliance artifacts: sealed chain, policy, per-institution proofs, verdicts
    recorder.chain.seal()
    recorder.chain.write(out / "audit.chain")
    policy.write(out / "audit.policy")
    head = recorder.chain.head_hash
    for pid in sorted(fed.datasets):
        claims = []
        if config.dp_enabled:
            claims.append(("budget", prove_budget_compliance(recorder, fed.ledgers[pid])))
        claims.append(("region", prove_compliance(recorder, pid, CLAIM_REGION)))
        for label, proof in claims:
            verdict = verify_proof(proof, head, policy)
            proof.write(out / f"{pid}.{label}.proof")
            report.compliance_verdicts.append({
                "institution": pid, "claim": proof.claim, "verdict": verdict.value,
            })
    if config.dp_enabled:
        for pid in sorted(fed.ledgers):
            fed.ledgers[pid].write(out / f"{pid}.ledger")

    report.wall_seconds = time.perf_counter() - started
    emit_report(report, out)
    return report


# ---------------------------------------------------------------------------
# sweep: the utility-under-privacy table


def sweep_settings(grid: tuple[str, ...]) -> list[tuple[str, float | None]]:
    """(setting label, epsilon or None for no DP) per grid token, in grid order.

    Two tokens naming one setting (``4`` and ``4.0``, or ``inf`` and
    ``none``) raise ConfigValidationError: the point would train twice.
    """
    settings = {}
    for token in grid:
        if token in ("inf", "none", SETTING_NO_DP):
            label, eps = SETTING_NO_DP, None
        else:
            try:
                eps = float(token)
            except ValueError:
                eps = math.nan
            if not (eps > 0 and math.isfinite(eps)):
                raise ConfigurationError(f"bad epsilon {token!r} in sweep grid")
            label = _eps_label(eps)
        if label in settings:
            raise ConfigValidationError(
                [f"--grid: {token!r} repeats the setting {label}"])
        settings[label] = eps
    return list(settings.items())


def run_sweep(config: ExperimentConfig, grid: tuple[str, ...], seeds: int,
              out_dir: str | Path) -> ExperimentReport:
    """Utility sweep over privacy settings; grid order is the column order.

    Each grid point runs the training pipeline only (attack and governance
    off) with per-point derived seeds shared across settings, so the
    comparison is paired.
    """
    config.validate()
    settings = sweep_settings(grid)
    started = time.perf_counter()
    report = ExperimentReport(config_hash=config_hash(config), seed=config.seed,
                              status="completed")

    points = {label: replace(
        config, attack_enabled=False, governance_enabled=False,
        dp_enabled=eps is not None,
        dp_epsilon=eps if eps is not None else config.dp_epsilon,
        policy_max_epsilon=max(config.policy_max_epsilon, eps if eps is not None else 0.0),
    ) for label, eps in settings}
    for point in points.values():  # a grid epsilon whose sigma is below the floor
        point.validate()
    for label, point in points.items():
        for s in range(seeds):
            run_seed = derive_seed(config.seed, "sweep", s)
            run, *_ = _run_training(replace(point, seed=run_seed), recorder=None)
            if run.status != "completed":
                report.status = run.status
            entry = {"setting": label, "seed": s,
                     **_metrics_dict(run.results[-1].metrics)} if run.results else {
                "setting": label, "seed": s}
            report.final_metrics.append(entry)
            report.simulated_ms += float(sum(r.wall_time_ms for r in run.results))

    report.wall_seconds = time.perf_counter() - started
    emit_report(report, out_dir)
    return report


def sweep_table(report: ExperimentReport, grid_order: list[str]) -> dict[str, dict]:
    """Aggregate sweep metrics: setting -> metric -> (mean, std)."""
    table: dict[str, dict] = {}
    for label in grid_order:
        rows = [m for m in report.final_metrics if m.get("setting") == label]
        metrics: dict[str, tuple[float, float]] = {}
        for name in ("accuracy", "auroc", "mae"):
            values = [r[name] for r in rows if name in r]
            if values:
                metrics[name] = (float(np.mean(values)), float(np.std(values)))
        table[label] = metrics
    return table


# ---------------------------------------------------------------------------
# report emission


def render_table(report: ExperimentReport) -> str:
    """Tabular text: rows are metrics, columns are the privacy settings in
    first-appearance order (a sweep lists no-dp first, then the epsilons)."""
    lines = [f"privfed report  config={report.config_hash[:16]}  "
             f"seed={report.seed}  status={report.status}", ""]

    settings: list[str] = []
    for m in report.final_metrics:
        label = m.get("setting", "run")
        if label not in settings:
            settings.append(label)
    if settings:
        by_setting = sweep_table(report, settings)
        names = [n for n in ("accuracy", "auroc", "mae")
                 if any(n in by_setting[s] for s in settings)]
        header = ["metric".ljust(12)] + [s.rjust(16) for s in settings]
        lines.append("".join(header))
        for name in names:
            row = [name.ljust(12)]
            for s in settings:
                if name in by_setting[s]:
                    mean, std = by_setting[s][name]
                    row.append(f"{mean:.4f}±{std:.4f}".rjust(16))
                else:
                    row.append("-".rjust(16))
            lines.append("".join(row))
        lines.append("")

    if report.rounds:
        lines.append(f"rounds: {len(report.rounds)}  "
                     f"simulated_ms={report.simulated_ms:.2f}")
        last = report.rounds[-1]
        metric_bits = [f"{k}={last[k]:.4f}" for k in ("accuracy", "auroc", "mae")
                       if k in last]
        lines.append("final round: " + "  ".join(metric_bits))
        lines.append("")

    if report.attack_results:
        lines.append("membership inference:")
        for a in report.attack_results:
            lines.append(f"  {a['scenario']}: accuracy={a['attack_accuracy']:.3f} "
                         f"advantage={a['advantage']:+.3f} auc={a['auc']:.3f} "
                         f"queries={a['num_queries']}")
        lines.append("")

    if report.governance_summary:
        g = report.governance_summary
        lines.append("governance (trained vs static baseline):")
        lines.append(f"  violations {g['trained_violations']} vs {g['baseline_violations']}")
        lines.append(f"  leakage    {g['trained_leakage']:.3f} vs {g['baseline_leakage']:.3f}")
        lines.append(f"  reward     {g['trained_reward']:+.3f} vs {g['baseline_reward']:+.3f}")
        lines.append("")

    if report.compliance_verdicts:
        lines.append("compliance verdicts:")
        for v in report.compliance_verdicts:
            lines.append(f"  {v['institution']} {v['claim']}: {v['verdict']}")
        lines.append("")

    lines.append(f"wall-clock: {report.wall_seconds:.2f}s (not covered by determinism)")
    return "\n".join(lines) + "\n"


def emit_report(report: ExperimentReport, out_dir: str | Path) -> None:
    """Write ``report.records`` and ``report.txt`` into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.records").write_text(
        "\n".join(records_to_lines(report.to_records())) + "\n", encoding="utf-8")
    (out / "report.txt").write_text(render_table(report), encoding="utf-8")
