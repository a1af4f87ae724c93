"""Command-line experiment runner and audit verifier.

Subcommands:
  run           execute one configured pipeline and write its report
  sweep         utility table across privacy settings (columns: no-dp, eps=...)
  attack        engineered overfit membership-inference study
  govern-train  train the governance controller on the violation-prone scenario
  verify-audit  standalone audit verification (chain + proof + policy only)
  report        re-render a table from a saved records file

Exit codes: run distinguishes success (0), budget exhaustion (4), and round
failure (5); config validation problems (an unreadable config file, an
unknown key, a field set on two lines, more than 1000 rounds, non-finite
numbers and a sigma floor above the calibrated sigma included),
counts below 1 (``--pairs``, ``--seeds``, ``governance.episodes``), a bad ``--grid``
epsilon, one whose sigma is below the floor, and two ``--grid`` tokens
naming one setting exit 2 after listing every violated field; an output
path that cannot be written (``--out`` naming a file) exits 2 with one
``cannot write output:`` line. verify-audit exits 0 compliant, 1
non-compliant, 2 invalid or tampered, 3 unparseable input (reporting the
first malformed line; a missing policy value is reported at the line where
it belongs); report exits 3 on an unreadable or malformed records file,
wrong-typed fields included. No command reads a ``*.ledger`` file. Any
command exits 6, with one ``numeric failure:`` line and no numpy warning,
on training that diverged to non-finite weights, an update outside secure
aggregation's fixed-point range (an encoding that overflows to inf included),
or an overflowed simulated clock.

``main`` may be called many times in one process, as an auditor checking
proof after proof does. It builds its argument parser on the first call and
reuses it, so a later call prints and exits exactly as a first one would.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .attacks import STRONG_SIGMA, overfit_study, untrained_study
from .compliance import (
    AuditChain,
    ComplianceProof,
    PolicySpec,
    Verdict,
    verify_proof,
)
from .config import ExperimentConfig, config_hash, load_config
from .dp import NoiseScale
from .errors import (
    ChainFormatError,
    ConfigurationError,
    ConfigValidationError,
    NumericError,
    RecordsFormatError,
)
from .experiment import (
    ExperimentReport,
    attack_record,
    emit_report,
    parse_record_lines,
    render_table,
    run_experiment,
    run_governance,
    run_sweep,
)
from .seeding import derive_seed

STATUS_EXIT = {"completed": 0, "budget-exhausted": 4, "round-failure": 5}


def _load_config(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    return config if args.seed is None else replace(config, seed=args.seed)


def _out_dir(args) -> Path:
    """``--out``, else ``PRIVFED_OUT``, else ``out``."""
    return Path(args.out or os.environ.get("PRIVFED_OUT") or "out")


def cmd_run(args) -> int:
    config = _load_config(args)
    out = _out_dir(args)
    report = run_experiment(config, out)
    print(f"config {config_hash(config)[:16]} status={report.status} "
          f"rounds={len(report.rounds)} out={out}")
    return STATUS_EXIT.get(report.status, 0)


def cmd_sweep(args) -> int:
    if args.seeds < 1:
        raise ConfigValidationError(["--seeds: must be >= 1"])
    config = _load_config(args)
    grid = tuple(token.strip() for token in args.grid.split(","))
    report = run_sweep(config, grid, args.seeds, _out_dir(args))
    sys.stdout.write(render_table(report))
    return STATUS_EXIT.get(report.status, 0)


def cmd_attack(args) -> int:
    """Overfit study: no-DP vs strong-DP advantage, plus calibration (no config)."""
    if args.pairs < 1:
        raise ConfigValidationError(["--pairs: must be >= 1"])
    base_seed = args.seed if args.seed is not None else 0
    strong = NoiseScale(STRONG_SIGMA, 1.0)
    rows = []
    for pair in range(args.pairs):
        seed = derive_seed(base_seed, "attack-pair", pair)
        plain = overfit_study(seed)
        noised = overfit_study(seed, dp_scale=strong)
        rows.append((plain, noised))
    calibration = [untrained_study(derive_seed(base_seed, "attack-cal", s))
                   for s in range(args.pairs)]

    report = ExperimentReport(config_hash="attack-study", seed=base_seed,
                              status="completed")
    for i, (plain, noised) in enumerate(rows):
        for label, res in (("overfit-no-dp", plain), ("overfit-strong-dp", noised)):
            report.attack_results.append(attack_record(f"{label}-{i}", res))
    mean_plain = float(np.mean([p.advantage for p, _ in rows]))
    mean_noised = float(np.mean([n.advantage for _, n in rows]))
    mean_cal = float(np.mean([c.advantage for c in calibration]))
    emit_report(report, _out_dir(args))
    print(f"no-dp mean advantage      {mean_plain:+.3f}")
    print(f"strong-dp mean advantage  {mean_noised:+.3f}")
    print(f"untrained calibration     {mean_cal:+.3f}")
    reduction = 1.0 - (mean_noised / mean_plain) if mean_plain > 0 else 0.0
    print(f"advantage reduction       {reduction:.0%}")
    return 0


def cmd_govern_train(args) -> int:
    config = _load_config(args)
    episodes = config.governance_episodes
    if episodes < 1:
        raise ConfigValidationError(["governance.episodes: must be >= 1"])
    report = ExperimentReport(config_hash=config_hash(config), seed=config.seed,
                              status="completed")
    run_governance(config, episodes, report)
    emit_report(report, _out_dir(args))
    g = report.governance_summary
    print(f"episodes={episodes} "
          f"violations {g['trained_violations']} vs {g['baseline_violations']} "
          f"leakage {g['trained_leakage']:.3f} vs {g['baseline_leakage']:.3f}")
    return 0


def _input_failure(exc: Exception) -> int:
    """Exit code 3, after saying why an input file could not be read."""
    if isinstance(exc, OSError):
        print(f"cannot read input: {exc}", file=sys.stderr)
    elif isinstance(exc, UnicodeDecodeError):
        print(f"parse failure: undecodable bytes ({exc})", file=sys.stderr)
    else:
        print(f"parse failure: {exc}", file=sys.stderr)
    return 3


def cmd_verify_audit(args) -> int:
    """Standalone verification: reads only the chain, proof, and policy files."""
    try:
        policy = PolicySpec.read(args.policy)
        chain = AuditChain.read(args.chain)
        proof = ComplianceProof.read(args.proof)
    except (ChainFormatError, OSError, UnicodeDecodeError) as exc:
        return _input_failure(exc)
    if not chain.verify():
        print("verdict: invalid (audit chain fails hash verification)")
        return 2
    verdict = verify_proof(proof, chain.head_hash, policy)
    print(f"verdict: {verdict.value} "
          f"(claim={proof.claim} institution={proof.institution_id} "
          f"aggregate={proof.aggregate})")
    return {Verdict.COMPLIANT: 0, Verdict.NON_COMPLIANT: 1, Verdict.INVALID: 2}[verdict]


def cmd_report(args) -> int:
    try:
        lines = Path(args.records).read_text(encoding="utf-8").split("\n")
        report = ExperimentReport.from_records(parse_record_lines(lines))
    except (RecordsFormatError, OSError, UnicodeDecodeError) as exc:
        return _input_failure(exc)
    text = render_table(report)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``privfed`` parser, built on the first call and then reused:
    each ``parse_args`` makes a fresh namespace from the defaults."""
    parser = argparse.ArgumentParser(
        prog="privfed",
        description="deterministic privacy-preserving federated learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="seed (default: config's, else 0)")
        p.add_argument("--out", type=str, default=None,
                       help="output directory (default: $PRIVFED_OUT, else out)")

    p_run = sub.add_parser("run", help="execute one configured pipeline")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="utility sweep over privacy settings")
    common(p_sweep)
    p_sweep.add_argument("--grid", type=str, default="inf,4,2",
                         help="comma list of epsilon settings; inf = no DP")
    p_sweep.add_argument("--seeds", type=int, default=5)
    p_sweep.set_defaults(func=cmd_sweep)

    p_attack = sub.add_parser("attack", help="overfit membership-inference study")
    common(p_attack)
    p_attack.add_argument("--pairs", type=int, default=10)
    p_attack.set_defaults(func=cmd_attack)

    p_gov = sub.add_parser("govern-train", help="train the governance controller")
    common(p_gov)
    p_gov.set_defaults(func=cmd_govern_train)
    for p in (p_run, p_sweep, p_gov):
        p.add_argument("--config", type=str, default=None, help="config file path")

    p_verify = sub.add_parser("verify-audit", help="verify chain + proof + policy")
    p_verify.add_argument("--chain", required=True)
    p_verify.add_argument("--proof", required=True)
    p_verify.add_argument("--policy", required=True)
    p_verify.set_defaults(func=cmd_verify_audit)

    p_report = sub.add_parser("report", help="re-render a saved records file")
    p_report.add_argument("--records", required=True)
    p_report.add_argument("--out", type=str, default=None)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigValidationError as exc:
        print("config validation failed:", file=sys.stderr)
        for error in exc.errors:
            print(f"  {error}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 6
    except OSError as exc:
        # each command maps its own input-read failures, so this is an output write
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
