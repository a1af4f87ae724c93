"""Correctness checks on the artifacts of one ``privfed run``.

Every check reads the files itself and tests a property the output must
have; none compares the output with a stored copy. ``check_run`` returns the
list of problems found, empty when the run is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# Slack allowed on the analytic Gaussian delta bound.
DELTA_TOLERANCE = 1e-12


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json_lines(path: Path) -> list[dict]:
    """Every non-empty line of ``path`` as strict JSON (NaN and Infinity rejected)."""
    records = []
    for number, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line, parse_constant=_reject_constant))
        except ValueError as exc:
            raise ValueError(f"{path.name} line {number}: {exc}") from None
    return records


def _fields(text: str) -> dict[str, str]:
    return dict(token.split("=", 1) for token in text.split() if "=" in token)


def read_ledger(path: Path) -> list[dict[str, float]]:
    """Rows of a ``.ledger`` file: round, epsilon, delta, sigma, clip_norm."""
    lines = [line for line in path.read_text(encoding="utf-8").split("\n") if line.strip()]
    if not lines or not lines[0].startswith("privfed-ledger/"):
        raise ValueError(f"{path.name}: missing ledger header")
    return [{key: float(value) for key, value in _fields(line).items()} for line in lines[1:]]


def read_policy_cap(path: Path) -> float:
    for line in path.read_text(encoding="utf-8").split("\n"):
        key, _, value = line.partition("=")
        if key.strip() == "max_epsilon_per_institution":
            return float(value)
    raise ValueError(f"{path.name}: no max_epsilon_per_institution")


def read_proof_claim(path: Path) -> dict[str, str]:
    """The claim line of a proof: claim, institution, chain_head, aggregate."""
    with path.open(encoding="utf-8") as f:
        f.readline()
        return _fields(f.readline())


def std_normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def analytic_gaussian_delta(epsilon: float, sigma: float, sensitivity: float) -> float:
    """Smallest delta for which N(0, sigma^2) noise on an L2-sensitivity
    ``sensitivity`` query is (epsilon, delta)-DP (Balle & Wang 2018, Thm 8):

        Phi(D/(2s) - e*s/D) - exp(e) * Phi(-D/(2s) - e*s/D).
    """
    a = sensitivity / (2.0 * sigma)
    b = epsilon * sigma / sensitivity
    tail = std_normal_cdf(-a - b)
    second = math.exp(epsilon + math.log(tail)) if tail > 0.0 else 0.0
    return std_normal_cdf(a - b) - second


def check_run(out: Path, spec: dict[str, object]) -> list[str]:
    """Problems with the artifacts in ``out`` of a run configured by ``spec``
    (a workload's config keys; see workloads.WORKLOADS)."""
    problems: list[str] = []
    rounds = int(spec["rounds"])
    institutions = int(spec["institutions.count"])

    try:
        records = strict_json_lines(out / "report.records")
        trace = strict_json_lines(out / "trace.records")
    except (OSError, ValueError) as exc:
        return [f"records: {exc}"]

    meta = [r for r in records if r.get("kind") == "meta"]
    if len(meta) != 1 or meta[0].get("status") != "completed":
        problems.append("report: expected one meta record with status completed")
    finals = [r for r in records if r.get("kind") == "final-metric"]
    if len(finals) != 1 or not 0.0 < finals[0].get("accuracy", -1.0) <= 1.0:
        problems.append("report: expected one final-metric record with an accuracy in (0, 1]")

    local_train = sum(1 for e in trace if e.get("kind") == "local-train")
    if local_train != rounds * institutions:
        problems.append(f"trace: {local_train} local-train events, "
                        f"expected {rounds} x {institutions}")
    aggregates = sorted(e.get("round") for e in trace if e.get("kind") == "aggregate")
    if aggregates != list(range(rounds)):
        problems.append(f"trace: aggregate events for rounds {aggregates}, "
                        f"expected one per round of {rounds}")

    episodes = sum(1 for r in records if r.get("kind") == "governance-episode")
    expected_episodes = int(spec["governance.episodes"]) if spec.get(
        "governance.enabled") == "true" else 0
    if episodes != expected_episodes:
        problems.append(f"report: {episodes} governance-episode records, "
                        f"expected {expected_episodes}")

    problems += _check_budget(out, spec.get("dp.enabled") == "true", institutions)
    return problems


def _check_budget(out: Path, dp_enabled: bool, institutions: int) -> list[str]:
    problems: list[str] = []
    proofs = sorted(out.glob("*.budget.proof"))
    ledgers = sorted(out.glob("*.ledger"))
    expected = institutions if dp_enabled else 0
    if len(proofs) != expected or len(ledgers) != expected:
        return [f"budget: {len(proofs)} budget proofs and {len(ledgers)} ledgers, "
                f"expected {expected} of each"]
    if not proofs:
        return []
    cap = read_policy_cap(out / "audit.policy")
    for proof in proofs:
        claim = read_proof_claim(proof)
        institution = claim.get("institution", "")
        try:
            rows = read_ledger(out / f"{institution}.ledger")
            proved = float(claim["aggregate"])
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"{proof.name}: {exc}")
            continue
        total = 0.0
        for row in rows:
            total += row["epsilon"]
            bound = analytic_gaussian_delta(row["epsilon"], row["sigma"], row["clip_norm"])
            if bound > row["delta"] + DELTA_TOLERANCE:
                problems.append(
                    f"{institution}.ledger round {int(row['round'])}: sigma={row['sigma']!r} "
                    f"gives delta {bound:.3g} at epsilon={row['epsilon']!r}, "
                    f"ledger records {row['delta']!r}")
        if proved != total:
            problems.append(f"{proof.name}: proves total epsilon {proved!r}, "
                            f"ledger sums to {total!r}")
        if max(proved, total) > cap:
            problems.append(f"{proof.name}: total epsilon {max(proved, total)!r} "
                            f"exceeds the policy cap {cap!r}")
    return problems
