"""The auditor's job over one run's artifacts, and the tamper controls.

Every proof is checked with its own ``privfed verify-audit`` call, which
re-reads the chain and the policy as the CLI does. A tamper control hands
``verify-audit`` a damaged copy of the chain or of one proof and passes only
when the copy is refused (exit 2, invalid, or 3, unparseable).
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

REFUSED = (2, 3)


def verify_audit(main, chain: Path, proof: Path, policy: Path) -> int:
    """Exit code of ``privfed verify-audit``, its printing captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["verify-audit", "--chain", str(chain), "--proof", str(proof),
                     "--policy", str(policy)])


def flip_bit(data: bytes, seed: int, label: str) -> bytes:
    """``data`` with one bit flipped, chosen by (seed, label)."""
    rng = random.Random(f"{seed}/{label}")
    index = rng.randrange(len(data))
    out = bytearray(data)
    out[index] ^= 1 << rng.randrange(8)
    return bytes(out)


def prefix_zero(data: bytes, seed: int, label: str) -> bytes:
    """The chain with ``0`` prefixed to the first entry's sequence number.

    The entry is fixed, not seed-chosen: the chain means the same, and a
    verifier that hashes the bytes it read must still refuse it.
    """
    header, sep, rest = data.partition(b"\n")
    return header + sep + b"0" + rest


@dataclass(frozen=True)
class Control:
    name: str
    target: str  # "chain" or "proof": which file the damaged copy replaces
    mutate: Callable[[bytes, int, str], bytes]


CONTROLS = (
    Control("chain-bit-flip", "chain", flip_bit),
    Control("proof-bit-flip", "proof", flip_bit),
    Control("chain-leading-zero", "chain", prefix_zero),
)


def run_control(main, control: Control, files: dict[str, Path], work: Path,
                seed: int) -> tuple[bool, int]:
    """(passed, exit code): passed when verify-audit refuses the damaged copy.

    ``files`` holds the pristine ``chain``, ``proof`` and ``policy`` paths.
    """
    pristine = files[control.target]
    damaged = work / f"{control.name}{pristine.suffix}"
    damaged.write_bytes(control.mutate(pristine.read_bytes(), seed, control.name))
    paths = dict(files, **{control.target: damaged})
    code = verify_audit(main, paths["chain"], paths["proof"], paths["policy"])
    return code in REFUSED, code


@dataclass
class AuditOutcome:
    proofs: int = 0
    proofs_failed: int = 0
    controls_failed: list[str] = field(default_factory=list)
    governance_chain_ok: bool | None = None  # None when no governance chain was written


def audit(main, chain_cls, out: Path, work: Path, seed: int) -> AuditOutcome:
    """The timed audit phase: every proof, the governance chain, the controls."""
    outcome = AuditOutcome()
    chain, policy = out / "audit.chain", out / "audit.policy"
    proofs = sorted(out.glob("*.proof"))
    for proof in proofs:
        if verify_audit(main, chain, proof, policy) != 0:
            outcome.proofs_failed += 1
    outcome.proofs = len(proofs)

    governance = out / "governance.chain"
    if governance.exists():
        outcome.governance_chain_ok = chain_cls.read(governance).verify()

    if not proofs:  # nothing to damage: every control fails
        outcome.controls_failed = [control.name for control in CONTROLS]
        return outcome
    work.mkdir(parents=True, exist_ok=True)
    files = {"chain": chain, "policy": policy,
             "proof": proofs[random.Random(f"{seed}/proof").randrange(len(proofs))]}
    for control in CONTROLS:
        passed, _ = run_control(main, control, files, work, seed)
        if not passed:
            outcome.controls_failed.append(control.name)
    return outcome
