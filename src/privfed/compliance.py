"""Tamper-evident audit chain and verifiable compliance proofs.

Every auditable event (budget charge, policy decision, region transfer,
governance action) is committed into an append-only hash chain. The chain
stores only salted commitments, never payloads; a compliance proof opens
exactly the target institution's records for one claim, together with the
full header chain, so a verifier holding nothing but the trusted head and
the policy can check:

  * the header chain re-hashes to the trusted head,
  * every opened (salt, payload) re-hashes to its committed digest,
  * no record of the claimed kind was omitted (each header carries a
    per-institution running count, so under-disclosure is evident),
  * the claimed aggregate (total epsilon, minimum sigma, region set)
    matches a recomputation from the opened payloads.

This gives the verification contract of a zero-knowledge audit with an
honestly weaker disclosure model: the auditor does learn the opened values
for the institution under audit, and nothing about any other institution.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import ChainFormatError, ConfigurationError, ProtocolError, ProvabilityError
from .seeding import derive_seed, salt_for

HASH_NAME = "sha256"
DIGEST_LEN = 32
GENESIS = bytes(DIGEST_LEN)

CHAIN_HEADER = f"privfed-audit-chain/1 {HASH_NAME}"
PROOF_HEADER = f"privfed-compliance-proof/1 {HASH_NAME}"
POLICY_HEADER = "privfed-policy/1"

RECORD_KINDS = ("budget-charge", "policy-decision", "region-transfer", "governance-action")

CLAIM_BUDGET = "budget-within-cap"
CLAIM_SIGMA = "sigma-above-floor"
CLAIM_REGION = "region-compliant"
CLAIMS = (CLAIM_BUDGET, CLAIM_SIGMA, CLAIM_REGION)
_CLAIM_KIND = {CLAIM_BUDGET: "budget-charge",
               CLAIM_SIGMA: "budget-charge",
               CLAIM_REGION: "region-transfer"}

_IDENT = re.compile(r"^[A-Za-z0-9._-]+$")
# a proof's aggregate: a float's repr, a comma list of regions, or "-"
_AGGREGATE = re.compile(r"[A-Za-z0-9._,+-]+")


class Verdict(Enum):
    COMPLIANT = "compliant"
    NON_COMPLIANT = "non-compliant"
    INVALID = "invalid"


def split_record_lines(text: str | bytes) -> list[str]:
    """Strict newline splitting: only ``\\n`` separates records, so a
    corrupted separator byte never parses as a clean boundary."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")  # UnicodeDecodeError signals corruption
    return text.split("\n")


class RecordFile:
    """A file of records that subclasses spell with ``to_lines`` and read back
    with ``parse_lines``. Both directions use bytes, because text mode
    rewrites line ends and the readers accept only ``\\n``."""

    def write(self, path) -> None:
        Path(path).write_bytes(("\n".join(self.to_lines()) + "\n").encode("utf-8"))

    @classmethod
    def read(cls, path):
        return cls.parse_lines(split_record_lines(Path(path).read_bytes()))


@dataclass(frozen=True)
class PolicySpec(RecordFile):
    max_epsilon_per_institution: float
    min_sigma_floor: float
    allowed_regions: frozenset[str]
    max_rounds: int

    def __post_init__(self):
        if not self.max_epsilon_per_institution > 0:
            raise ConfigurationError("max_epsilon_per_institution must be > 0")
        if self.min_sigma_floor < 0:
            raise ConfigurationError("min_sigma_floor must be >= 0")
        if not self.allowed_regions:
            raise ConfigurationError("allowed_regions must be nonempty")
        for region in self.allowed_regions:
            if not _IDENT.match(region):
                raise ConfigurationError(f"bad region tag {region!r}")
        if self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")

    def to_lines(self) -> list[str]:
        return [
            POLICY_HEADER,
            f"max_epsilon_per_institution={self.max_epsilon_per_institution!r}",
            f"min_sigma_floor={self.min_sigma_floor!r}",
            f"allowed_regions={','.join(sorted(self.allowed_regions))}",
            f"max_rounds={self.max_rounds}",
        ]

    def home_region(self, institution_id: str) -> str:
        """The allowed region an institution's in-policy transfers go to."""
        regions = sorted(self.allowed_regions)
        return regions[derive_seed(0, "home-region", institution_id) % len(regions)]

    @classmethod
    def parse_lines(cls, lines: list[str]) -> "PolicySpec":
        lines = _file_records(lines, POLICY_HEADER, "policy")
        fields = {}
        for i, line in enumerate(lines[1:], start=2):
            if "=" not in line:
                raise ChainFormatError("expected key=value", line_no=i)
            key, value = line.split("=", 1)
            fields[key] = value
        try:
            spec = cls(
                max_epsilon_per_institution=float(fields["max_epsilon_per_institution"]),
                min_sigma_floor=float(fields["min_sigma_floor"]),
                allowed_regions=frozenset(fields["allowed_regions"].split(",")),
                max_rounds=int(fields["max_rounds"]),
            )
        except (KeyError, ValueError, ConfigurationError) as exc:
            raise ChainFormatError(f"bad policy file: {exc}") from exc
        if spec.to_lines() != lines:
            raise ChainFormatError("policy file is not in its written form")
        return spec


def _file_records(lines: list[str], header: str, what: str) -> list[str]:
    """A file's lines as the writer wrote them: the exact header line first.

    One final newline may end the file (it splits off one empty last
    string, dropped here); any other empty line is left for the record
    parser to refuse, so no second spelling of a file reads the same.
    """
    if len(lines) > 1 and lines[-1] == "":
        lines = lines[:-1]
    if not lines or lines[0] != header:
        raise ChainFormatError(f"missing {what} header", line_no=1)
    return lines


def canonical_payload(payload: dict) -> str:
    """Compact JSON with sorted keys; the exact string that gets committed."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def commitment(salt: bytes, payload_str: str) -> bytes:
    return hashlib.sha256(salt + payload_str.encode("utf-8")).digest()


def _entry_hash(sequence_no: int, round_index: int, institution_id: str,
                record_kind: str, inst_kind_index: int,
                payload_commitment: bytes, prev_hash: bytes) -> bytes:
    material = (
        f"{sequence_no}|{round_index}|{institution_id}|{record_kind}|"
        f"{inst_kind_index}|{payload_commitment.hex()}|{prev_hash.hex()}"
    )
    return hashlib.sha256(material.encode("utf-8")).digest()


@dataclass(slots=True)
class AuditEntry:
    # Not frozen: a frozen dataclass's __init__ costs about six times as
    # much, and readers build one entry per line of every chain and proof.
    sequence_no: int
    round_index: int
    institution_id: str
    record_kind: str
    inst_kind_index: int  # running count of this (institution, kind) pair
    payload_commitment: bytes
    prev_hash: bytes
    entry_hash: bytes

    def to_line(self) -> str:
        return (
            f"{self.sequence_no}|{self.round_index}|{self.institution_id}|"
            f"{self.record_kind}|{self.inst_kind_index}|"
            f"{self.payload_commitment.hex()}|{self.prev_hash.hex()}|{self.entry_hash.hex()}"
        )


# Readers accept each field only in the one spelling the writers produce, so
# a line re-serialises to exactly the bytes that were read and an entry hash
# covers those bytes: no second spelling of a verified chain or proof exists.

def _parse_uint(text: str, line_no: int) -> int:
    """Canonical decimal: ASCII digits, no sign, separator, space or leading zero."""
    if text.isdigit() and text.isascii() and (text[0] != "0" or text == "0"):
        try:
            return int(text)
        except ValueError:  # longer than the interpreter's int-string limit
            pass
    raise ChainFormatError(f"non-canonical integer {text!r}", line_no=line_no)


def _parse_hex(text: str, line_no: int, what: str) -> bytes:
    """Non-empty bytes written as lowercase hex pairs with no whitespace."""
    try:
        data = bytes.fromhex(text)
    except ValueError:
        data = b""
    if not data or data.hex() != text:
        raise ChainFormatError(f"malformed {what}", line_no=line_no)
    return data


def _parse_digest(text: str, line_no: int, what: str = "digest") -> bytes:
    """A digest: exactly ``2 * DIGEST_LEN`` lowercase hex characters."""
    if len(text) != 2 * DIGEST_LEN:
        raise ChainFormatError(f"malformed {what}", line_no=line_no)
    return _parse_hex(text, line_no, what)


def _parse_entry_line(line: str, line_no: int) -> AuditEntry:
    parts = line.split("|")
    if len(parts) != 8:
        raise ChainFormatError("expected 8 pipe-separated fields", line_no=line_no)
    seq, round_index, institution_id, record_kind, inst_kind_index, commit, prev, digest = parts
    if not _IDENT.match(institution_id):
        raise ChainFormatError("bad institution id", line_no=line_no)
    if record_kind not in RECORD_KINDS:
        raise ChainFormatError(f"unknown record kind {record_kind!r}", line_no=line_no)
    return AuditEntry(
        _parse_uint(seq, line_no),
        _parse_uint(round_index, line_no),
        institution_id,
        record_kind,
        _parse_uint(inst_kind_index, line_no),
        _parse_digest(commit, line_no),
        _parse_digest(prev, line_no),
        _parse_digest(digest, line_no),
    )


def _verified_head(entries) -> bytes | None:
    """Head hash of ``entries`` if every sequence number, prev link,
    per-(institution, kind) count and entry hash is consistent, else None."""
    prev = GENESIS
    counters: dict[tuple[str, str], int] = {}
    for i, e in enumerate(entries):
        if e.sequence_no != i or e.prev_hash != prev:
            return None
        key = (e.institution_id, e.record_kind)
        if e.inst_kind_index != counters.get(key, 0):
            return None
        counters[key] = e.inst_kind_index + 1
        expected = _entry_hash(e.sequence_no, e.round_index, e.institution_id,
                               e.record_kind, e.inst_kind_index,
                               e.payload_commitment, e.prev_hash)
        if expected != e.entry_hash:
            return None
        prev = e.entry_hash
    return prev


class AuditChain(RecordFile):
    """Append-only hash chain; payloads live outside as salted commitments."""

    def __init__(self):
        self.entries: list[AuditEntry] = []
        self._counters: dict[tuple[str, str], int] = {}
        self._used_salts: set[bytes] = set()

    @property
    def head_hash(self) -> bytes:
        return self.entries[-1].entry_hash if self.entries else GENESIS

    def append(self, round_index: int, institution_id: str, record_kind: str,
               payload: dict, salt: bytes) -> AuditEntry:
        if record_kind not in RECORD_KINDS:
            raise ProtocolError(f"unknown record kind {record_kind!r}")
        if not _IDENT.match(institution_id):
            raise ProtocolError(f"bad institution id {institution_id!r}")
        if salt in self._used_salts:
            raise ProtocolError("salt reuse within a chain")
        key = (institution_id, record_kind)
        inst_kind_index = self._counters.get(key, 0)
        payload_str = canonical_payload(payload)
        commit = commitment(salt, payload_str)
        seq = len(self.entries)
        prev = self.head_hash
        entry = AuditEntry(
            sequence_no=seq,
            round_index=round_index,
            institution_id=institution_id,
            record_kind=record_kind,
            inst_kind_index=inst_kind_index,
            payload_commitment=commit,
            prev_hash=prev,
            entry_hash=_entry_hash(seq, round_index, institution_id, record_kind,
                                   inst_kind_index, commit, prev),
        )
        self.entries.append(entry)
        self._counters[key] = inst_kind_index + 1
        self._used_salts.add(salt)
        return entry

    def verify(self) -> bool:
        """True iff every hash link and the head are consistent."""
        return _verified_head(self.entries) is not None

    def entries_for(self, institution_id: str, record_kind: str) -> list[AuditEntry]:
        return [e for e in self.entries
                if e.institution_id == institution_id and e.record_kind == record_kind]

    def to_lines(self) -> list[str]:
        return [CHAIN_HEADER] + [e.to_line() for e in self.entries]

    @classmethod
    def parse_lines(cls, lines: list[str]) -> "AuditChain":
        """Structural parse only; call verify() to check hash consistency."""
        lines = _file_records(lines, CHAIN_HEADER, "audit-chain")
        chain = cls()
        counters = chain._counters
        for i, line in enumerate(lines[1:], start=2):
            e = _parse_entry_line(line, i)
            chain.entries.append(e)
            key = (e.institution_id, e.record_kind)
            counters[key] = counters.get(key, 0) + 1
        return chain


class AuditRecorder:
    """Prover-side recorder: appends committed records and retains the salts
    and payloads needed to open them later. Salts are derived from a private
    seed, unique per sequence number."""

    def __init__(self, seed: int):
        self.chain = AuditChain()
        self.seed = seed
        self.opened_store: dict[int, tuple[bytes, str]] = {}  # seq -> (salt, payload)

    def _append(self, round_index: int, institution_id: str, kind: str, payload: dict):
        salt = salt_for(self.seed, "audit", len(self.chain.entries))
        entry = self.chain.append(round_index, institution_id, kind, payload, salt)
        self.opened_store[entry.sequence_no] = (salt, canonical_payload(payload))
        return entry

    def record_budget_charge(self, round_index: int, institution_id: str, ledger_entry):
        payload = {
            "institution": institution_id,
            "round": ledger_entry.round_index,
            "epsilon": ledger_entry.epsilon_spent,
            "delta": ledger_entry.delta_spent,
            "sigma": ledger_entry.sigma,
            "clip_norm": ledger_entry.clip_norm,
            "heuristic": ledger_entry.heuristic_regime,
        }
        return self._append(round_index, institution_id, "budget-charge", payload)

    def record_region_transfer(self, round_index: int, institution_id: str, region: str):
        payload = {"institution": institution_id, "round": round_index, "region": region}
        return self._append(round_index, institution_id, "region-transfer", payload)

    def record_policy_decision(self, round_index: int, institution_id: str,
                               decision: str, detail: str = ""):
        payload = {"institution": institution_id, "round": round_index,
                   "decision": decision, "detail": detail}
        return self._append(round_index, institution_id, "policy-decision", payload)

    def record_governance_action(self, round_index: int, action: str, epoch: int):
        payload = {"institution": "governance", "round": round_index,
                   "action": action, "epoch": epoch}
        return self._append(round_index, "governance", "governance-action", payload)


@dataclass(frozen=True)
class ComplianceProof(RecordFile):
    claim: str
    institution_id: str
    chain_head: bytes
    headers: tuple[AuditEntry, ...]          # full header chain, no payloads
    opened: tuple[tuple[int, bytes, str], ...]  # (sequence_no, salt, payload_str)
    aggregate: str

    def to_lines(self) -> list[str]:
        lines = [PROOF_HEADER, _claim_line(self.claim, self.institution_id,
                                           self.chain_head.hex(), self.aggregate)]
        lines += ["H|" + h.to_line() for h in self.headers]
        lines += [
            f"O|{idx}|{salt.hex()}|{payload.encode('utf-8').hex()}"
            for idx, salt, payload in self.opened
        ]
        return lines

    @classmethod
    def parse_lines(cls, lines: list[str]) -> "ComplianceProof":
        lines = _file_records(lines, PROOF_HEADER, "proof")
        if len(lines) < 2:
            raise ChainFormatError("missing claim line", line_no=2)
        fields = {}
        for token in lines[1].split(" "):
            if "=" not in token:
                raise ChainFormatError("bad claim line", line_no=2)
            key, value = token.split("=", 1)
            fields[key] = value
        missing = {"claim", "institution", "chain_head", "aggregate"} - set(fields)
        if missing:
            raise ChainFormatError(f"claim line missing {sorted(missing)}", line_no=2)
        if fields["claim"] not in CLAIMS:
            raise ChainFormatError(f"unknown claim {fields['claim']!r}", line_no=2)
        if not (_IDENT.fullmatch(fields["institution"])
                and _AGGREGATE.fullmatch(fields["aggregate"])):
            raise ChainFormatError("bad institution or aggregate", line_no=2)
        if lines[1] != _claim_line(fields["claim"], fields["institution"],
                                   fields["chain_head"], fields["aggregate"]):
            raise ChainFormatError("claim line is not in its written form", line_no=2)
        headers: list[AuditEntry] = []
        opened: list[tuple[int, bytes, str]] = []
        for i, line in enumerate(lines[2:], start=3):
            if line.startswith("H|"):
                headers.append(_parse_entry_line(line[2:], i))
            elif line.startswith("O|"):
                parts = line[2:].split("|")
                if len(parts) != 3:
                    raise ChainFormatError("expected O|index|salt|payload", line_no=i)
                idx = _parse_uint(parts[0], i)
                salt = _parse_digest(parts[1], i, "salt")
                try:
                    payload = _parse_hex(parts[2], i, "payload").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ChainFormatError(f"bad opened record: {exc}", line_no=i) from exc
                opened.append((idx, salt, payload))
            else:
                raise ChainFormatError("expected H| or O| record", line_no=i)
        return cls(
            claim=fields["claim"],
            institution_id=fields["institution"],
            chain_head=_parse_digest(fields["chain_head"], 2),
            headers=tuple(headers),
            opened=tuple(opened),
            aggregate=fields["aggregate"],
        )


def _claim_line(claim: str, institution_id: str, chain_head_hex: str,
                aggregate: str) -> str:
    return (f"claim={claim} institution={institution_id} "
            f"chain_head={chain_head_hex} aggregate={aggregate}")


def _compute_aggregate(claim: str, payloads: list[dict]) -> str:
    if claim == CLAIM_BUDGET:
        total = 0.0
        for p in payloads:
            total += float(p["epsilon"])
        return repr(total)
    if claim == CLAIM_SIGMA:
        return repr(min((float(p["sigma"]) for p in payloads), default=float("inf")))
    if claim == CLAIM_REGION:
        return ",".join(sorted({str(p["region"]) for p in payloads})) or "-"
    raise ConfigurationError(f"unknown claim {claim!r}")


def prove_compliance(recorder: AuditRecorder, institution_id: str, claim: str) -> ComplianceProof:
    """Open exactly the target institution's records relevant to one claim."""
    if claim not in CLAIMS:
        raise ConfigurationError(f"unknown claim {claim!r}")
    chain = recorder.chain
    kind = _CLAIM_KIND[claim]
    relevant = chain.entries_for(institution_id, kind)
    opened = []
    payloads = []
    for entry in relevant:
        stored = recorder.opened_store.get(entry.sequence_no)
        if stored is None:
            raise ProvabilityError(
                f"no salt retained for entry {entry.sequence_no}; cannot open")
        salt, payload_str = stored
        if commitment(salt, payload_str) != entry.payload_commitment:
            raise ProvabilityError(
                f"stored payload for entry {entry.sequence_no} does not match "
                "its commitment (tampering or lost salts)")
        opened.append((entry.sequence_no, salt, payload_str))
        payloads.append(json.loads(payload_str))
    return ComplianceProof(
        claim=claim,
        institution_id=institution_id,
        chain_head=chain.head_hash,
        headers=tuple(chain.entries),
        opened=tuple(opened),
        aggregate=_compute_aggregate(claim, payloads),
    )


def prove_budget_compliance(recorder: AuditRecorder, ledger) -> ComplianceProof:
    """Budget claim with a ledger cross-check: every ledger entry must have a
    matching budget-charge commitment in the chain.

    Proof construction succeeds even when the totals breach the policy; an
    honest prover reports the breach and the verifier renders the verdict.
    """
    institution_id = ledger.institution_id
    relevant = recorder.chain.entries_for(institution_id, "budget-charge")
    if len(relevant) != len(ledger.entries):
        raise ProvabilityError(
            f"ledger has {len(ledger.entries)} charges but chain commits "
            f"{len(relevant)} for {institution_id}")
    for chain_entry, ledger_entry in zip(relevant, ledger.entries):
        stored = recorder.opened_store.get(chain_entry.sequence_no)
        if stored is None:
            raise ProvabilityError("missing salt for a committed charge")
        payload = json.loads(stored[1])
        if (payload["round"] != ledger_entry.round_index
                or payload["epsilon"] != ledger_entry.epsilon_spent):
            raise ProvabilityError("ledger/chain mismatch on a budget charge")
    return prove_compliance(recorder, institution_id, CLAIM_BUDGET)


def verify_proof(proof: ComplianceProof, trusted_head: bytes,
                 policy: PolicySpec) -> Verdict:
    """Recompute everything from the proof alone plus the trusted head.

    INVALID on any hash, coverage, or aggregate inconsistency; otherwise the
    claim's predicate against the policy decides compliant/non-compliant.
    """
    # 1. header chain re-hashes to the trusted head
    if _verified_head(proof.headers) != trusted_head or proof.chain_head != trusted_head:
        return Verdict.INVALID

    # 2. opened records re-hash to their commitments and belong to the claim
    kind = _CLAIM_KIND[proof.claim]
    opened_indices = [idx for idx, _, _ in proof.opened]
    if len(set(opened_indices)) != len(opened_indices):
        return Verdict.INVALID
    payloads = []
    for idx, salt, payload_str in proof.opened:
        if not (0 <= idx < len(proof.headers)):
            return Verdict.INVALID
        header = proof.headers[idx]
        if header.institution_id != proof.institution_id or header.record_kind != kind:
            return Verdict.INVALID
        if commitment(salt, payload_str) != header.payload_commitment:
            return Verdict.INVALID
        try:
            payload = json.loads(payload_str)
        except ValueError:
            return Verdict.INVALID
        if payload.get("institution") != proof.institution_id:
            return Verdict.INVALID
        payloads.append(payload)

    # 3. coverage: every relevant header must be opened (no under-disclosure)
    relevant = {h.sequence_no for h in proof.headers
                if h.institution_id == proof.institution_id and h.record_kind == kind}
    if relevant != set(opened_indices):
        return Verdict.INVALID

    # 4. aggregate recomputation must match the stated aggregate
    try:
        recomputed = _compute_aggregate(proof.claim, payloads)
    except (KeyError, ValueError, TypeError):
        return Verdict.INVALID
    if recomputed != proof.aggregate:
        return Verdict.INVALID

    # 5. the claim's predicate against the policy
    if proof.claim == CLAIM_BUDGET:
        total = float(proof.aggregate)
        ok = total <= policy.max_epsilon_per_institution
    elif proof.claim == CLAIM_SIGMA:
        ok = float(proof.aggregate) >= policy.min_sigma_floor
    else:
        regions = set() if proof.aggregate == "-" else set(proof.aggregate.split(","))
        ok = regions <= policy.allowed_regions
    return Verdict.COMPLIANT if ok else Verdict.NON_COMPLIANT


def audit_verdict(chain_text: str | bytes, proof_text: str | bytes,
                  policy: PolicySpec) -> Verdict:
    """File-level verification: any parse or hash failure is INVALID.

    The trusted head is taken from the auditor's copy of the chain after the
    chain itself verifies.
    """
    try:
        chain = AuditChain.parse_lines(split_record_lines(chain_text))
        proof = ComplianceProof.parse_lines(split_record_lines(proof_text))
    except (ChainFormatError, UnicodeDecodeError):
        return Verdict.INVALID
    if not chain.verify():
        return Verdict.INVALID
    return verify_proof(proof, chain.head_hash, policy)
