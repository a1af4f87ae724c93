"""Tamper-evident audit chain and verifiable compliance proofs.

Every auditable event (budget charge, policy decision, region transfer,
governance action) is committed into an append-only hash chain. The chain
stores only salted commitments, never payloads. Before proofs are issued the
chain is sealed: a ``chain-seal`` entry commits to a key table, an RFC 9162
Merkle tree over the sorted (institution, kind) keys of every earlier entry,
one leaf per key holding its record count and a digest of its entry hashes
in order (the tree commitments of Crosby & Wallach, USENIX Security 2009).
A seal rebuilds its table from the entries before it, so it costs
O(entries before it) hashing, and verifying a chain of n entries with s
seals costs O(n * s); the chains privfed writes carry at most one seal.

A compliance proof opens one claim for one institution. It carries the seal,
the audited key's headers and openings, and the key's leaf path, so a
verifier holding nothing but the trusted head and the policy can check:

  * the seal re-hashes to the trusted head,
  * the opened headers re-hash, are the key's records 0..k-1, and rebuild
    its leaf, whose audit path and table size rebuild the seal's commitment
    (no record of the key was omitted: the leaf fixes the count),
  * every opened (salt, payload) re-hashes to its header's commitment,
  * the claimed aggregate (total epsilon or region set)
    matches a recomputation from the opened payloads.

Disclosure: the auditor learns the audited key's headers and opened values,
the table size and the sibling digests on the leaf's path, and nothing else
about any other institution. A key with no records is proved absent by the
one or two neighbouring leaves that bracket it in the sorted table, so an
absence proof also discloses those neighbours' keys and record counts.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from .errors import ChainFormatError, ConfigurationError, ProtocolError, ProvabilityError
from .seeding import derive_seed, salt_for
from .wire import COORDINATOR

HASH_NAME = "sha256"
DIGEST_LEN = 32
GENESIS = bytes(DIGEST_LEN)

CHAIN_HEADER = f"privfed-audit-chain/1 {HASH_NAME}"
PROOF_HEADER = f"privfed-compliance-proof/2 {HASH_NAME}"
POLICY_HEADER = "privfed-policy/2"

RECORD_KINDS = ("budget-charge", "policy-decision", "region-transfer", "governance-action")
# written only by AuditChain.seal, as the coordinator's; the readers accept it
SEAL_KIND = "chain-seal"
_ENTRY_KINDS = frozenset(RECORD_KINDS + (SEAL_KIND,))

CLAIM_BUDGET = "budget-within-cap"
CLAIM_REGION = "region-compliant"
CLAIMS = (CLAIM_BUDGET, CLAIM_REGION)
_CLAIM_KIND = {CLAIM_BUDGET: "budget-charge", CLAIM_REGION: "region-transfer"}

_IDENT = re.compile(r"[A-Za-z0-9._-]+")  # always fullmatch
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
    with ``parse_lines``, which keeps a line only if ``to_lines`` would spell
    what was read from it as exactly that line (``read_as_written``). Both
    directions use bytes, because text mode rewrites line ends."""

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

    def __post_init__(self):
        if not 0 < self.max_epsilon_per_institution < math.inf:
            raise ConfigurationError("max_epsilon_per_institution must be a finite real > 0")
        if not 0 <= self.min_sigma_floor < math.inf:
            raise ConfigurationError("min_sigma_floor must be a finite real >= 0")
        if not self.allowed_regions:
            raise ConfigurationError("allowed_regions must be nonempty")
        for region in self.allowed_regions:
            if not _IDENT.fullmatch(region):
                raise ConfigurationError(f"bad region tag {region!r}")

    def to_lines(self) -> list[str]:
        return [
            POLICY_HEADER,
            f"max_epsilon_per_institution={self.max_epsilon_per_institution!r}",
            f"min_sigma_floor={self.min_sigma_floor!r}",
            f"allowed_regions={','.join(sorted(self.allowed_regions))}",
        ]

    def home_region(self, institution_id: str) -> str:
        """The allowed region an institution's in-policy transfers go to."""
        regions = sorted(self.allowed_regions)
        return regions[derive_seed(0, "home-region", institution_id) % len(regions)]

    @classmethod
    def parse_lines(cls, lines: list[str]) -> "PolicySpec":
        """The policy whose ``to_lines()`` is exactly ``lines``. Each value is
        put into a valid stand-in policy as its line is read, so the one
        ``__post_init__`` that refuses it names that line; a missing value
        names the line where it belongs."""
        lines = file_records(lines)
        as_written(lines[0], POLICY_HEADER, 1)
        for i, line in enumerate(lines[1:], start=2):
            if "=" not in line:
                raise ChainFormatError("expected key=value", line_no=i)
        spec = _STAND_IN_POLICY
        for i, (name, parse) in enumerate(_POLICY_FIELDS, start=2):
            line = lines[i - 1] if i <= len(lines) else ""
            try:
                spec = replace(spec, **{name: parse(line.partition("=")[2])})
            except ValueError as exc:
                raise ChainFormatError(f"bad {name}: {exc}", line_no=i) from exc
            as_written(line, spec.to_lines()[i - 1], i)
        if len(lines) > i:  # a line past the last value
            as_written(lines[i], None, i + 1)
        return spec


# the policy file's value lines in order, each with its parser
_POLICY_FIELDS = (("max_epsilon_per_institution", float), ("min_sigma_floor", float),
                  ("allowed_regions", lambda text: frozenset(text.split(","))))
# valid values for the fields not yet read
_STAND_IN_POLICY = PolicySpec(1.0, 0.0, frozenset({"-"}))


# The one reading rule of every file an auditor reads: a reader keeps a line
# only if its writer spells what was read from it as exactly that line. A
# file then has one spelling, and a hash verified over what was read covers
# the bytes that were read. Parsers build records with plain int, float and
# bytes.fromhex and check only what a round trip cannot: that integers are
# >= 0, digests 32 bytes, and ids and kinds valid.

def as_written(line: str, written: str | None, line_no: int) -> None:
    """Refuse ``line``, naming ``line_no``, unless it is ``written``: the
    writer's spelling of what was read from it."""
    if line != written:
        raise ChainFormatError("not in the spelling its writer produces", line_no=line_no)


def read_as_written(line: str, line_no: int, parse, spell):
    """``parse(line)``, kept only if ``spell`` writes it back as ``line``.

    ``parse`` refuses what a round trip cannot catch by raising ValueError
    (ChainFormatError included) or LookupError; each, like a respelt line,
    raises ChainFormatError naming ``line_no``.
    """
    try:
        record = parse(line)
    except (ValueError, LookupError) as exc:
        raise ChainFormatError(f"malformed record ({exc})", line_no=line_no) from exc
    as_written(line, spell(record), line_no)
    return record


def file_records(lines: list[str]) -> list[str]:
    """A file's lines without the one empty last string that its final
    newline splits off; any other empty line is left for the reader to
    refuse. No lines at all read as one empty line."""
    if len(lines) > 1 and lines[-1] == "":
        return lines[:-1]
    return lines or [""]


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


def _uint(text: str) -> int:
    n = int(text)
    if n < 0:
        raise ValueError(f"negative integer {n}")
    return n


def _digest(text: str) -> bytes:
    data = bytes.fromhex(text)
    if len(data) != DIGEST_LEN:
        raise ValueError(f"a digest of {len(data)} bytes")
    return data


def _check_key(institution_id: str, record_kind: str) -> None:
    if not _IDENT.fullmatch(institution_id) or record_kind not in _ENTRY_KINDS:
        raise ValueError(f"bad key {institution_id!r} {record_kind!r}")


def _entry(line: str) -> AuditEntry:
    # _uint's and _digest's checks written out, because this runs for every
    # line of every chain and proof read
    seq, round_index, institution_id, record_kind, index, commit, prev, digest = line.split("|")
    e = AuditEntry(int(seq), int(round_index), institution_id, record_kind, int(index),
                   bytes.fromhex(commit), bytes.fromhex(prev), bytes.fromhex(digest))
    if (e.sequence_no < 0 or e.round_index < 0 or e.inst_kind_index < 0
            or not len(e.payload_commitment) == len(e.prev_hash) == len(e.entry_hash)
            == DIGEST_LEN):
        raise ValueError("a negative integer or a digest not of 32 bytes")
    _check_key(institution_id, record_kind)
    return e


def _rehashes(e: AuditEntry) -> bool:
    return e.entry_hash == _entry_hash(e.sequence_no, e.round_index, e.institution_id,
                                       e.record_kind, e.inst_kind_index,
                                       e.payload_commitment, e.prev_hash)


# The key table a seal commits to, in RFC 9162's Merkle tree: leaves are
# hashed under a 0x00 prefix and nodes under 0x01; the seal's commitment adds
# a 0x02 prefix and the table size K, so a path is checked against its own K.

def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


EMPTY_ROOT = _sha256(b"")


def _leaf_hash(key: tuple[str, str], count: int, digest: bytes) -> bytes:
    # ``|`` occurs in no institution id or kind, so the encoding is one-to-one
    return _sha256(b"\x00" + f"{key[0]}|{key[1]}|{count}|".encode() + digest)


def _node_hash(left: bytes, right: bytes) -> bytes:
    return _sha256(b"\x01" + left + right)


def _table_commitment(size: int, root: bytes) -> bytes:
    return _sha256(b"\x02" + size.to_bytes(8, "big") + root)


def _path_root(index: int, size: int, leaf: bytes, path) -> bytes | None:
    """The root that ``path`` rebuilds from ``leaf`` at ``index`` of ``size``
    (RFC 9162, section 2.1.3.2), or None if the path has the wrong shape."""
    if index >= size:
        return None
    fn, sn, r = index, size - 1, leaf
    for p in path:
        if sn == 0:
            return None
        if fn & 1 or fn == sn:
            r = _node_hash(p, r)
            while not fn & 1 and fn:
                fn >>= 1
                sn >>= 1
        else:
            r = _node_hash(r, p)
        fn >>= 1
        sn >>= 1
    return r if sn == 0 else None


def _key_digest(entries) -> bytes:
    """Digest of one key's entries: sha256 over their entry hashes in order."""
    return _sha256(b"".join(e.entry_hash for e in entries))


class _KeyTable:
    """The sorted key table of ``entries``, with every level of its Merkle
    tree, leaves first: built in one pass, so a seal costs O(entries before
    it) hashing and an audit path none."""

    def __init__(self, entries: list[AuditEntry]):
        self.by_key: dict[tuple[str, str], list[AuditEntry]] = {}
        for e in entries:
            self.by_key.setdefault((e.institution_id, e.record_kind), []).append(e)
        self.keys = sorted(self.by_key)
        self.counts = [len(self.by_key[k]) for k in self.keys]
        self.digests = [_key_digest(self.by_key[k]) for k in self.keys]
        level = [_leaf_hash(*row) for row in zip(self.keys, self.counts, self.digests)]
        self.levels = [level]
        # RFC 9162's tree built bottom-up: hash neighbours in pairs and lift
        # an odd last node to the next level as it is
        while len(level) > 1:
            level = [_node_hash(level[i], level[i + 1])
                     for i in range(0, len(level) - 1, 2)] + level[len(level) & ~1:]
            self.levels.append(level)
        self.commitment = _table_commitment(len(self.keys), level[0] if level else EMPTY_ROOT)
        self.seal: AuditEntry | None = None  # the seal entry that commits to this table

    def path(self, m: int) -> tuple[bytes, ...]:
        """Leaf ``m``'s audit path, leaf level first."""
        path = []
        for level in self.levels[:-1]:
            if m ^ 1 < len(level):
                path.append(level[m ^ 1])
            m >>= 1
        return tuple(path)

    def entries(self, key: tuple[str, str]) -> list[AuditEntry]:
        """The key's entries in the table (none if absent)."""
        return self.by_key.get(key, [])

    def opening(self, key: tuple[str, str]) -> tuple["TableLeaf", ...]:
        """The key's own leaf, or the one or two neighbours that bracket it."""
        size = len(self.keys)
        i = bisect.bisect_left(self.keys, key)
        if i < size and self.keys[i] == key:
            return (TableLeaf(i, size, self.path(i)),)
        return tuple(TableLeaf(j, size, self.path(j), self.keys[j], self.counts[j],
                               self.digests[j])
                     for j in (i - 1, i) if 0 <= j < size)


def _verified_head(entries: list[AuditEntry]) -> bytes | None:
    """Head hash of ``entries`` if every sequence number, prev link,
    per-(institution, kind) count, entry hash and seal commitment is
    consistent, else None."""
    prev = GENESIS
    counters: dict[tuple[str, str], int] = {}
    for i, e in enumerate(entries):
        if e.sequence_no != i or e.prev_hash != prev:
            return None
        key = (e.institution_id, e.record_kind)
        if e.inst_kind_index != counters.get(key, 0):
            return None
        counters[key] = e.inst_kind_index + 1
        if e.record_kind == SEAL_KIND and (
                e.institution_id != COORDINATOR
                or e.payload_commitment != _KeyTable(entries[:i]).commitment):
            return None
        if not _rehashes(e):
            return None
        prev = e.entry_hash
    return prev


class AuditChain(RecordFile):
    """Append-only hash chain; payloads live outside as salted commitments."""

    def __init__(self):
        self.entries: list[AuditEntry] = []
        self._counts: dict[tuple[str, str], int] = {}  # entries per (institution, kind)
        self._used_salts: set[bytes] = set()
        self._table: _KeyTable | None = None  # the key table of the head seal

    @property
    def head_hash(self) -> bytes:
        return self.entries[-1].entry_hash if self.entries else GENESIS

    def _push(self, round_index: int, institution_id: str, record_kind: str,
              commit: bytes) -> AuditEntry:
        key = (institution_id, record_kind)
        inst_kind_index = self._counts.get(key, 0)
        self._counts[key] = inst_kind_index + 1
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
        return entry

    def append(self, round_index: int, institution_id: str, record_kind: str,
               payload: str, salt: bytes) -> AuditEntry:
        """Append a record committing to ``payload``, its canonical_payload string."""
        if record_kind not in RECORD_KINDS:
            raise ProtocolError(f"unknown record kind {record_kind!r}")
        if not _IDENT.fullmatch(institution_id):
            raise ProtocolError(f"bad institution id {institution_id!r}")
        if salt in self._used_salts:
            raise ProtocolError("salt reuse within a chain")
        entry = self._push(round_index, institution_id, record_kind,
                           commitment(salt, payload))
        self._used_salts.add(salt)
        return entry

    def sealed_table(self) -> _KeyTable:
        """The key table of the head seal, sealing the chain first if its
        head is not a seal."""
        head = self.entries[-1] if self.entries else None
        if self._table is None or self._table.seal is not head:
            if head is not None and head.record_kind == SEAL_KIND:
                self._table = _KeyTable(self.entries[:-1])
            else:
                self._table = _KeyTable(self.entries)
                head = self._push(head.round_index if head else 0, COORDINATOR, SEAL_KIND,
                                  self._table.commitment)
            self._table.seal = head
        return self._table

    def seal(self) -> AuditEntry:
        """Append a seal committing to the key table of every entry so far;
        if the head is already a seal, return it."""
        return self.sealed_table().seal

    def verify(self) -> bool:
        """True iff every hash link, seal and the head are consistent."""
        return _verified_head(self.entries) is not None

    def to_lines(self) -> list[str]:
        return [CHAIN_HEADER] + [e.to_line() for e in self.entries]

    @classmethod
    def parse_lines(cls, lines: list[str]) -> "AuditChain":
        """Structural parse only; call verify() to check hash consistency."""
        lines = file_records(lines)
        as_written(lines[0], CHAIN_HEADER, 1)
        chain = cls()
        counts = chain._counts
        for i, line in enumerate(lines[1:], start=2):
            e = read_as_written(line, i, _entry, AuditEntry.to_line)
            chain.entries.append(e)
            key = (e.institution_id, e.record_kind)
            counts[key] = counts.get(key, 0) + 1
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
        payload_str = canonical_payload(payload)
        entry = self.chain.append(round_index, institution_id, kind, payload_str, salt)
        self.opened_store[entry.sequence_no] = (salt, payload_str)
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


@dataclass(frozen=True, slots=True)
class TableLeaf:
    """Leaf ``index`` of a key table of ``size`` leaves, with its audit path.

    ``key``, ``count`` and ``digest`` are written only for an absence proof's
    neighbours; the audited key's own leaf is rebuilt from its headers.
    """
    index: int
    size: int
    path: tuple[bytes, ...]
    key: tuple[str, str] | None = None
    count: int = 0
    digest: bytes = b""

    def to_line(self) -> str:
        """The leaf's fields, without the proof's ``L|`` or ``N|`` tag."""
        path = ",".join(p.hex() for p in self.path)
        if self.key is None:
            return f"{self.index}|{self.size}|{path}"
        return (f"{self.index}|{self.size}|{self.key[0]}|{self.key[1]}|"
                f"{self.count}|{self.digest.hex()}|{path}")

    def rebuilds(self, leaf: bytes, seal_commitment: bytes) -> bool:
        """True iff ``leaf`` at this place, with this path, gives the commitment."""
        root = _path_root(self.index, self.size, leaf, self.path)
        return root is not None and _table_commitment(self.size, root) == seal_commitment


def _path(text: str) -> tuple[bytes, ...]:
    return tuple(_digest(p) for p in text.split(",")) if text else ()


def _own_leaf(text: str) -> TableLeaf:
    index, size, path = text.split("|")
    return TableLeaf(_uint(index), _uint(size), _path(path))


def _neighbour(text: str) -> TableLeaf:
    index, size, institution_id, kind, count, digest, path = text.split("|")
    _check_key(institution_id, kind)
    return TableLeaf(_uint(index), _uint(size), _path(path), (institution_id, kind),
                     _uint(count), _digest(digest))


def _opened(text: str) -> tuple[int, bytes, str]:
    index, salt, payload = text.split("|")
    if not payload:
        raise ValueError("empty payload")
    return _uint(index), _digest(salt), bytes.fromhex(payload).decode("utf-8")


def _opened_line(opened: tuple[int, bytes, str]) -> str:
    index, salt, payload = opened
    return f"{index}|{salt.hex()}|{payload.encode('utf-8').hex()}"


def _claim(line: str) -> tuple[str, str, bytes, str]:
    """(claim, institution id, chain head, aggregate) of a proof's claim line."""
    fields = dict(token.split("=", 1) for token in line.split(" "))
    claim, institution_id, aggregate = fields["claim"], fields["institution"], fields["aggregate"]
    if not (claim in CLAIMS and _IDENT.fullmatch(institution_id)
            and _AGGREGATE.fullmatch(aggregate)):
        raise ValueError("unknown claim, bad institution or bad aggregate")
    return claim, institution_id, _digest(fields["chain_head"]), aggregate


def _claim_line(fields: tuple[str, str, bytes, str]) -> str:
    claim, institution_id, chain_head, aggregate = fields
    return (f"claim={claim} institution={institution_id} "
            f"chain_head={chain_head.hex()} aggregate={aggregate}")


@dataclass(frozen=True)
class ComplianceProof(RecordFile):
    claim: str
    institution_id: str
    chain_head: bytes
    headers: tuple[AuditEntry, ...]             # the audited key's headers, no payloads
    opened: tuple[tuple[int, bytes, str], ...]  # (sequence_no, salt, payload_str)
    aggregate: str
    seal: AuditEntry                            # the chain's head
    leaves: tuple[TableLeaf, ...]               # own leaf, or absence neighbours

    def to_lines(self) -> list[str]:
        lines = [PROOF_HEADER, _claim_line((self.claim, self.institution_id,
                                            self.chain_head, self.aggregate))]
        lines += ["H|" + h.to_line() for h in self.headers]
        lines += ["O|" + _opened_line(o) for o in self.opened]
        lines.append("S|" + self.seal.to_line())
        lines += [("L|" if leaf.key is None else "N|") + leaf.to_line() for leaf in self.leaves]
        return lines

    @classmethod
    def parse_lines(cls, lines: list[str]) -> "ComplianceProof":
        lines = file_records(lines)
        as_written(lines[0], PROOF_HEADER, 1)
        if len(lines) < 2:
            raise ChainFormatError("missing claim line", line_no=2)
        claim, institution_id, chain_head, aggregate = read_as_written(
            lines[1], 2, _claim, _claim_line)
        at = 2

        def records(tag: str, parse, spell) -> list:
            """The run of ``tag`` lines from ``at`` on, each read as written."""
            nonlocal at
            run = []
            while at < len(lines) and lines[at].startswith(tag):
                run.append(read_as_written(lines[at][2:], at + 1, parse, spell))
                at += 1
            return run

        headers = records("H|", _entry, AuditEntry.to_line)
        opened = records("O|", _opened, _opened_line)
        seals = records("S|", _entry, AuditEntry.to_line)
        leaves = (records("L|", _own_leaf, TableLeaf.to_line)
                  + records("N|", _neighbour, TableLeaf.to_line))
        if at < len(lines):
            raise ChainFormatError("expected H|, O|, S|, L| or N| records in that order",
                                   line_no=at + 1)
        if len(seals) != 1:
            raise ChainFormatError("expected one S| seal record", line_no=at + 1)
        return cls(
            claim=claim,
            institution_id=institution_id,
            chain_head=chain_head,
            headers=tuple(headers),
            opened=tuple(opened),
            aggregate=aggregate,
            seal=seals[0],
            leaves=tuple(leaves),
        )


def _compute_aggregate(claim: str, payloads: list[dict]) -> str:
    if claim == CLAIM_BUDGET:
        total = 0.0
        for p in payloads:  # a row without a finite numeric epsilon sums to NaN,
            # so the proof is still written and verify_proof refuses it
            epsilon = p.get("epsilon")
            total += epsilon if _is_finite_number(epsilon) else math.nan
        return repr(total)
    if claim == CLAIM_REGION:
        return ",".join(sorted({str(p.get("region")) for p in payloads})) or "-"
    raise ConfigurationError(f"unknown claim {claim!r}")


def prove_compliance(recorder: AuditRecorder, institution_id: str, claim: str) -> ComplianceProof:
    """Open exactly the target institution's records relevant to one claim,
    against the chain's head seal (sealing the chain if its head is not one)."""
    if claim not in CLAIMS:
        raise ConfigurationError(f"unknown claim {claim!r}")
    table = recorder.chain.sealed_table()
    key = (institution_id, _CLAIM_KIND[claim])
    relevant = table.entries(key)
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
        chain_head=table.seal.entry_hash,
        headers=tuple(relevant),
        opened=tuple(opened),
        aggregate=_compute_aggregate(claim, payloads),
        seal=table.seal,
        leaves=table.opening(key),
    )


def prove_budget_compliance(recorder: AuditRecorder, ledger) -> ComplianceProof:
    """Budget claim with a ledger cross-check: every ledger entry must have a
    matching budget-charge commitment in the chain.

    Proof construction succeeds even when the totals breach the policy; an
    honest prover reports the breach and the verifier renders the verdict.
    """
    institution_id = ledger.institution_id
    proof = prove_compliance(recorder, institution_id, CLAIM_BUDGET)
    if len(proof.opened) != len(ledger.entries):
        raise ProvabilityError(
            f"ledger has {len(ledger.entries)} charges but chain commits "
            f"{len(proof.opened)} for {institution_id}")
    for (_, _, payload_str), ledger_entry in zip(proof.opened, ledger.entries):
        payload = json.loads(payload_str)
        if (payload["round"] != ledger_entry.round_index
                or payload["epsilon"] != ledger_entry.epsilon_spent):
            raise ProvabilityError("ledger/chain mismatch on a budget charge")
    return proof


def _proves_absent(key: tuple[str, str], leaves: tuple[TableLeaf, ...],
                   seal_commitment: bytes) -> bool:
    """True iff ``leaves`` are the sealed table's neighbours of ``key`` (or
    the table is empty and there are none), so the key has no records."""
    if not leaves:
        return seal_commitment == _table_commitment(0, EMPTY_ROOT)
    if any(leaf.key is None or not leaf.rebuilds(
            _leaf_hash(leaf.key, leaf.count, leaf.digest), seal_commitment)
           for leaf in leaves):
        return False
    first, last = leaves[0], leaves[-1]
    if len(leaves) == 2:
        return first.index + 1 == last.index and first.key < key < last.key
    if len(leaves) == 1:
        return ((first.index == 0 and key < first.key)
                or (first.index == first.size - 1 and first.key < key))
    return False


def _is_finite_number(value) -> bool:
    """A JSON number a float holds: not a bool, NaN, infinite or an integer
    beyond the float range."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def verify_proof(proof: ComplianceProof, trusted_head: bytes,
                 policy: PolicySpec) -> Verdict:
    """Recompute everything from the proof alone plus the trusted head.

    INVALID on any hash, coverage, or aggregate inconsistency; otherwise the
    claim's predicate against the policy decides compliant/non-compliant.
    The budget claim covers the sigma floor too: it is compliant iff the total
    epsilon is within the cap and every opened row's sigma is at or above the
    floor. A budget row without a finite numeric epsilon and sigma, or a
    region row whose region is not a string, makes the proof INVALID.
    """
    # 1. the seal re-hashes to the trusted head
    seal = proof.seal
    if not (proof.chain_head == trusted_head == seal.entry_hash
            and seal.record_kind == SEAL_KIND and seal.institution_id == COORDINATOR
            and _rehashes(seal)):
        return Verdict.INVALID

    # 2. the opened headers are the audited key's records 0..k-1, each re-hashing
    key = (proof.institution_id, _CLAIM_KIND[proof.claim])
    for i, h in enumerate(proof.headers):
        if ((h.institution_id, h.record_kind) != key or h.inst_kind_index != i
                or not _rehashes(h)):
            return Verdict.INVALID

    # 3. their hashes rebuild the key's leaf, whose path and table size
    #    rebuild the seal's commitment; 4. with no headers, the neighbours
    #    bracket the key instead
    if proof.headers:
        if len(proof.leaves) != 1 or proof.leaves[0].key is not None:
            return Verdict.INVALID
        leaf = _leaf_hash(key, len(proof.headers), _key_digest(proof.headers))
        if not proof.leaves[0].rebuilds(leaf, seal.payload_commitment):
            return Verdict.INVALID
    elif not _proves_absent(key, proof.leaves, seal.payload_commitment):
        return Verdict.INVALID

    # 5. exactly one opened record per header, re-hashing to its commitment
    if len(proof.opened) != len(proof.headers):
        return Verdict.INVALID
    payloads = []
    for (idx, salt, payload_str), header in zip(proof.opened, proof.headers):
        if (idx != header.sequence_no
                or commitment(salt, payload_str) != header.payload_commitment):
            return Verdict.INVALID
        try:
            payload = json.loads(payload_str)
        except ValueError:
            return Verdict.INVALID
        if payload.get("institution") != proof.institution_id:
            return Verdict.INVALID
        payloads.append(payload)

    # 6. aggregate recomputation must match the stated aggregate
    if _compute_aggregate(proof.claim, payloads) != proof.aggregate:
        return Verdict.INVALID

    # 7. the claim's predicate against the policy
    if proof.claim == CLAIM_BUDGET:
        if not all(_is_finite_number(p.get(field)) for p in payloads
                   for field in ("epsilon", "sigma")):
            return Verdict.INVALID
        ok = (float(proof.aggregate) <= policy.max_epsilon_per_institution
              and all(p["sigma"] >= policy.min_sigma_floor for p in payloads))
    elif not all(type(p.get("region")) is str for p in payloads):
        return Verdict.INVALID
    else:
        regions = set() if proof.aggregate == "-" else set(proof.aggregate.split(","))
        ok = regions <= policy.allowed_regions
    return Verdict.COMPLIANT if ok else Verdict.NON_COMPLIANT

