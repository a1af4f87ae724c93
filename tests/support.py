"""Helpers that only the tests use: oracles, a toy MDP and trace filters."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from privfed.compliance import (
    _AGGREGATE,
    _ENTRY_KINDS,
    _IDENT,
    CHAIN_HEADER,
    CLAIMS,
    DIGEST_LEN,
    POLICY_HEADER,
    PROOF_HEADER,
    AuditChain,
    AuditEntry,
    ComplianceProof,
    PolicySpec,
    TableLeaf,
)
from privfed.errors import ChainFormatError, ConfigurationError
from privfed.governance import (
    DISCOUNT,
    NOISE_TIERS,
    NUM_INSTITUTIONS,
    GovernanceAction,
    tier_sigma,
)
from privfed.seeding import rng_for
from privfed.tasks import CLASSIFICATION, LocalDataset, _sigmoid


def reference_local_train(model, data: LocalDataset, epochs: int, lr: float) -> np.ndarray:
    """One institution's full-batch descent as a plain 2-D loop: the oracle
    that stacked training must equal bit for bit."""
    xb = np.hstack([data.features, np.ones((data.n, 1))])
    y = data.labels
    w = np.asarray(model, dtype=np.float64).copy()
    for _ in range(epochs):
        if data.task_kind == CLASSIFICATION:
            grad = xb.T @ (_sigmoid(xb @ w) - y) / data.n
        else:
            grad = xb.T @ (xb @ w - y) / data.n
        w -= lr * grad
    return w


def reference_rank_auc(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Mid-rank AUC with a scalar loop over the sorted scores: the oracle
    that tasks.rank_auc must equal bit for bit."""
    pos = labels > 0.5
    n_pos = int(pos.sum())
    n_neg = int(len(labels) - n_pos)
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # mid-rank, 1-based
        i = j + 1
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def reference_best_threshold(member_losses: np.ndarray, nonmember_losses: np.ndarray) -> float:
    """The threshold search as one loop over the candidates, each scored by
    two full-array means: the oracle that attacks._best_threshold must equal
    bit for bit."""
    values = np.unique(np.concatenate([member_losses, nonmember_losses]))
    candidates = np.concatenate([
        [values[0] - 1.0],
        (values[:-1] + values[1:]) / 2.0,
        [values[-1] + 1.0],
    ])
    best_tau, best_acc = candidates[0], -1.0
    for tau in candidates:
        acc = 0.5 * (member_losses <= tau).mean() + 0.5 * (nonmember_losses > tau).mean()
        if acc > best_acc:
            best_acc, best_tau = acc, float(tau)
    return best_tau


def reference_apply(state: tuple[int, int, int], action: GovernanceAction,
                    floor: float) -> tuple[tuple[int, int, int], bool]:
    """One knob move as a ladder of one branch per action: the oracle that
    GovernanceEnv._apply must agree with. ``state`` is (tier, participants,
    strictness); returns the new state and whether the move was feasible."""
    tier, participants, strictness = state
    if action is GovernanceAction.NO_OP:
        return state, True
    if action is GovernanceAction.RAISE_NOISE_TIER:
        if tier + 1 >= len(NOISE_TIERS):
            return state, False
        return (tier + 1, participants, strictness), True
    if action is GovernanceAction.LOWER_NOISE_TIER:
        if tier == 0:
            return state, False
        if tier_sigma(tier - 1) < floor:
            return state, False
        return (tier - 1, participants, strictness), True
    if action is GovernanceAction.SHRINK_PARTICIPATION:
        if participants <= 1:
            return state, False
        return (tier, participants - 1, strictness), True
    if action is GovernanceAction.GROW_PARTICIPATION:
        if participants >= NUM_INSTITUTIONS:
            return state, False
        return (tier, participants + 1, strictness), True
    if action is GovernanceAction.TIGHTEN_POLICY:
        if strictness >= 2:
            return state, False
        return (tier, participants, strictness + 1), True
    if action is GovernanceAction.RELAX_POLICY:
        if strictness <= 0:
            return state, False
        return (tier, participants, strictness - 1), True
    raise ConfigurationError(f"unknown action {action!r}")


def of_kind(trace, *kinds: str) -> list:
    """The events of ``trace`` whose kind is one of ``kinds``, in order."""
    return [e for e in trace.events if e.kind in kinds]


def report_body_lines(records_path: str | Path) -> list[str]:
    """Report body for determinism comparison: every record except wall-clock."""
    lines = Path(records_path).read_text(encoding="utf-8").split("\n")
    return [l for l in lines if l.strip() and '"kind": "timing-wallclock"' not in l]


class TinyMdp:
    """Three states, three actions, deterministic dynamics.

    Small immediate rewards bait the learner away from the high-value loop
    reached via two unrewarded moves; the optimal policy differs per state.
    """

    N_STATES = 3
    actions = (0, 1, 2)
    # (state, action) -> (next_state, reward)
    TABLE = {
        (0, 0): (0, 0.1), (0, 1): (1, 0.0), (0, 2): (0, 0.0),
        (1, 0): (0, 0.0), (1, 1): (1, 0.15), (1, 2): (2, 0.0),
        (2, 0): (2, 1.0), (2, 1): (0, 0.2), (2, 2): (1, 0.3),
    }

    def __init__(self, seed: int = 0, horizon: int = 15):
        self.seed = seed
        self.horizon = horizon
        self._state = 0
        self._steps = 0

    def reset(self, episode: int) -> int:
        self._state = int(rng_for(self.seed, "tiny-start", episode).integers(self.N_STATES))
        self._steps = 0
        return self._state

    def step(self, action: int):
        nxt, reward = self.TABLE[(self._state, action)]
        self._state = nxt
        self._steps += 1
        return nxt, reward, self._steps >= self.horizon, {}

    def bucket(self, state: int) -> int:
        return state

    def optimal_policy_brute_force(self) -> tuple[int, ...]:
        """Enumerate all 27 stationary policies; exact policy evaluation at
        the learner's DISCOUNT."""
        best, best_value = None, -np.inf
        for a0 in self.actions:
            for a1 in self.actions:
                for a2 in self.actions:
                    pi = (a0, a1, a2)
                    p = np.zeros((3, 3))
                    r = np.zeros(3)
                    for s in range(3):
                        nxt, reward = self.TABLE[(s, pi[s])]
                        p[s, nxt] = 1.0
                        r[s] = reward
                    v = np.linalg.solve(np.eye(3) - DISCOUNT * p, r)
                    value = float(v.mean())  # uniform start distribution
                    if value > best_value + 1e-12:
                        best_value, best = value, pi
        return best


# --- the record readers as each field checker spelt them out --------------
# The oracle that the round-trip readers (compliance.read_as_written) must
# agree with: the same files accepted, and a refusal at the same line.

def _reference_file_records(lines: list[str], header: str, what: str) -> list[str]:
    if len(lines) > 1 and lines[-1] == "":
        lines = lines[:-1]
    if not lines or lines[0] != header:
        raise ChainFormatError(f"missing {what} header", line_no=1)
    return lines


def _reference_uint(text: str, line_no: int) -> int:
    """Canonical decimal: ASCII digits, no sign, separator, space or leading zero."""
    if text.isdigit() and text.isascii() and (text[0] != "0" or text == "0"):
        try:
            return int(text)
        except ValueError:  # longer than the interpreter's int-string limit
            pass
    raise ChainFormatError(f"non-canonical integer {text!r}", line_no=line_no)


def _reference_hex(text: str, line_no: int, what: str) -> bytes:
    """Non-empty bytes written as lowercase hex pairs with no whitespace."""
    try:
        data = bytes.fromhex(text)
    except ValueError:
        data = b""
    if not data or data.hex() != text:
        raise ChainFormatError(f"malformed {what}", line_no=line_no)
    return data


def _reference_digest(text: str, line_no: int, what: str = "digest") -> bytes:
    if len(text) != 2 * DIGEST_LEN:
        raise ChainFormatError(f"malformed {what}", line_no=line_no)
    return _reference_hex(text, line_no, what)


def _reference_entry(line: str, line_no: int) -> AuditEntry:
    parts = line.split("|")
    if len(parts) != 8:
        raise ChainFormatError("expected 8 pipe-separated fields", line_no=line_no)
    seq, round_index, institution_id, record_kind, inst_kind_index, commit, prev, digest = parts
    if not _IDENT.fullmatch(institution_id):
        raise ChainFormatError("bad institution id", line_no=line_no)
    if record_kind not in _ENTRY_KINDS:
        raise ChainFormatError(f"unknown record kind {record_kind!r}", line_no=line_no)
    return AuditEntry(
        _reference_uint(seq, line_no), _reference_uint(round_index, line_no),
        institution_id, record_kind, _reference_uint(inst_kind_index, line_no),
        _reference_digest(commit, line_no), _reference_digest(prev, line_no),
        _reference_digest(digest, line_no))


def _reference_path(text: str, line_no: int) -> tuple[bytes, ...]:
    return () if text == "" else tuple(_reference_digest(p, line_no) for p in text.split(","))


def _reference_own_leaf(text: str, line_no: int) -> TableLeaf:
    parts = text.split("|")
    if len(parts) != 3:
        raise ChainFormatError("expected L|index|size|path", line_no=line_no)
    return TableLeaf(_reference_uint(parts[0], line_no), _reference_uint(parts[1], line_no),
                     _reference_path(parts[2], line_no))


def _reference_neighbour(text: str, line_no: int) -> TableLeaf:
    parts = text.split("|")
    if len(parts) != 7:
        raise ChainFormatError("expected N|index|size|institution|kind|count|digest|path",
                               line_no=line_no)
    index, size, institution_id, kind, count, digest, path = parts
    if not _IDENT.fullmatch(institution_id) or kind not in _ENTRY_KINDS:
        raise ChainFormatError("bad neighbour key", line_no=line_no)
    return TableLeaf(_reference_uint(index, line_no), _reference_uint(size, line_no),
                     _reference_path(path, line_no), (institution_id, kind),
                     _reference_uint(count, line_no), _reference_digest(digest, line_no))


def _reference_opened(text: str, line_no: int) -> tuple[int, bytes, str]:
    parts = text.split("|")
    if len(parts) != 3:
        raise ChainFormatError("expected O|index|salt|payload", line_no=line_no)
    try:
        payload = _reference_hex(parts[2], line_no, "payload").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ChainFormatError(f"bad opened record: {exc}", line_no=line_no) from exc
    return (_reference_uint(parts[0], line_no), _reference_digest(parts[1], line_no, "salt"),
            payload)


def reference_read_chain(lines: list[str]) -> AuditChain:
    lines = _reference_file_records(lines, CHAIN_HEADER, "audit-chain")
    chain = AuditChain()
    chain.entries = [_reference_entry(line, i) for i, line in enumerate(lines[1:], start=2)]
    return chain


def reference_read_proof(lines: list[str]) -> ComplianceProof:
    lines = _reference_file_records(lines, PROOF_HEADER, "proof")
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
    if lines[1] != (f"claim={fields['claim']} institution={fields['institution']} "
                    f"chain_head={fields['chain_head']} aggregate={fields['aggregate']}"):
        raise ChainFormatError("claim line is not in its written form", line_no=2)
    at = 2

    def records(tag: str, parse) -> list:
        nonlocal at
        run = []
        while at < len(lines) and lines[at].startswith(tag):
            run.append(parse(lines[at][2:], at + 1))
            at += 1
        return run

    headers = records("H|", _reference_entry)
    opened = records("O|", _reference_opened)
    seals = records("S|", _reference_entry)
    leaves = records("L|", _reference_own_leaf) + records("N|", _reference_neighbour)
    if at < len(lines):
        raise ChainFormatError("expected H|, O|, S|, L| or N| records in that order",
                               line_no=at + 1)
    if len(seals) != 1:
        raise ChainFormatError("expected one S| seal record", line_no=at + 1)
    return ComplianceProof(fields["claim"], fields["institution"],
                           _reference_digest(fields["chain_head"], 2), tuple(headers),
                           tuple(opened), fields["aggregate"], seals[0], tuple(leaves))


def reference_read_policy(lines: list[str]) -> PolicySpec:
    lines = _reference_file_records(lines, POLICY_HEADER, "policy")
    fields = {}
    for i, line in enumerate(lines[1:], start=2):
        if "=" not in line:
            raise ChainFormatError("expected key=value", line_no=i)
        key, value = line.split("=", 1)
        fields[key] = value
    try:
        spec = PolicySpec(float(fields["max_epsilon_per_institution"]),
                          float(fields["min_sigma_floor"]),
                          frozenset(fields["allowed_regions"].split(",")),
                          int(fields["max_rounds"]))
    except (KeyError, ValueError, ConfigurationError) as exc:
        raise ChainFormatError(f"bad policy file: {exc}") from exc
    if spec.to_lines() != lines:
        raise ChainFormatError("policy file is not in its written form")
    return spec
