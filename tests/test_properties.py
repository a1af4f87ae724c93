"""Property tests for the audit and ledger readers and the compliance proofs:
typed failures on any input, exact write -> read round trips, and proof
verdicts equal to the ones the full chain gives. Also: grouped local
training equal, bit for bit, to training each institution alone."""

import json
import re
from types import SimpleNamespace

import pytest

hypothesis = pytest.importorskip("hypothesis")
import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from privfed.compliance import (
    CHAIN_HEADER,
    CLAIMS,
    CLAIM_BUDGET,
    CLAIM_SIGMA,
    POLICY_HEADER,
    PROOF_HEADER,
    CLAIM_REGION,
    RECORD_KINDS,
    AuditChain,
    AuditRecorder,
    ComplianceProof,
    PolicySpec,
    Verdict,
    audit_verdict,
    canonical_payload,
    prove_compliance,
    split_record_lines,
    verify_proof,
)
from privfed.dp import AccountantLedger, NoiseScale, PrivacyBudget
from privfed.errors import ChainFormatError, LedgerError
from privfed.federation import train_clients
from privfed.seeding import rng_for, salt_for
from privfed.tasks import TASK_KINDS, SyntheticTask, generate_task

from support import (
    reference_local_train,
    reference_read_chain,
    reference_read_ledger,
    reference_read_policy,
    reference_read_proof,
)

# derandomized so that the suite is repeatable; small so that it stays quick
FAST = settings(max_examples=300, deadline=None, derandomize=True)


def written_files() -> dict[str, bytes]:
    """A valid chain, proof, absence proof and policy file, as the writers
    produce them."""
    recorder = AuditRecorder(seed=0)
    for i in range(3):
        recorder.record_region_transfer(i, "a", "us-east")
        recorder.record_region_transfer(i, "c", "us-east")
    proof = prove_compliance(recorder, "a", CLAIM_REGION)
    absence = prove_compliance(recorder, "b", CLAIM_REGION)
    policy = PolicySpec(1.0, 0.5, frozenset({"us-east"}), 3)
    ledger = AccountantLedger("a", PrivacyBudget(1.0, 0.5))
    for i in range(3):
        ledger.charge(i, PrivacyBudget(0.25, 1e-3), NoiseScale(1.5, 1.0, i == 1))
    return {name: ("\n".join(lines) + "\n").encode()
            for name, lines in (("chain", recorder.chain.to_lines()),
                                ("proof", proof.to_lines()),
                                ("absence-proof", absence.to_lines()),
                                ("policy", policy.to_lines()),
                                ("ledger", ledger.to_lines()))}


READERS = {"chain": AuditChain, "proof": ComplianceProof, "absence-proof": ComplianceProof,
           "policy": PolicySpec, "ledger": AccountantLedger}
HEADERS = {"chain": CHAIN_HEADER, "proof": PROOF_HEADER, "absence-proof": PROOF_HEADER,
           "policy": POLICY_HEADER, "ledger": AccountantLedger.HEADER}
READER_ERRORS = {"chain": ChainFormatError, "proof": ChainFormatError,
                 "absence-proof": ChainFormatError, "policy": ChainFormatError,
                 "ledger": LedgerError}


def spliced(data: bytes, at: int, junk: bytes, drop: int) -> bytes:
    at %= len(data) + 1
    return data[:at] + junk + data[at + drop:]


def reader_inputs(name: str):
    """Arbitrary bytes, arbitrary bytes after a valid header line, and a valid
    file with a random splice, so that parsing gets past its first lines."""
    return st.one_of(
        st.binary(max_size=300),
        st.binary(max_size=300).map(lambda b: HEADERS[name].encode() + b"\n" + b),
        st.builds(spliced, st.just(written_files()[name]), st.integers(0, 10**4),
                  st.binary(max_size=6), st.integers(0, 6)),
    )


@pytest.mark.parametrize("name", sorted(READERS))
def test_readers_raise_only_typed_errors(name):
    @FAST
    @given(reader_inputs(name))
    def check(data):
        try:
            READERS[name].parse_lines(split_record_lines(data))
        except (READER_ERRORS[name], UnicodeDecodeError):
            pass

    check()


# words from a fixed alphabet: st.text() would first build a Unicode table,
# which costs seconds once per process
words = st.lists(st.sampled_from("ab0._-"), min_size=1, max_size=4).map("".join)
appends = st.lists(
    st.tuples(st.integers(0, 10**6), words, st.sampled_from(RECORD_KINDS),
              st.dictionaries(words, st.integers() | words, max_size=2)),
    max_size=12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(appends, st.integers(0, 2**32))
def test_chain_write_read_round_trip(records, seed):
    chain = AuditChain()
    for i, (round_index, inst, kind, payload) in enumerate(records):
        chain.append(round_index, inst, kind, canonical_payload(payload), salt_for(seed, i))
    text = "\n".join(chain.to_lines()) + "\n"
    loaded = AuditChain.parse_lines(split_record_lines(text.encode()))
    assert loaded.to_lines() == chain.to_lines()
    assert loaded.head_hash == chain.head_hash
    assert loaded.verify()


# a random run's records: budget charges and region transfers of a few
# institutions, with a seal after some of them
records = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.booleans(),
              st.floats(1e-3, 1.0), st.sampled_from(["us-east", "eu-west", "ap-south"]),
              st.booleans()),
    max_size=14)


def expected_verdict(recorder, institution: str, claim: str, policy) -> Verdict:
    """The claim's verdict recomputed from every matching entry of the chain."""
    kind = "region-transfer" if claim == CLAIM_REGION else "budget-charge"
    payloads = [json.loads(recorder.opened_store[e.sequence_no][1])
                for e in recorder.chain.entries
                if (e.institution_id, e.record_kind) == (institution, kind)]
    if claim == CLAIM_BUDGET:
        total = 0.0
        for p in payloads:
            total += p["epsilon"]
        ok = total <= policy.max_epsilon_per_institution
    elif claim == CLAIM_SIGMA:
        ok = min((p["sigma"] for p in payloads), default=float("inf")) >= policy.min_sigma_floor
    else:
        ok = {p["region"] for p in payloads} <= policy.allowed_regions
    return Verdict.COMPLIANT if ok else Verdict.NON_COMPLIANT


@settings(max_examples=150, deadline=None, derandomize=True)
@given(records, st.sampled_from(["a", "b", "c", "d", "e"]), st.sampled_from(CLAIMS),
       st.floats(0.5, 3.0), st.floats(0.0, 4.0), st.integers(0, 2**32))
def test_proof_verdict_matches_the_full_chain(records, institution, claim, cap, floor, seed):
    recorder = AuditRecorder(seed=seed)
    for r, (inst, is_charge, value, region, seal) in enumerate(records):
        if is_charge:
            recorder.record_budget_charge(r, inst, SimpleNamespace(
                round_index=r, epsilon_spent=value, delta_spent=1e-6, sigma=4 * value,
                clip_norm=1.0, heuristic_regime=False))
        else:
            recorder.record_region_transfer(r, inst, region)
        if seal:
            recorder.chain.seal()
    policy = PolicySpec(cap, floor, frozenset({"us-east", "eu-west"}), 100)
    proof = prove_compliance(recorder, institution, claim)
    assert recorder.chain.verify()
    expected = expected_verdict(recorder, institution, claim, policy)
    assert verify_proof(proof, recorder.chain.head_hash, policy) is expected
    # the v2 proof reads back to itself, and the auditor's files agree
    lines = proof.to_lines()
    assert ComplianceProof.parse_lines(lines) == proof
    assert ComplianceProof.parse_lines(lines).to_lines() == lines
    chain_text = "\n".join(recorder.chain.to_lines()) + "\n"
    assert audit_verdict(chain_text, "\n".join(lines) + "\n", policy) is expected


# line-level respellings of a written file: none of them is the writer's
# output, so the readers must refuse every one wherever it is applied
def at_line(edit):
    """Apply ``edit`` to one line, any but the empty one after the final newline."""
    def respell(lines, at):
        at %= len(lines) - 1
        return lines[:at] + [edit(lines[at])] + lines[at + 1:]
    return respell


def empty_line(lines, at):
    at %= len(lines)
    return lines[:at] + [""] + lines[at:]


LINE_RESPELLINGS = {
    "empty-line": empty_line,
    "trailing-space": at_line(lambda line: line + " "),
    "trailing-cr": at_line(lambda line: line + "\r"),
    "trailing-space-cr": at_line(lambda line: line + "  \r"),
    "leading-space": at_line(lambda line: " " + line),
    "tripled-claim-spaces": lambda lines, at: (
        lines[:1] + [lines[1].replace(" ", "   ")] + lines[2:]),
    # whole-file line ends: \r\n after every line, or a lone \r between lines
    "crlf-file": lambda lines, at: [line + "\r" for line in lines[:-1]] + lines[-1:],
    "cr-file": lambda lines, at: ["\r".join(lines)],
}


def read_file(tmp_path_factory, reader, text: str):
    """``reader.read`` on ``text`` written to a file byte for byte."""
    path = tmp_path_factory.getbasetemp() / "respelled"
    path.write_bytes(text.encode())
    return reader.read(path)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 10**6), words), min_size=1, max_size=8),
       st.integers(0, 2**32), st.sampled_from(["chain", "proof"]),
       st.sampled_from(sorted(LINE_RESPELLINGS)), st.integers(0, 10**4))
def test_respelled_files_refused(tmp_path_factory, transfers, seed, name, respelling, at):
    assume(name == "proof" or respelling != "tripled-claim-spaces")  # chains have no claim
    recorder = AuditRecorder(seed=seed)
    for round_index, inst in transfers:
        recorder.record_region_transfer(round_index, inst, "us-east")
    if name == "chain":
        lines = recorder.chain.to_lines()
    else:
        lines = prove_compliance(recorder, transfers[0][1], CLAIM_REGION).to_lines()
    written = lines + [""]  # the writer ends the file with one newline
    assert READERS[name].parse_lines(written).to_lines() == lines
    respelled = LINE_RESPELLINGS[respelling](written, at)
    with pytest.raises(ChainFormatError):
        read_file(tmp_path_factory, READERS[name], "\n".join(respelled))


charges = st.lists(st.tuples(st.integers(1, 5), st.floats(1e-3, 1.0), st.booleans()),
                   max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(charges, st.sampled_from(sorted(set(LINE_RESPELLINGS) - {"tripled-claim-spaces"})),
       st.integers(0, 10**4))
def test_ledger_reads_back_exactly_and_refuses_respellings(tmp_path_factory, spends,
                                                           respelling, at):
    ledger = AccountantLedger("inst00", PrivacyBudget(10.0, 0.5))
    round_index = -1
    for gap, epsilon, heuristic in spends:
        round_index += gap
        ledger.charge(round_index, PrivacyBudget(epsilon, 1e-4),
                      NoiseScale(3 * epsilon, 1.0, heuristic))
    lines = ledger.to_lines()
    written = lines + [""]  # the writer ends the file with one newline
    loaded = AccountantLedger.parse_lines(written)
    assert loaded.to_lines() == lines
    assert loaded.entries == ledger.entries
    respelled = LINE_RESPELLINGS[respelling](written, at)
    with pytest.raises(LedgerError):
        read_file(tmp_path_factory, AccountantLedger, "\n".join(respelled))


# --- the round-trip readers against the field checkers they replaced -------

REFERENCE_READERS = {"chain": reference_read_chain, "proof": reference_read_proof,
                     "absence-proof": reference_read_proof, "policy": reference_read_policy,
                     "ledger": reference_read_ledger}


def char_edit(text: str, at: int, kind: str, char: str) -> str:
    at %= len(text) + 1
    return text[:at] + {"replace": char, "insert": char + text[at:at + 1],
                        "delete": ""}[kind] + text[at + 1:]


FIELD_RESPELLINGS = {
    "leading-zero": lambda f: "0" + f,
    "plus": lambda f: "+" + f,
    "minus": lambda f: "-" + f,
    "minus-one": lambda f: "-1",
    "underscore": lambda f: f[:1] + "_" + f[1:],
    "space": lambda f: " " + f,
    "upper": str.upper,
    "one-byte-short": lambda f: f[:-2],
    "one-byte-long": lambda f: f + "ab",
    "empty": lambda f: "",
    "exponent": lambda f: f + "e0",
    "point-zero": lambda f: f + ".0",
    "arabic-indic-digit": lambda f: "\u0661" + f,
}


def respell_field(text: str, line_at: int, field_at: int, respelling: str) -> str:
    """``text`` with one field of one line respelt; fields are what lies
    between ``|``, ``,``, spaces and ``=``."""
    lines = text.split("\n")
    i = line_at % len(lines)
    parts = re.split(r"([|, =])", lines[i])
    j = 2 * (field_at % ((len(parts) + 1) // 2))
    parts[j] = FIELD_RESPELLINGS[respelling](parts[j])
    lines[i] = "".join(parts)
    return "\n".join(lines)


def insert_line(text: str, line_at: int, source: str, source_at: int) -> str:
    """``text`` with a line of ``source`` (itself, another file, or an empty
    line) inserted before one of its lines."""
    lines = text.split("\n")
    source_lines = source.split("\n")
    at = line_at % len(lines)
    return "\n".join(lines[:at] + [source_lines[source_at % len(source_lines)]] + lines[at:])


def outcome(read, lines: list[str]):
    """The lines a reader reads ``lines`` back as, or the type and line of
    its refusal."""
    try:
        return read(lines).to_lines()
    except (ChainFormatError, LedgerError) as exc:
        return type(exc), exc.line_no


def edited(name: str):
    files = {k: v.decode() for k, v in written_files().items()}
    text = files[name]
    return st.one_of(
        st.builds(char_edit, st.just(text), st.integers(0, 10**4),
                  st.sampled_from(["replace", "insert", "delete"]),
                  st.sampled_from("0129afAF|,= -+_.e\r\n\t\u0661x")),
        st.builds(respell_field, st.just(text), st.integers(0, 100), st.integers(0, 100),
                  st.sampled_from(sorted(FIELD_RESPELLINGS))),
        st.builds(insert_line, st.just(text), st.integers(0, 100),
                  st.sampled_from(sorted(files.values()) + [""]), st.integers(0, 100)),
    )


@pytest.mark.parametrize("name", sorted(READERS))
def test_round_trip_readers_agree_with_the_field_checkers(name):
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(edited(name))
    def check(text):
        lines = split_record_lines(text)
        new, old = outcome(READERS[name].parse_lines, lines), outcome(REFERENCE_READERS[name], lines)
        if name == "policy" and isinstance(old, tuple) and old[1] is None:
            # the reference names no line for a policy that differs only as a
            # whole; the round-trip reader names the first line that differs
            assert new[0] is ChainFormatError
        else:
            assert new == old

    check()


# sizes from a narrow range, so most draws mix groups of equal n_i with
# institutions of their own size
@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(TASK_KINDS), st.lists(st.integers(1, 4), min_size=1, max_size=7),
       st.integers(1, 4), st.integers(0, 4), st.sampled_from([0.0, 0.3, 1.0]),
       st.booleans(), st.integers(0, 2**16))
@example("binary-classification", [3], 2, 3, 0.3, False, 0)  # one institution
@example("regression", [2, 2, 2], 3, 0, 0.3, False, 1)  # epochs=0, one group
@example("binary-classification", [4, 1, 4, 2], 2, 3, 0.0, True, 2)  # lr=0, mixed
def test_grouped_training_equals_the_per_institution_reference(kind, sizes, dim, epochs, lr,
                                                                reverse, seed):
    task = SyntheticTask(kind, dim, sum(sizes), seed=seed)
    datasets = generate_task(task, len(sizes), sizes=sizes)
    if reverse:
        datasets.reverse()
    by_id = {data.institution_id: data for data in datasets}
    model = rng_for(seed, "model").standard_normal(task.model_dim)
    privatized = []

    def privatize(global_model, local, round_index, pid):
        privatized.append(pid)
        return local

    updates = train_clients(model, by_id, epochs, lr, 3, privatize)
    assert privatized == list(by_id)
    assert [u.institution_id for u in updates] == list(by_id)
    for update, data in zip(updates, datasets):
        assert update.n_i == data.n and update.round_index == 3
        assert np.array_equal(update.weights, reference_local_train(model, data, epochs, lr))
