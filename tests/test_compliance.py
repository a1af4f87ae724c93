import dataclasses
import time

import pytest

from privfed.cli import main
from privfed.compliance import (
    CHAIN_HEADER,
    CLAIM_BUDGET,
    CLAIM_REGION,
    PROOF_HEADER,
    SEAL_KIND,
    AuditChain,
    AuditRecorder,
    ComplianceProof,
    GENESIS,
    PolicySpec,
    TableLeaf,
    Verdict,
    _entry_hash,
    _node_hash,
    _path_root,
    _table_commitment,
    canonical_payload,
    prove_budget_compliance,
    prove_compliance,
    split_record_lines,
    verify_proof,
)
from privfed.dp import AccountantLedger, NoiseScale, PrivacyBudget
from privfed.errors import (
    ChainFormatError,
    ConfigurationError,
    ProtocolError,
    ProvabilityError,
)
from privfed.seeding import salt_for

from support import audit_verdict


def policy(cap=2.0, floor=0.0, regions=("us-east", "eu-west")):
    return PolicySpec(cap, floor, frozenset(regions))


def charged_recorder(charges_by_inst, seed=0, cap_eps=10.0):
    """Recorder + ledgers with the given per-institution epsilon charges."""
    recorder = AuditRecorder(seed=seed)
    ledgers = {}
    for inst, epsilons in charges_by_inst.items():
        ledger = AccountantLedger(inst, PrivacyBudget(cap_eps, 0.9))
        for r, eps in enumerate(epsilons):
            entry = ledger.charge(r, PrivacyBudget(eps, 1e-6), NoiseScale(1.0, 1.0))
            recorder.record_budget_charge(r, inst, entry)
        ledgers[inst] = ledger
    return recorder, ledgers


class TestChain:
    def test_genesis_entry(self):
        chain = AuditChain()
        entry = chain.append(0, "a", "budget-charge", canonical_payload({"x": 1}), salt_for(0, 0))
        assert entry.sequence_no == 0
        assert entry.prev_hash == GENESIS

    def test_chaining_links_prev_hash(self):
        chain = AuditChain()
        e0 = chain.append(0, "a", "budget-charge", canonical_payload({"x": 1}), salt_for(0, 0))
        e1 = chain.append(1, "a", "budget-charge", canonical_payload({"x": 2}), salt_for(0, 1))
        assert e1.prev_hash == e0.entry_hash
        assert chain.head_hash == e1.entry_hash

    def test_fresh_chain_verifies(self):
        chain = AuditChain()
        for i in range(100):
            chain.append(i, f"inst{i % 4}", "region-transfer",
                         canonical_payload({"region": "us-east", "round": i}), salt_for(1, i))
        assert chain.verify()

    def test_empty_chain_verifies(self):
        assert AuditChain().verify()

    def test_bit_flip_in_any_entry_fails_verification(self):
        chain = AuditChain()
        for i in range(5):
            chain.append(i, "a", "budget-charge", canonical_payload({"eps": 0.1 * i}),
                         salt_for(2, i))
        target = chain.entries[2]
        flipped_commit = bytes([target.payload_commitment[0] ^ 1]) + target.payload_commitment[1:]
        tampered = dataclasses.replace(target, payload_commitment=flipped_commit)
        chain.entries[2] = tampered
        assert not chain.verify()

    def test_deleted_entry_breaks_chain(self):
        chain = AuditChain()
        for i in range(6):
            chain.append(i, "a", "policy-decision", canonical_payload({"d": i}), salt_for(3, i))
        del chain.entries[3]
        assert not chain.verify()

    def test_id_with_final_newline_refused(self):
        # the reader would refuse the chain this append wrote, at line 2
        with pytest.raises(ProtocolError):
            AuditChain().append(0, "inst00\n", "budget-charge", canonical_payload({"x": 1}),
                                salt_for(4, 1))

    def test_salt_reuse_rejected(self):
        chain = AuditChain()
        chain.append(0, "a", "budget-charge", canonical_payload({"x": 1}), salt_for(4, 0))
        with pytest.raises(ProtocolError):
            chain.append(1, "a", "budget-charge", canonical_payload({"x": 2}), salt_for(4, 0))

    def test_file_round_trip(self, tmp_path):
        chain = AuditChain()
        for i in range(10):
            chain.append(i, f"inst{i % 2}", "region-transfer",
                         canonical_payload({"region": "eu-west", "round": i}), salt_for(5, i))
        path = tmp_path / "audit.chain"
        chain.write(path)
        loaded = AuditChain.read(path)
        assert loaded.verify()
        assert loaded.head_hash == chain.head_hash
        assert loaded.entries == chain.entries

    def test_malformed_file_reports_line(self, tmp_path):
        path = tmp_path / "bad.chain"
        path.write_text("privfed-audit-chain/1 sha256\nnot|a|valid|line\n")
        with pytest.raises(ChainFormatError) as exc:
            AuditChain.read(path)
        assert exc.value.line_no == 2


def region_files():
    """The writer's bytes for a 3-entry region chain, one proof and a policy."""
    recorder = AuditRecorder(seed=0)
    for i, inst in enumerate(("a", "b", "c")):
        recorder.record_region_transfer(i, inst, "us-east")
    proof = prove_compliance(recorder, "a", CLAIM_REGION)
    return {name: "\n".join(lines) + "\n"
            for name, lines in (("chain", recorder.chain.to_lines()),
                                ("proof", proof.to_lines()),
                                ("policy", policy().to_lines()))}


def replace_line(index, edit):
    def respell(text):
        lines = text.split("\n")
        lines[index] = edit(lines[index])
        return "\n".join(lines)
    return respell


# (file, edit): each gives a file the writer never produces, at the level of
# whole lines rather than fields, so every reader must refuse it
NON_CANONICAL_FILES = [
    pytest.param("chain", replace_line(2, lambda l: "\n" + l), id="chain-empty-line-inside"),
    pytest.param("chain", lambda t: t + "\n", id="chain-second-final-newline"),
    pytest.param("chain", lambda t: "\n" + t, id="chain-leading-empty-line"),
    pytest.param("chain", replace_line(0, lambda l: l + "  \r"), id="chain-header-space-cr"),
    pytest.param("chain", replace_line(0, lambda l: " " + l), id="chain-header-leading-space"),
    pytest.param("chain", replace_line(1, lambda l: l + " "), id="chain-entry-trailing-space"),
    pytest.param("proof", replace_line(1, lambda l: l.replace(" ", "   ")),
                 id="proof-claim-tripled-spaces"),
    pytest.param("proof", replace_line(1, lambda l: l.replace(" ", "\t")),
                 id="proof-claim-tabs"),
    pytest.param("proof", replace_line(1, lambda l: " ".join(reversed(l.split(" ")))),
                 id="proof-claim-keys-reordered"),
    pytest.param("proof", replace_line(1, lambda l: l + " "), id="proof-claim-trailing-space"),
    pytest.param("proof", replace_line(1, lambda l: l + "\r"), id="proof-claim-trailing-cr"),
    pytest.param("proof", replace_line(3, lambda l: "\n" + l), id="proof-empty-line-inside"),
    pytest.param("proof", lambda t: t + "\n", id="proof-second-final-newline"),
    pytest.param("proof", replace_line(0, lambda l: l + "\r"), id="proof-header-cr"),
    pytest.param("policy", replace_line(2, lambda l: "\n" + l), id="policy-empty-line-inside"),
    pytest.param("policy", replace_line(0, lambda l: l + " "), id="policy-header-space"),
    pytest.param("policy", replace_line(1, lambda l: l.replace("=", " = ")),
                 id="policy-spaced-equals"),
    pytest.param("policy", replace_line(1, lambda l: l + "0"), id="policy-float-respelled"),
    pytest.param("policy", lambda t: t + "allowed_regions=eu-west,us-east\n",
                 id="policy-repeated-key"),
]

READERS = {"chain": AuditChain, "proof": ComplianceProof, "policy": PolicySpec}


# (field index in an entry line, respelling): each respelling is one the
# writer never produces, so both readers must refuse it
NON_CANONICAL_FIELDS = [
    pytest.param(0, lambda f: "0" + f, id="seq-leading-zero"),
    pytest.param(1, lambda f: "0" + f, id="round-leading-zero"),
    pytest.param(4, lambda f: "0" + f, id="inst-kind-index-leading-zero"),
    pytest.param(0, lambda f: "+1", id="plus-sign"),
    pytest.param(0, lambda f: "1_0", id="underscore"),
    pytest.param(0, lambda f: " 1", id="leading-space"),
    pytest.param(0, lambda f: "-1", id="minus-sign"),
    pytest.param(0, lambda f: "\u0661", id="arabic-indic-digit"),
    pytest.param(5, str.upper, id="uppercase-commitment"),
    pytest.param(7, str.upper, id="uppercase-entry-hash"),
    pytest.param(6, lambda f: f[:62], id="prev-hash-62-chars"),
    pytest.param(6, lambda f: f + "ab", id="prev-hash-66-chars"),
]


class TestCanonicalFields:
    def entry_line(self, field, respell):
        chain = AuditChain()
        chain.append(1, "a", "budget-charge", canonical_payload({"x": 1}), salt_for(6, 0))
        parts = chain.entries[0].to_line().split("|")
        parts[field] = respell(parts[field])
        return "|".join(parts)

    @pytest.mark.parametrize("field,respell", NON_CANONICAL_FIELDS)
    def test_chain_line_refused(self, field, respell):
        with pytest.raises(ChainFormatError) as exc:
            AuditChain.parse_lines([CHAIN_HEADER, self.entry_line(field, respell)])
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("field,respell", NON_CANONICAL_FIELDS)
    def test_proof_header_line_refused(self, field, respell):
        claim = (f"claim=budget-within-cap institution=a chain_head={'0' * 64} "
                 "aggregate=0.0")
        line = "H|" + self.entry_line(field, respell)
        with pytest.raises(ChainFormatError) as exc:
            ComplianceProof.parse_lines([PROOF_HEADER, claim, line])
        assert exc.value.line_no == 3

    def test_canonical_line_accepted(self):
        chain = AuditChain.parse_lines([CHAIN_HEADER, self.entry_line(0, str)])
        assert chain.verify()

    def test_leading_zero_chain_is_invalid(self):
        recorder, ledgers = charged_recorder({"a": [0.5]})
        proof = prove_budget_compliance(recorder, ledgers["a"])
        header, first, rest = ("\n".join(recorder.chain.to_lines()) + "\n").split("\n", 2)
        chain_text = f"{header}\n0{first}\n{rest}"
        proof_text = "\n".join(proof.to_lines()) + "\n"
        assert audit_verdict(chain_text, proof_text, policy()) is Verdict.INVALID

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_written_bytes_read_back(self, name):
        text = region_files()[name]
        for form in (text, text[:-1]):  # the final newline is optional
            assert READERS[name].parse_lines(split_record_lines(form)).to_lines() == \
                text[:-1].split("\n")

    @pytest.mark.parametrize("name,edit", NON_CANONICAL_FILES)
    def test_respelled_file_refused(self, name, edit):
        files = region_files()
        respelled = edit(files[name])
        assert respelled != files[name]
        with pytest.raises(ChainFormatError):
            READERS[name].parse_lines(split_record_lines(respelled))
        if name != "policy":
            files[name] = respelled
            assert audit_verdict(files["chain"], files["proof"], policy()) is Verdict.INVALID

    def test_pristine_files_compliant(self):
        files = region_files()
        assert audit_verdict(files["chain"], files["proof"], policy()) is Verdict.COMPLIANT


class TestProofs:
    def test_compliant_budget_proof(self):
        recorder, ledgers = charged_recorder({"a": [0.5, 0.5, 0.5], "b": [0.3]})
        proof = prove_budget_compliance(recorder, ledgers["a"])
        assert proof.aggregate == repr(0.5 + 0.5 + 0.5)
        verdict = verify_proof(proof, recorder.chain.head_hash, policy(cap=2.0))
        assert verdict is Verdict.COMPLIANT

    def test_honest_prover_reports_breach(self):
        recorder, ledgers = charged_recorder({"a": [0.7, 0.7, 0.7]})
        proof = prove_budget_compliance(recorder, ledgers["a"])
        verdict = verify_proof(proof, recorder.chain.head_hash, policy(cap=2.0))
        assert verdict is Verdict.NON_COMPLIANT

    def test_selective_disclosure_opens_no_other_institution(self):
        recorder, ledgers = charged_recorder({"a": [0.5, 0.4], "b": [0.9, 0.2, 0.1]})
        proof = prove_budget_compliance(recorder, ledgers["a"])
        opened_insts = {recorder.chain.entries[idx].institution_id
                        for idx, _, _ in proof.opened}
        assert opened_insts == {"a"}
        opened_payloads = "".join(p for _, _, p in proof.opened)
        assert '"institution":"b"' not in opened_payloads

    def test_proof_file_round_trip(self, tmp_path):
        recorder, ledgers = charged_recorder({"a": [0.5, 0.5]})
        proof = prove_budget_compliance(recorder, ledgers["a"])
        path = tmp_path / "a.proof"
        proof.write(path)
        loaded = ComplianceProof.read(path)
        assert loaded == proof
        assert verify_proof(loaded, recorder.chain.head_hash, policy()) is Verdict.COMPLIANT

    def test_altered_opened_epsilon_is_invalid(self):
        recorder, ledgers = charged_recorder({"a": [0.5, 0.5]})
        proof = prove_budget_compliance(recorder, ledgers["a"])
        idx, salt, payload = proof.opened[0]
        tampered = dataclasses.replace(
            proof, opened=((idx, salt, payload.replace("0.5", "0.1")),) + proof.opened[1:])
        assert verify_proof(tampered, recorder.chain.head_hash, policy()) is Verdict.INVALID

    def test_wrong_trusted_head_is_invalid(self):
        recorder, ledgers = charged_recorder({"a": [0.5]})
        proof = prove_budget_compliance(recorder, ledgers["a"])
        wrong = bytes([proof.chain_head[0] ^ 1]) + proof.chain_head[1:]
        assert verify_proof(proof, wrong, policy()) is Verdict.INVALID

    def test_omitted_record_is_invalid(self):
        # under-disclosure: drop one of the institution's budget records
        recorder, ledgers = charged_recorder({"a": [0.5, 0.5, 0.5]})
        proof = prove_budget_compliance(recorder, ledgers["a"])
        lazy = dataclasses.replace(proof, opened=proof.opened[:-1],
                                   aggregate=repr(0.5 + 0.5))
        assert verify_proof(lazy, recorder.chain.head_hash, policy()) is Verdict.INVALID

    def test_ledger_chain_mismatch_unprovable(self):
        recorder, ledgers = charged_recorder({"a": [0.5, 0.5]})
        extra = AccountantLedger("a", PrivacyBudget(10.0, 0.9))
        extra.charge(0, PrivacyBudget(0.5, 1e-6), NoiseScale(1.0, 1.0))
        with pytest.raises(ProvabilityError):
            prove_budget_compliance(recorder, extra)

    def test_region_claim(self):
        recorder = AuditRecorder(seed=9)
        recorder.record_region_transfer(0, "a", "us-east")
        recorder.record_region_transfer(1, "a", "eu-west")
        recorder.record_region_transfer(1, "b", "ap-south")  # someone else's breach
        proof = prove_compliance(recorder, "a", CLAIM_REGION)
        assert verify_proof(proof, recorder.chain.head_hash, policy()) is Verdict.COMPLIANT
        proof_b = prove_compliance(recorder, "b", CLAIM_REGION)
        assert verify_proof(proof_b, recorder.chain.head_hash, policy()) is Verdict.NON_COMPLIANT

    def test_sigma_floor_claim(self):
        # the budget claim's smallest opened sigma decides the floor
        recorder = AuditRecorder(seed=0)
        for r, sigma in enumerate([2.0, 0.5]):
            recorder._append(r, "a", "budget-charge",
                             {"institution": "a", "epsilon": 0.5, "sigma": sigma})
        proof = prove_compliance(recorder, "a", CLAIM_BUDGET)
        assert verify_proof(proof, recorder.chain.head_hash,
                            policy(floor=0.5)) is Verdict.COMPLIANT
        assert verify_proof(proof, recorder.chain.head_hash,
                            policy(floor=1.5)) is Verdict.NON_COMPLIANT

    def test_budget_claim_covers_the_sigma_floor(self):
        recorder, ledgers = charged_recorder({"a": [0.5, 0.5]})  # sigma 1.0
        proof = prove_budget_compliance(recorder, ledgers["a"])
        head = recorder.chain.head_hash
        assert verify_proof(proof, head, policy(floor=1.0)) is Verdict.COMPLIANT
        assert verify_proof(proof, head, policy(floor=1.5)) is Verdict.NON_COMPLIANT
        # an institution with no charges meets any floor
        empty = prove_compliance(recorder, "b", CLAIM_BUDGET)
        assert verify_proof(empty, head, policy(floor=4.0)) is Verdict.COMPLIANT

    @pytest.mark.parametrize("claim,row", [
        *((CLAIM_BUDGET, row) for row in [
            {"epsilon": 0.5}, {"epsilon": 0.5, "sigma": None}, {"epsilon": 0.5, "sigma": "1.0"},
            {"epsilon": 0.5, "sigma": True}, {"epsilon": 0.5, "sigma": float("nan")},
            {"epsilon": 0.5, "sigma": float("inf")}, {"epsilon": 0.5, "sigma": 10**400},
            {"sigma": 1.0}, {"epsilon": None, "sigma": 1.0}, {"epsilon": "0.5", "sigma": 1.0},
            {"epsilon": True, "sigma": 1.0}, {"epsilon": float("nan"), "sigma": 1.0},
            {"epsilon": float("inf"), "sigma": 1.0}, {"epsilon": 10**400, "sigma": 1.0}]),
        *((CLAIM_REGION, row) for row in [
            {}, {"region": None}, {"region": 5}, {"region": ["us-east"]}]),
    ], ids=["missing", "null", "string", "bool", "nan", "inf", "huge-int",
            "epsilon-missing", "epsilon-null", "epsilon-string", "epsilon-bool",
            "epsilon-nan", "epsilon-inf", "epsilon-huge-int",
            "region-missing", "region-null", "region-number", "region-list"])
    def test_budget_row_without_a_finite_sigma_is_invalid(self, claim, row):
        """A budget row whose sigma or epsilon is not a number a float holds,
        and a region row whose region is not a string."""
        recorder = AuditRecorder(seed=0)
        kind = "budget-charge" if claim == CLAIM_BUDGET else "region-transfer"
        recorder._append(0, "a", kind, {"institution": "a", **row})
        proof = prove_compliance(recorder, "a", claim)
        # the regions that str() would make of 5 and null are allowed
        allowed = policy(regions=("us-east", "5", "None"))
        assert verify_proof(proof, recorder.chain.head_hash, allowed) is Verdict.INVALID

    def test_stricter_policy_flips_verdict_not_validity(self):
        recorder, ledgers = charged_recorder({"a": [0.8, 0.8]})
        proof = prove_budget_compliance(recorder, ledgers["a"])
        head = recorder.chain.head_hash
        assert verify_proof(proof, head, policy(cap=2.0)) is Verdict.COMPLIANT
        assert verify_proof(proof, head, policy(cap=1.0)) is Verdict.NON_COMPLIANT


class TestFileLevelTamperEvidence:
    def build_files(self):
        recorder, ledgers = charged_recorder({"a": [0.5, 0.5], "b": [0.2]})
        proof = prove_budget_compliance(recorder, ledgers["a"])
        chain_bytes = ("\n".join(recorder.chain.to_lines()) + "\n").encode()
        proof_bytes = ("\n".join(proof.to_lines()) + "\n").encode()
        return chain_bytes, proof_bytes

    def test_pristine_files_verify(self):
        chain_bytes, proof_bytes = self.build_files()
        assert audit_verdict(chain_bytes, proof_bytes, policy()) is Verdict.COMPLIANT

    def test_every_bit_flip_detected_small(self):
        # exhaustive sweep on a small chain; the acceptance suite runs the
        # full 50-entry version
        assert_every_bit_flip_detected(*self.build_files())

    def test_every_bit_flip_detected_in_an_absence_proof(self):
        recorder, _ = charged_recorder({"a": [0.5], "c": [0.25]})
        proof = prove_compliance(recorder, "b", CLAIM_BUDGET)
        assert len(proof.leaves) == 2
        assert_every_bit_flip_detected(file_bytes(recorder.chain), file_bytes(proof))

    def test_every_bit_flip_detected_on_a_one_key_chain(self):
        recorder, ledgers = charged_recorder({"a": [0.5, 0.25]})
        proof = prove_budget_compliance(recorder, ledgers["a"])
        assert proof.leaves[0].size == 1 and proof.leaves[0].path == ()
        assert_every_bit_flip_detected(file_bytes(recorder.chain), file_bytes(proof))


def file_bytes(record_file) -> bytes:
    return ("\n".join(record_file.to_lines()) + "\n").encode()


def assert_every_bit_flip_detected(chain_bytes: bytes, proof_bytes: bytes):
    pol = policy()
    assert audit_verdict(chain_bytes, proof_bytes, pol) is Verdict.COMPLIANT
    for data, other, is_chain in ((chain_bytes, proof_bytes, True),
                                  (proof_bytes, chain_bytes, False)):
        for byte_idx in range(len(data)):
            for bit in range(8):
                mutated = bytearray(data)
                mutated[byte_idx] ^= 1 << bit
                mutated = bytes(mutated)
                if is_chain:
                    verdict = audit_verdict(mutated, other, pol)
                else:
                    verdict = audit_verdict(other, mutated, pol)
                assert verdict is Verdict.INVALID, (
                    f"undetected flip at byte {byte_idx} bit {bit} "
                    f"({'chain' if is_chain else 'proof'})")


class TestSeal:
    def test_seal_is_idempotent_and_closes_the_chain(self):
        recorder, _ = charged_recorder({"a": [0.5], "b": [0.5]})
        chain = recorder.chain
        seal = chain.seal()
        assert (seal.institution_id, seal.record_kind) == ("coordinator", SEAL_KIND)
        assert chain.head_hash == seal.entry_hash and len(chain.entries) == 3
        assert chain.seal() is seal and len(chain.entries) == 3
        assert chain.verify()

    def test_read_chain_keeps_its_seal(self):
        recorder, _ = charged_recorder({"a": [0.5]})
        seal = recorder.chain.seal()
        loaded = AuditChain.parse_lines(split_record_lines(file_bytes(recorder.chain)))
        assert loaded.verify()
        assert loaded.seal() == seal and len(loaded.entries) == 2
        assert loaded.sealed_table().commitment == seal.payload_commitment

    @pytest.mark.parametrize("sealed", [False, True])
    def test_read_chain_keeps_counting(self, sealed):
        recorder, _ = charged_recorder({"a": [0.5], "b": [0.25, 0.5]})
        if sealed:
            recorder.chain.seal()
        parsed = AuditChain.parse_lines(split_record_lines(file_bytes(recorder.chain)))
        for chain in (recorder.chain, parsed):
            n = len(chain.entries)
            chain.append(2, "a", "budget-charge", canonical_payload({"epsilon": 0.1}),
                         salt_for(9, n))
            chain.append(2, "c", "region-transfer", canonical_payload({"region": "us-east"}),
                         salt_for(9, n + 1))
            chain.append(3, "b", "budget-charge", canonical_payload({"epsilon": 0.2}),
                         salt_for(9, n + 2))
            chain.seal()
        assert parsed.to_lines() == recorder.chain.to_lines()
        assert [e.inst_kind_index for e in parsed.entries[-4:]] == [1, 0, 2, int(sealed)]
        assert parsed.verify() and recorder.chain.verify()

    def test_append_refuses_the_seal_kind(self):
        with pytest.raises(ProtocolError):
            AuditChain().append(0, "coordinator", SEAL_KIND, canonical_payload({"x": 1}),
                                salt_for(0, 0))

    def test_seal_with_a_wrong_commitment_is_refused(self, tmp_path, capsys):
        recorder, ledgers = charged_recorder({"a": [0.5], "b": [0.25]})
        proof = prove_budget_compliance(recorder, ledgers["a"])
        chain = recorder.chain
        seal = chain.entries[-1]
        wrong = bytes([seal.payload_commitment[0] ^ 1]) + seal.payload_commitment[1:]
        # a well-linked, well-hashed seal entry over a table it does not match
        chain.entries[-1] = dataclasses.replace(
            seal, payload_commitment=wrong,
            entry_hash=_entry_hash(seal.sequence_no, seal.round_index, seal.institution_id,
                                   seal.record_kind, seal.inst_kind_index, wrong,
                                   seal.prev_hash))
        assert not chain.verify()
        chain.write(tmp_path / "audit.chain")
        proof.write(tmp_path / "a.proof")
        policy().write(tmp_path / "audit.policy")
        assert main(["verify-audit", "--chain", str(tmp_path / "audit.chain"),
                     "--proof", str(tmp_path / "a.proof"),
                     "--policy", str(tmp_path / "audit.policy")]) == 2
        assert "invalid" in capsys.readouterr().out

    def test_seal_must_be_the_coordinators(self):
        recorder, _ = charged_recorder({"a": [0.5]})
        seal = recorder.chain.seal()
        recorder.chain.entries[-1] = dataclasses.replace(
            seal, institution_id="a",
            entry_hash=_entry_hash(seal.sequence_no, seal.round_index, "a", seal.record_kind,
                                   seal.inst_kind_index, seal.payload_commitment,
                                   seal.prev_hash))
        assert not recorder.chain.verify()

    @pytest.mark.parametrize("field,value", [("record_kind", "policy-decision"),
                                             ("institution_id", "a")])
    def test_proof_against_a_head_that_is_no_seal_is_invalid(self, field, value):
        # the head carries the table commitment, but not as the coordinator's seal
        recorder, ledgers = charged_recorder({"a": [0.5]})
        proof = prove_budget_compliance(recorder, ledgers["a"])
        fake = dataclasses.replace(proof.seal, **{field: value})
        fake = dataclasses.replace(fake, entry_hash=_entry_hash(
            fake.sequence_no, fake.round_index, fake.institution_id, fake.record_kind,
            fake.inst_kind_index, fake.payload_commitment, fake.prev_hash))
        forged = dataclasses.replace(proof, seal=fake, chain_head=fake.entry_hash)
        assert verify_proof(forged, fake.entry_hash, policy()) is Verdict.INVALID

    def test_proof_from_an_earlier_seal_is_invalid_after_a_new_seal(self):
        recorder, ledgers = charged_recorder({"a": [0.5], "b": [0.25]})
        old = prove_compliance(recorder, "a", CLAIM_BUDGET)
        recorder.record_budget_charge(1, "b", ledgers["b"].charge(
            1, PrivacyBudget(0.25, 1e-6), NoiseScale(1.0, 1.0)))
        recorder.chain.seal()
        head = recorder.chain.head_hash
        assert recorder.chain.verify() and len(recorder.chain.entries) == 5
        assert verify_proof(old, head, policy()) is Verdict.INVALID
        assert audit_verdict(file_bytes(recorder.chain), file_bytes(old),
                             policy()) is Verdict.INVALID
        fresh = prove_compliance(recorder, "a", CLAIM_BUDGET)
        assert fresh.seal is recorder.chain.entries[-1]
        assert verify_proof(fresh, head, policy()) is Verdict.COMPLIANT

    def test_proof_discloses_only_the_audited_key(self):
        recorder, ledgers = charged_recorder({"a": [0.5, 0.4], "b": [0.9, 0.2, 0.1]})
        for i in range(3):
            recorder.record_region_transfer(i, "a", "us-east")
        proof = prove_budget_compliance(recorder, ledgers["a"])
        assert [(h.institution_id, h.record_kind) for h in proof.headers] == \
            [("a", "budget-charge")] * 2
        assert all(leaf.key is None for leaf in proof.leaves)
        text = "\n".join(proof.to_lines())
        assert "|b|" not in text and "region-transfer" not in text


def rfc9162_root(leaves):
    """MTH of RFC 9162, section 2.1.1, by its recursive definition."""
    if len(leaves) == 1:
        return leaves[0]
    k = 1 << ((len(leaves) - 1).bit_length() - 1)
    return _node_hash(rfc9162_root(leaves[:k]), rfc9162_root(leaves[k:]))


def rfc9162_path(m, leaves):
    """PATH(m, D[n]) of RFC 9162, section 2.1.3.1, by its recursive definition."""
    if len(leaves) == 1:
        return []
    k = 1 << ((len(leaves) - 1).bit_length() - 1)
    if m < k:
        return rfc9162_path(m, leaves[:k]) + [rfc9162_root(leaves[k:])]
    return rfc9162_path(m - k, leaves[k:]) + [rfc9162_root(leaves[:k])]


@pytest.mark.parametrize("size", [1, 2, 3, 5, 7, 8, 9, 16, 31, 33, 70])
def test_key_table_tree_matches_rfc9162(size):
    recorder = AuditRecorder(seed=size)
    for i in range(size):
        recorder.record_region_transfer(0, f"i{i:03d}", "us-east")
    table = recorder.chain.sealed_table()
    leaves = table.levels[0]
    root = rfc9162_root(leaves)
    assert table.commitment == _table_commitment(size, root)
    for m in range(size):
        assert list(table.path(m)) == rfc9162_path(m, leaves)
        assert _path_root(m, size, leaves[m], table.path(m)) == root
        # the same path read at any other place fails; so does another size,
        # which for some places has the same path shape (leaf 0 of 3 and of
        # 4), so the seal's commitment binds the size
        for other in {m ^ 1, m + 1, size - 1 - m} - {m}:
            assert _path_root(other, size, leaves[m], table.path(m)) != root
        for other_size in (size - 1, size + 1):
            leaf = TableLeaf(m, other_size, table.path(m))
            assert not leaf.rebuilds(leaves[m], table.commitment)


class TestAbsenceProofs:
    def table(self):
        """Keys (a, budget-charge), (c, budget-charge), (c, region-transfer)."""
        recorder, _ = charged_recorder({"a": [0.5], "c": [0.25]})
        recorder.record_region_transfer(0, "c", "ap-south")
        return recorder

    @pytest.mark.parametrize("institution,claim,indices", [
        ("b", CLAIM_BUDGET, (0, 1)),           # between two table keys
        ("a", CLAIM_REGION, (0, 1)),           # another kind of a present institution
        ("A", CLAIM_BUDGET, (0,)),             # before the first table key
        ("d", CLAIM_REGION, (2,)),             # after the last table key
    ])
    def test_absent_key_proved_by_its_neighbours(self, institution, claim, indices):
        recorder = self.table()
        proof = prove_compliance(recorder, institution, claim)
        assert proof.headers == () and proof.opened == ()
        assert tuple(leaf.index for leaf in proof.leaves) == indices
        assert all(leaf.size == 3 and leaf.key is not None for leaf in proof.leaves)
        head = recorder.chain.head_hash
        assert verify_proof(proof, head, policy()) is Verdict.COMPLIANT
        loaded = ComplianceProof.parse_lines(split_record_lines(file_bytes(proof)))
        assert loaded == proof
        assert audit_verdict(file_bytes(recorder.chain), file_bytes(proof),
                             policy()) is Verdict.COMPLIANT

    def test_absence_on_an_empty_sealed_chain(self):
        recorder = AuditRecorder(seed=0)
        proof = prove_compliance(recorder, "a", CLAIM_BUDGET)
        assert proof.leaves == () and proof.aggregate == repr(0.0)
        # no charge is below any floor
        assert verify_proof(proof, recorder.chain.head_hash,
                            policy(floor=4.0)) is Verdict.COMPLIANT

    def test_present_key_cannot_be_proved_absent(self):
        recorder = self.table()
        absent = prove_compliance(recorder, "b", CLAIM_BUDGET)
        head = recorder.chain.head_hash
        # the same neighbours offered for a key they do not bracket
        for inst in ("a", "c"):
            forged = dataclasses.replace(absent, institution_id=inst)
            assert verify_proof(forged, head, policy()) is Verdict.INVALID
        # one neighbour only, or the two swapped
        for leaves in (absent.leaves[:1], absent.leaves[1:], absent.leaves[::-1]):
            forged = dataclasses.replace(absent, leaves=leaves)
            assert verify_proof(forged, head, policy()) is Verdict.INVALID
        # neighbours that bracket a present key from further out
        after = prove_compliance(recorder, "d", CLAIM_REGION)
        forged = dataclasses.replace(absent, institution_id="c",
                                     leaves=(absent.leaves[0], after.leaves[0]))
        assert forged.leaves[0].key < ("c", "budget-charge") < forged.leaves[1].key
        assert verify_proof(forged, head, policy()) is Verdict.INVALID
        # a present key's proof with its records dropped
        present = prove_compliance(recorder, "c", CLAIM_REGION)
        hidden = dataclasses.replace(present, headers=(), opened=(), aggregate="-")
        assert verify_proof(hidden, head, policy()) is Verdict.INVALID

    def test_neighbour_with_a_wrong_count_is_invalid(self):
        recorder = self.table()
        proof = prove_compliance(recorder, "b", CLAIM_BUDGET)
        leaf = dataclasses.replace(proof.leaves[1], count=proof.leaves[1].count + 1)
        forged = dataclasses.replace(proof, leaves=(proof.leaves[0], leaf))
        assert verify_proof(forged, recorder.chain.head_hash, policy()) is Verdict.INVALID


class TestPolicyFile:
    def test_round_trip(self, tmp_path):
        spec = policy(cap=3.5, floor=0.25)
        path = tmp_path / "p.policy"
        spec.write(path)
        assert PolicySpec.read(path) == spec

    def test_region_with_final_newline_refused(self):
        # the reader would refuse the policy file this spec wrote, at line 5
        with pytest.raises(ConfigurationError):
            PolicySpec(1.0, 0.0, frozenset({"eu-west\n"}))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "p.policy"
        path.write_text("privfed-policy/2\nallowed_regions=us-east\n")
        with pytest.raises(ChainFormatError):
            PolicySpec.read(path)

    @pytest.mark.parametrize("edit, line_no", [
        (lambda ls: ls + ["max_rounds=1000"], 5),  # the line policy/1 files ended in
        (lambda ls: ls[:3], 4),  # no allowed_regions line: named where it belongs
        (lambda ls: ls[:1] + ["max_epsilon_per_institution=abc"] + ls[2:], 2),
        (lambda ls: ls[:3] + ["allowed_regions=us east"] + ls[4:], 4),
        (lambda ls: ["privfed-policy/1"] + ls[1:], 1),
    ], ids=["line-past-regions", "missing-regions", "unparsed-epsilon", "bad-region",
            "version-1-header"])
    def test_bad_value_names_its_line(self, edit, line_no):
        lines = edit(policy(cap=3.5, floor=0.25).to_lines())
        with pytest.raises(ChainFormatError, match=f"^line {line_no}: ") as refused:
            PolicySpec.parse_lines(lines)
        assert refused.value.line_no == line_no


def test_verify_audit_exits_1_on_a_charge_below_the_sigma_floor(tmp_path, capsys):
    # within the cap, but noised at sigma 0.01 under a floor of 0.5
    recorder = AuditRecorder(seed=0)
    ledger = AccountantLedger("a", PrivacyBudget(10.0, 0.9))
    entry = ledger.charge(0, PrivacyBudget(0.5, 1e-6), NoiseScale(0.01, 1.0))
    recorder.record_budget_charge(0, "a", entry)
    proof = prove_budget_compliance(recorder, ledger)  # seals the chain
    for name, record_file in (("proof", proof), ("chain", recorder.chain),
                              ("policy", policy(floor=0.5))):
        record_file.write(tmp_path / name)
    assert main(["verify-audit", "--chain", str(tmp_path / "chain"),
                 "--proof", str(tmp_path / "proof"),
                 "--policy", str(tmp_path / "policy")]) == 1
    assert capsys.readouterr().out.startswith("verdict: non-compliant (claim=budget-within-cap")


def test_verify_proof_under_20ms_on_1000_entry_chain():
    charges = {f"inst{i:02d}": [0.01] * 50 for i in range(20)}  # 1000 entries
    recorder, ledgers = charged_recorder(charges)
    assert len(recorder.chain.entries) == 1000
    proof = prove_budget_compliance(recorder, ledgers["inst00"])
    assert len(proof.opened) == 50
    head = recorder.chain.head_hash
    pol = policy(cap=2.0)
    verify_proof(proof, head, pol)  # warm up
    start = time.perf_counter()
    verdict = verify_proof(proof, head, pol)
    elapsed_ms = (time.perf_counter() - start) * 1000
    assert verdict is Verdict.COMPLIANT
    assert elapsed_ms < 20.0
