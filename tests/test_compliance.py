import dataclasses
import time

import pytest

from privfed.compliance import (
    CHAIN_HEADER,
    CLAIM_REGION,
    CLAIM_SIGMA,
    PROOF_HEADER,
    AuditChain,
    AuditRecorder,
    ComplianceProof,
    GENESIS,
    PolicySpec,
    Verdict,
    audit_verdict,
    prove_budget_compliance,
    prove_compliance,
    split_record_lines,
    verify_proof,
)
from privfed.dp import AccountantLedger, NoiseScale, PrivacyBudget
from privfed.errors import ChainFormatError, ProtocolError, ProvabilityError
from privfed.seeding import salt_for


def policy(cap=2.0, floor=0.0, regions=("us-east", "eu-west"), max_rounds=100):
    return PolicySpec(cap, floor, frozenset(regions), max_rounds)


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
        entry = chain.append(0, "a", "budget-charge", {"x": 1}, salt_for(0, 0))
        assert entry.sequence_no == 0
        assert entry.prev_hash == GENESIS

    def test_chaining_links_prev_hash(self):
        chain = AuditChain()
        e0 = chain.append(0, "a", "budget-charge", {"x": 1}, salt_for(0, 0))
        e1 = chain.append(1, "a", "budget-charge", {"x": 2}, salt_for(0, 1))
        assert e1.prev_hash == e0.entry_hash
        assert chain.head_hash == e1.entry_hash

    def test_fresh_chain_verifies(self):
        chain = AuditChain()
        for i in range(100):
            chain.append(i, f"inst{i % 4}", "region-transfer",
                         {"region": "us-east", "round": i}, salt_for(1, i))
        assert chain.verify()

    def test_empty_chain_verifies(self):
        assert AuditChain().verify()

    def test_bit_flip_in_any_entry_fails_verification(self):
        chain = AuditChain()
        for i in range(5):
            chain.append(i, "a", "budget-charge", {"eps": 0.1 * i}, salt_for(2, i))
        target = chain.entries[2]
        flipped_commit = bytes([target.payload_commitment[0] ^ 1]) + target.payload_commitment[1:]
        tampered = dataclasses.replace(target, payload_commitment=flipped_commit)
        chain.entries[2] = tampered
        assert not chain.verify()

    def test_deleted_entry_breaks_chain(self):
        chain = AuditChain()
        for i in range(6):
            chain.append(i, "a", "policy-decision", {"d": i}, salt_for(3, i))
        del chain.entries[3]
        assert not chain.verify()

    def test_salt_reuse_rejected(self):
        chain = AuditChain()
        chain.append(0, "a", "budget-charge", {"x": 1}, salt_for(4, 0))
        with pytest.raises(ProtocolError):
            chain.append(1, "a", "budget-charge", {"x": 2}, salt_for(4, 0))

    def test_file_round_trip(self, tmp_path):
        chain = AuditChain()
        for i in range(10):
            chain.append(i, f"inst{i % 2}", "region-transfer",
                         {"region": "eu-west", "round": i}, salt_for(5, i))
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
    pytest.param("policy", lambda t: t + "max_rounds=100\n", id="policy-repeated-key"),
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
        chain.append(1, "a", "budget-charge", {"x": 1}, salt_for(6, 0))
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
        recorder, ledgers = charged_recorder({"a": [0.5, 0.5]})
        proof = prove_compliance(recorder, "a", CLAIM_SIGMA)
        assert verify_proof(proof, recorder.chain.head_hash,
                            policy(floor=0.5)) is Verdict.COMPLIANT
        assert verify_proof(proof, recorder.chain.head_hash,
                            policy(floor=1.5)) is Verdict.NON_COMPLIANT

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
        chain_bytes, proof_bytes = self.build_files()
        pol = policy()
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


class TestPolicyFile:
    def test_round_trip(self, tmp_path):
        spec = policy(cap=3.5, floor=0.25)
        path = tmp_path / "p.policy"
        spec.write(path)
        assert PolicySpec.read(path) == spec

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "p.policy"
        path.write_text("privfed-policy/1\nmax_rounds=5\n")
        with pytest.raises(ChainFormatError):
            PolicySpec.read(path)


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
