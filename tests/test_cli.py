import builtins
import hashlib
import shutil
from pathlib import Path

import pytest

from privfed.cli import build_parser, main, verified_chain_head
from privfed.compliance import CLAIM_REGION, AuditRecorder, PolicySpec, Verdict
from privfed.config import ExperimentConfig, canonical_text

from support import audit_verdict, report_body_lines, unchecked_proof

EXIT_OF = {Verdict.COMPLIANT: 0, Verdict.NON_COMPLIANT: 1, Verdict.INVALID: 2}


def verify(chain, proof, policy) -> int:
    return main(["verify-audit", "--chain", str(chain), "--proof", str(proof),
                 "--policy", str(policy)])


def flip_a_commitment_bit(chain: bytes) -> bytes:
    """The chain file with one bit flipped in its first entry's payload
    commitment, in a decimal digit so that it stays one: the chain still
    parses, but that entry no longer re-hashes."""
    header, entry = chain.split(b"\n")[:2]
    start = len(header) + 1 + len(b"|".join(entry.split(b"|")[:5])) + 1
    i = next(j for j in range(start, start + 64) if chain[j:j + 1].isdigit())
    return chain[:i] + bytes([chain[i] ^ 1]) + chain[i + 1:]


def cfg_file(tmp_path, **overrides) -> Path:
    base = dict(task_num_samples=400, institutions_count=4, rounds=2,
                local_epochs=2, lr=1.0, seed=3)
    base.update(overrides)
    path = tmp_path / "exp.cfg"
    path.write_text(canonical_text(ExperimentConfig(**base)), encoding="utf-8")
    return path


class TestRun:
    def test_run_exit_zero_and_artifacts(self, tmp_path, capsys):
        config = cfg_file(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "report.records").exists()
        assert (out / "report.txt").exists()
        assert (out / "audit.chain").exists()
        assert "status=completed" in capsys.readouterr().out

    def test_seed_and_out_overrides(self, tmp_path):
        config = cfg_file(tmp_path)
        other = tmp_path / "elsewhere"
        assert main(["run", "--config", str(config), "--seed", "9",
                     "--out", str(other)]) == 0
        records = (other / "report.records").read_text()
        assert '"seed": 9' in records

    def test_invalid_config_exits_2_listing_fields(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("rounds=0\ndp.epsilon=-1\n")
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "rounds" in err and "dp.epsilon" in err


class TestOutputDirectory:
    def test_report_body_is_the_same_across_out_paths(self, tmp_path):
        config = cfg_file(tmp_path)
        for name in ("first", "second"):
            assert main(["run", "--config", str(config), "--out", str(tmp_path / name)]) == 0
        assert (report_body_lines(tmp_path / "first" / "report.records")
                == report_body_lines(tmp_path / "second" / "report.records"))

    def test_privfed_out_applies_with_config_and_out_beats_it(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PRIVFED_OUT", str(tmp_path / "env"))
        config = str(cfg_file(tmp_path))
        assert main(["run", "--config", config]) == 0
        assert (tmp_path / "env" / "report.records").exists()
        assert main(["run", "--config", config, "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "report.records").exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["output_dir", "output.dir"])
    def test_output_key_in_config_exits_2(self, tmp_path, capsys, key):
        path = tmp_path / "exp.cfg"
        path.write_text(f"seed=1\n{key}={tmp_path / 'elsewhere'}\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "elsewhere").exists()

    # constants of the code that uses them, not settings
    @pytest.mark.parametrize("key", ["task.noise", "network.jitter_ms", "governance.alpha",
                                     "governance.beta", "governance.gamma", "attack.shadows",
                                     "attack.probes", "policy.max_rounds"])
    def test_removed_key_in_config_exits_2(self, tmp_path, capsys, key):
        path = tmp_path / "exp.cfg"
        path.write_text(f"seed=1\n{key}=1\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"line 2: unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        if command == "run":
            args = ["run", "--config", str(cfg_file(tmp_path))]
        else:
            records = tmp_path / "report.records"
            records.write_text('{"kind": "meta", "config_hash": "x", "seed": 1, '
                               '"status": "completed"}\n')
            args = ["report", "--records", str(records)]
        assert main(args + ["--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write output:") and "Traceback" not in err
        assert taken.read_text() == "not a directory\n"


class TestVerifyAudit:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        config = cfg_file(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out)])
        return {
            "chain": out / "audit.chain",
            "proof": out / "inst00.budget.proof",
            "policy": out / "audit.policy",
        }

    def test_compliant_run_exits_zero(self, artifacts):
        assert main(["verify-audit", "--chain", str(artifacts["chain"]),
                     "--proof", str(artifacts["proof"]),
                     "--policy", str(artifacts["policy"])]) == 0

    def test_tampered_proof_exits_two(self, artifacts, tmp_path):
        text = artifacts["proof"].read_text()
        i = text.index("chain_head=") + len("chain_head=")
        flip = "0" if text[i] != "0" else "1"
        bad = tmp_path / "bad.proof"
        bad.write_text(text[:i] + flip + text[i + 1:])
        assert main(["verify-audit", "--chain", str(artifacts["chain"]),
                     "--proof", str(bad),
                     "--policy", str(artifacts["policy"])]) == 2

    def test_stricter_policy_exits_one(self, artifacts, tmp_path):
        text = artifacts["policy"].read_text().replace(
            "max_epsilon_per_institution=4.0", "max_epsilon_per_institution=0.5")
        strict = tmp_path / "strict.policy"
        strict.write_text(text)
        assert main(["verify-audit", "--chain", str(artifacts["chain"]),
                     "--proof", str(artifacts["proof"]),
                     "--policy", str(strict)]) == 1

    def test_unparseable_exits_three_with_location(self, artifacts, tmp_path, capsys):
        mangled = tmp_path / "mangled.chain"
        lines = artifacts["chain"].read_text().split("\n")
        lines[2] = "zzz"
        mangled.write_text("\n".join(lines))
        assert main(["verify-audit", "--chain", str(mangled),
                     "--proof", str(artifacts["proof"]),
                     "--policy", str(artifacts["policy"])]) == 3
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name, line_no", [("max_epsilon_per_institution", 2),
                                               ("min_sigma_floor", 3)])
    def test_non_finite_policy_value_exits_three(self, artifacts, tmp_path, capsys,
                                                 name, line_no, value):
        # an infinite cap would pass every budget proof as compliant
        lines = artifacts["policy"].read_text().split("\n")
        assert lines[line_no - 1].startswith(f"{name}=")
        lines[line_no - 1] = f"{name}={value}"
        edited = tmp_path / "edited.policy"
        edited.write_text("\n".join(lines))
        assert main(["verify-audit", "--chain", str(artifacts["chain"]),
                     "--proof", str(artifacts["proof"]),
                     "--policy", str(edited)]) == 3
        assert f"line {line_no}" in capsys.readouterr().err

    def test_sigma_claim_is_unparseable_exits_three(self, artifacts, tmp_path, capsys):
        # the budget claim covers the sigma floor, so no other claim names it
        lines = artifacts["proof"].read_text().split("\n")
        assert lines[1].startswith("claim=budget-within-cap ")
        lines[1] = lines[1].replace("claim=budget-within-cap", "claim=sigma-above-floor")
        edited = tmp_path / "sigma.proof"
        edited.write_text("\n".join(lines))
        assert main(["verify-audit", "--chain", str(artifacts["chain"]),
                     "--proof", str(edited),
                     "--policy", str(artifacts["policy"])]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_leading_zero_sequence_exits_three(self, artifacts, tmp_path, capsys):
        # "0" before the first entry's sequence number: same value, other bytes
        header, rest = artifacts["chain"].read_text().split("\n", 1)
        padded = tmp_path / "padded.chain"
        padded.write_text(f"{header}\n0{rest}")
        assert main(["verify-audit", "--chain", str(padded),
                     "--proof", str(artifacts["proof"]),
                     "--policy", str(artifacts["policy"])]) == 3
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("line_end", [b"\r\n", b"\r"])
    def test_other_line_ends_exit_three(self, artifacts, tmp_path, line_end):
        # text mode would turn both back into \n before the strict line check
        files = {name: path.read_bytes().replace(b"\n", line_end)
                 for name, path in artifacts.items()}
        for name, data in files.items():
            (tmp_path / f"{name}.respelled").write_bytes(data)
        assert main(["verify-audit", "--chain", str(tmp_path / "chain.respelled"),
                     "--proof", str(tmp_path / "proof.respelled"),
                     "--policy", str(tmp_path / "policy.respelled")]) == 3
        policy = PolicySpec.read(artifacts["policy"])
        assert audit_verdict(files["chain"], files["proof"], policy) is Verdict.INVALID

    def test_reads_only_the_three_inputs(self, artifacts, monkeypatch):
        # the auditor workflow must not touch datasets, models, or reports
        allowed = {Path(p).name for p in artifacts.values()}
        opened = []
        real_open = builtins.open

        def spy(file, *args, **kwargs):
            opened.append(Path(str(file)).name)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        assert main(["verify-audit", "--chain", str(artifacts["chain"]),
                     "--proof", str(artifacts["proof"]),
                     "--policy", str(artifacts["policy"])]) == 0
        assert set(opened) <= allowed

    def test_chain_rewritten_in_place_is_verified_again(self, artifacts):
        # the chain's bytes, not its path, decide whether it was verified
        chain, proof, policy = artifacts["chain"], artifacts["proof"], artifacts["policy"]
        pristine = chain.read_bytes()
        verified_chain_head.cache_clear()
        codes = []
        for data in (pristine, pristine, flip_a_commitment_bit(pristine), pristine):
            chain.write_bytes(data)
            codes.append(verify(chain, proof, policy))
        assert codes == [0, 0, 2, 0]
        assert verified_chain_head.cache_info().hits == 1

    def test_unparseable_chain_exits_three_on_every_call(self, artifacts, tmp_path, capsys):
        mangled = tmp_path / "mangled.chain"
        lines = artifacts["chain"].read_text().split("\n")
        lines[2] = "zzz"
        mangled.write_text("\n".join(lines))
        errors = []
        for _ in range(2):
            assert verify(mangled, artifacts["proof"], artifacts["policy"]) == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and "line 3" in errors[0]

    def test_failing_chain_with_unparseable_proof_exits_three(self, artifacts, tmp_path):
        # the proof is read before the chain's verdict is acted on, so a
        # remembered failing chain does not hide the unparseable proof
        failing = tmp_path / "failing.chain"
        failing.write_bytes(flip_a_commitment_bit(artifacts["chain"].read_bytes()))
        bad = tmp_path / "bad.proof"
        bad.write_text(artifacts["proof"].read_text().replace("claim=", "claim=x", 1))
        verified_chain_head.cache_clear()
        assert verify(failing, artifacts["proof"], artifacts["policy"]) == 2
        assert verify(failing, bad, artifacts["policy"]) == 3
        verified_chain_head.cache_clear()
        assert verify(failing, bad, artifacts["policy"]) == 3


def test_exit_codes_equal_the_oracle_over_every_proof(tmp_path):
    # a good and a failing chain, under a lax and a strict policy, so that
    # the remembered chain changes from call to call
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_file(tmp_path, dp_enabled=True, agg_mode="secure")),
                 "--out", str(out)]) == 0
    failing = tmp_path / "failing.chain"
    failing.write_bytes(flip_a_commitment_bit((out / "audit.chain").read_bytes()))
    strict = tmp_path / "strict.policy"
    strict.write_text((out / "audit.policy").read_text().replace(
        "max_epsilon_per_institution=4.0", "max_epsilon_per_institution=0.5"))
    proofs = sorted(out.glob("*.proof"))
    assert len(proofs) == 8
    calls = [(chain, proof, policy) for proof in proofs
             for chain in (out / "audit.chain", failing)
             for policy in (out / "audit.policy", strict)]
    expected = [EXIT_OF[audit_verdict(chain.read_bytes(), proof.read_bytes(),
                                      PolicySpec.read(policy))] for chain, proof, policy in calls]
    assert set(expected) == {0, 1, 2}
    for clear_each_call in (False, True):
        codes = []
        for call in calls:
            if clear_each_call:
                verified_chain_head.cache_clear()
            codes.append(verify(*call))
        assert codes == expected


def test_non_object_payload_exits_2_without_traceback(tmp_path, capsys):
    recorder = AuditRecorder(seed=0)
    recorder._append(0, "a", "region-transfer", [1])
    proof = unchecked_proof(recorder, "a", CLAIM_REGION, "-")
    recorder.chain.write(tmp_path / "audit.chain")
    proof.write(tmp_path / "a.proof")
    PolicySpec(4.0, 0.0, frozenset({"us-east"})).write(tmp_path / "audit.policy")
    assert verify(tmp_path / "audit.chain", tmp_path / "a.proof", tmp_path / "audit.policy") == 2
    out, err = capsys.readouterr()
    assert out.startswith("verdict: invalid") and "Traceback" not in err


def test_sigma_floor_above_the_calibrated_sigma_exits_2(tmp_path, capsys):
    config = cfg_file(tmp_path, task_num_samples=300, institutions_count=3, dp_enabled=True,
                      policy_min_sigma_floor=100.0)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert "policy.min_sigma_floor" in capsys.readouterr().err
    assert not out.exists()


class TestSweepAndReport:
    def test_sweep_table_columns(self, tmp_path, capsys):
        config = cfg_file(tmp_path, task_num_samples=800, institutions_count=8)
        assert main(["sweep", "--config", str(config), "--seeds", "2",
                     "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        header = next(l for l in out.split("\n") if l.startswith("metric"))
        assert header.index("no-dp") < header.index("eps=4") < header.index("eps=2")

    def test_grid_epsilon_below_the_sigma_floor_exits_2(self, tmp_path, capsys):
        # the base config's sigma (0.99) meets the floor; eps=16's (0.25) does not
        config = cfg_file(tmp_path, policy_min_sigma_floor=0.5)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--grid", "inf,16",
                     "--seeds", "1", "--out", str(out)]) == 2
        assert "policy.min_sigma_floor" in capsys.readouterr().err
        assert not out.exists()

    def test_report_rerenders_records(self, tmp_path, capsys):
        config = cfg_file(tmp_path)
        main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        capsys.readouterr()
        records = tmp_path / "out" / "report.records"
        assert main(["report", "--records", str(records)]) == 0
        assert "privfed report" in capsys.readouterr().out


    def test_report_on_malformed_records_exits_three(self, tmp_path, capsys):
        records = tmp_path / "report.records"
        records.write_text('{"kind": "meta", "seed": 1}\n{"kind": "round", \n')
        assert main(["report", "--records", str(records)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse failure: line 2:")
        assert "Traceback" not in err


def test_govern_train_smoke(tmp_path, capsys):
    config = cfg_file(tmp_path, governance_enabled=True, governance_episodes=5)
    assert main(["govern-train", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("episodes=5 violations")
    assert (tmp_path / "out" / "report.records").exists()
    assert (tmp_path / "out" / "report.txt").exists()


def test_govern_train_and_run_write_one_governance_block(tmp_path):
    config = cfg_file(tmp_path, governance_enabled=True, governance_episodes=3)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    assert main(["govern-train", "--config", str(config),
                 "--out", str(tmp_path / "gov")]) == 0

    def governance_lines(name):
        return [line for line in report_body_lines(tmp_path / name / "report.records")
                if '"kind": "governance-' in line]

    run_lines = governance_lines("run")
    assert any('"kind": "governance-summary"' in line for line in run_lines)
    assert governance_lines("gov") == run_lines


def test_govern_train_zero_episodes_exits_2(tmp_path, capsys):
    # govern-train trains whether or not the config enables governance in runs
    config = cfg_file(tmp_path, governance_enabled=False, governance_episodes=0)
    assert main(["govern-train", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 2
    assert "governance.episodes: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.records").exists()


@pytest.mark.parametrize("argv", [["attack", "--strong-sigma", "1", "--pairs", "1"],
                                  ["govern-train", "--episodes", "3"]],
                         ids=["attack-strong-sigma", "govern-train-episodes"])
def test_removed_flags_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    # the strong sigma is a constant and the episode count a config key
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_attack_zero_pairs_exits_2(tmp_path, capsys):
    assert main(["attack", "--pairs", "0", "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "--pairs" in captured.err and "nan" not in captured.out


def test_attack_takes_no_config(tmp_path, capsys, monkeypatch):
    # the study is fixed by its constants and flags, so --config is a usage error
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["attack", "--config", "x.cfg", "--pairs", "1"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("dp.epsilon", "inf"), ("lr", "nan"),
                                       ("network.latency_ms", "inf")])
def test_non_finite_config_value_exits_2(tmp_path, capsys, key, value):
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key}={value}\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{key}: must be a finite number" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("config,message", [
    # plain averaging diverges to non-finite weights
    ("task.kind=regression\nlr=1e6\nrounds=20\nagg.mode=plain\ndp.enabled=false\n",
     "non-finite"),
    # secure aggregation refuses a weight past its fixed-point range
    ("task.kind=regression\nlr=10\nagg.mode=secure\ndp.enabled=false\n",
     "fixed-point range"),
    # noise so large that encoding overflows to inf, which the range check refuses
    ("dp.epsilon=1e-300\n", "fixed-point range"),
    # a finite latency whose sum overflows the virtual clock in round 0
    ("network.latency_ms=1e308\n", "clock"),
])
def test_numeric_failure_exits_6_without_traceback(tmp_path, capsys, config, message):
    path = tmp_path / "exp.cfg"
    path.write_text(config + "task.num_samples=300\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 6
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and message in err
    assert "Traceback" not in err
    assert not (out / "trace.records").exists()


def test_clock_overflow_in_sweep_exits_6_without_traceback(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("network.latency_ms=1e308\ntask.num_samples=300\n")
    out = tmp_path / "out"
    assert main(["sweep", "--grid", "inf", "--seeds", "1", "--config", str(path),
                 "--out", str(out)]) == 6
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and "clock" in err
    assert "Traceback" not in err
    assert not (out / "report.records").exists()


def test_report_on_number_past_float_range_exits_3(tmp_path, capsys):
    records = tmp_path / "report.records"
    records.write_text('{"kind": "meta", "config_hash": "x", "seed": 1, "status": "completed"}\n'
                       '{"kind": "round", "accuracy": 1e999}\n')
    assert main(["report", "--records", str(records)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse failure: line 2:") and "float range" in err


def test_report_on_wrong_typed_field_exits_3(tmp_path, capsys):
    records = tmp_path / "report.records"
    records.write_text('{"kind": "meta", "config_hash": "x", "seed": 1, "status": "completed"}\n'
                       '{"kind": "round", "accuracy": "high"}\n')
    assert main(["report", "--records", str(records)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse failure:") and "accuracy" in err


# A small secure-aggregation DP run. The masks cancel exactly, and the
# regression task's MAE moves with the last bits of the aggregate, so its
# report body pins the fixed-point sum (2^-32 resolution) of the masked
# updates. The bodies carry config_hash, which does not cover the output
# directory. The chain digest covers its closing chain-seal line, and the
# proof digest the key-table proof format (privfed-compliance-proof/2).
# The trace digest pins the virtual clock and the event order of every
# round; both task kinds write the same trace.
GOLDEN_CONFIG = ("task.num_samples=300\ninstitutions.count=5\nrounds=2\nlocal_epochs=2\n"
                 "lr=1.0\ndp.enabled=true\nagg.mode=secure\nseed=11\n")
GOLDEN_CHAIN = "79e13e370567061620ad3a6fb58a81af8a1133164dc4dff2b0cef56c1b72498c"
GOLDEN_PROOF = "02d933204f12740d673f08d6b86d7fea89c6f3340a7b19b84c92bd1a349ac656"
GOLDEN_TRACE = "acec8d027f7f019794fe9a9e925aa972f7a6c3ff93db3abbd3bac64a91e6bc8e"
GOLDEN_BODY = {
    "binary-classification": "23016e3468db93108227d866ae9e726b45a5df80acd3b3e8aabba6b6758767b0",
    "regression": "de8b7aa7f6cca503b61f4d6616a2ff2e3d636ef5e032711b5722a90b79c8bbb0",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_BODY))
def test_secure_dp_run_matches_golden_digests(tmp_path, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)  # the run writes to the default directory, ./out
    monkeypatch.delenv("PRIVFED_OUT", raising=False)
    Path("exp.cfg").write_text(f"task.kind={kind}\n" + GOLDEN_CONFIG)
    assert main(["run", "--config", "exp.cfg"]) == 0
    out = Path("out")

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    body = "\n".join(report_body_lines(out / "report.records")).encode()
    assert digest(body) == GOLDEN_BODY[kind]
    assert digest((out / "audit.chain").read_bytes()) == GOLDEN_CHAIN
    assert digest((out / "inst00.budget.proof").read_bytes()) == GOLDEN_PROOF
    assert digest((out / "trace.records").read_bytes()) == GOLDEN_TRACE


# The golden run with dropouts and unequal institution sizes: inst00 (90
# samples) drops in round 0 and no round loses every institution, so the
# trace pins the clock over a survivor subset, a stacked group of three
# 60-sample institutions and a lone 30-sample one.
DROPOUT_GOLDEN_TRACE = "705ed7e3f62da03a650a4fc3e04ca336414635b2e5f1175e6ff690b72e9059bc"


def test_dropout_run_matches_golden_trace(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(GOLDEN_CONFIG + "network.drop_probability=0.3\n"
                    "institutions.sizes=90,60,60,60,30\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    trace = (out / "trace.records").read_bytes()
    assert trace.count(b'"kind": "drop"') == 1 and b"round failed" not in trace
    assert hashlib.sha256(trace).hexdigest() == DROPOUT_GOLDEN_TRACE


# The same run with the membership attack (its DP shadow recipe) and three
# governance episodes (the scenario's train, clip-and-noise, charge and
# average steps) on. The body digests were recorded before those paths
# shared the federation's round steps; the chain digest when the governance
# chain came to hold only the evaluation rollouts, sealed.
GOVERNED_GOLDEN_CONFIG = (GOLDEN_CONFIG + "attack.enabled=true\ngovernance.enabled=true\n"
                          "governance.episodes=3\n")
GOVERNED_GOLDEN_CHAIN = "8db0d548ee4fce09d2af13fe9c523aff289bfe6f838d060616a073f96a60698e"
GOVERNED_GOLDEN_BODY = {
    "binary-classification": "2e0f0357fc715391adf49bbaa69d1677c2f10af87b5f9e101bd2a17538b92b44",
    "regression": "13ad82108181fc2409d56fca9fcea052065d4617a7093ff1c0486c3a7107e6e7",
}


@pytest.mark.parametrize("kind", sorted(GOVERNED_GOLDEN_BODY))
def test_governed_attack_run_matches_golden_digests(tmp_path, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PRIVFED_OUT", raising=False)
    Path("exp.cfg").write_text(f"task.kind={kind}\n" + GOVERNED_GOLDEN_CONFIG)
    assert main(["run", "--config", "exp.cfg"]) == 0
    out = Path("out")
    body = "\n".join(report_body_lines(out / "report.records")).encode()
    assert hashlib.sha256(body).hexdigest() == GOVERNED_GOLDEN_BODY[kind]
    chain = (out / "governance.chain").read_bytes()
    assert hashlib.sha256(chain).hexdigest() == GOVERNED_GOLDEN_CHAIN


# The attack study's report body pins every threshold search and rank AUC
# of its 3 overfit pairs. Its config_hash is the constant "attack-study", so
# the output directory does not enter it. Recorded with the loop
# implementations that tests/support.py keeps as oracles.
ATTACK_GOLDEN_BODY = "820ee3f2367591c80f99b30fb0731e8d19198f5217812f2fbe11770cd7adff0c"


def test_attack_study_matches_golden_digest(tmp_path):
    out = tmp_path / "out"
    assert main(["attack", "--pairs", "3", "--out", str(out)]) == 0
    body = "\n".join(report_body_lines(out / "report.records")).encode()
    assert hashlib.sha256(body).hexdigest() == ATTACK_GOLDEN_BODY


@pytest.mark.parametrize("argv", [
    ["run", "--config", "missing.cfg"],
    ["sweep", "--grid", "abc"],
    ["sweep", "--grid=-1"],
    ["sweep", "--grid", "1e400"],
    ["sweep", "--seeds", "0"],
    ["sweep", "--seeds=-2"],
    ["sweep", "--grid", "4,4.0"],
    ["sweep", "--grid", "inf,2,none"],
])
def test_bad_config_input_exits_2_without_traceback(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_main_called_again_prints_and_exits_as_a_fresh_call(tmp_path, monkeypatch, capsys):
    # one process calling main over and over, as an auditor does, against
    # the same calls each given a newly built parser and no remembered chain
    config = str(cfg_file(tmp_path))
    audit = tmp_path / "audit"
    assert main(["run", "--config", config, "--out", str(audit)]) == 0
    text = (audit / "inst00.budget.proof").read_text()
    i = text.index("chain_head=") + len("chain_head=")
    tampered = tmp_path / "tampered.proof"
    tampered.write_text(text[:i] + ("0" if text[i] != "0" else "1") + text[i + 1:])
    lines = (audit / "audit.chain").read_text().split("\n")
    lines[2] = "zzz"
    mangled = tmp_path / "mangled.chain"
    mangled.write_text("\n".join(lines))
    records = str(audit / "report.records")

    def verify(chain, proof):
        return ["verify-audit", "--chain", str(chain), "--proof", str(proof),
                "--policy", str(audit / "audit.policy")]

    calls = [
        verify(audit / "audit.chain", audit / "inst00.budget.proof"),
        verify(audit / "audit.chain", tampered),
        verify(mangled, audit / "inst00.budget.proof"),
        ["run", "--config", config, "--seed", "5", "--out", "seed5"],
        ["run", "--config", config, "--out", "config-seed"],
        ["report", "--records", records, "--out", "table"],
        ["report", "--records", records],
        ["verify-audit", "--chain", str(mangled)],
    ]

    def session(name, fresh_each_call):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        capsys.readouterr()
        build_parser.cache_clear()
        verified_chain_head.cache_clear()
        results = []
        for argv in calls:
            if fresh_each_call:
                build_parser.cache_clear()
                verified_chain_head.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            written = sorted(p.as_posix() for p in Path().rglob("*"))
            shutil.rmtree("table", ignore_errors=True)  # so a leaked --out would show
            results.append((code, out, err, written))
        return results

    fresh = session("fresh", True)
    reused = session("reused", False)
    assert build_parser.cache_info().misses == 1
    assert verified_chain_head.cache_info().hits == 1  # the second call's chain
    assert reused == fresh
    assert [code for code, *_ in reused] == [0, 2, 3, 0, 0, 0, 0, 2]
    assert "table/report.txt" in reused[5][3] and "table" not in reused[6][3]
    assert '"seed": 5' in (tmp_path / "reused" / "seed5" / "report.records").read_text()
    assert '"seed": 3' in (tmp_path / "reused" / "config-seed" / "report.records").read_text()
