import builtins
import hashlib
from pathlib import Path

import pytest

from privfed.cli import main
from privfed.compliance import PolicySpec, Verdict, audit_verdict
from privfed.config import ExperimentConfig, canonical_text

from support import report_body_lines


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
    assert main(["govern-train", "--config", str(config), "--episodes", "5",
                 "--out", str(tmp_path / "out")]) == 0
    assert "violations" in capsys.readouterr().out
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
    config = cfg_file(tmp_path, governance_enabled=True, governance_episodes=5)
    assert main(["govern-train", "--config", str(config), "--episodes", "0",
                 "--out", str(tmp_path / "out")]) == 2
    assert "--episodes" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.records").exists()


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


@pytest.mark.parametrize("config,message", [
    # plain averaging diverges to non-finite weights
    ("task.kind=regression\nlr=1e6\nrounds=20\nagg.mode=plain\ndp.enabled=false\n",
     "non-finite"),
    # secure aggregation refuses a weight past its fixed-point range
    ("task.kind=regression\nlr=10\nagg.mode=secure\ndp.enabled=false\n",
     "fixed-point range"),
])
def test_numeric_failure_exits_6_without_traceback(tmp_path, capsys, config, message):
    path = tmp_path / "exp.cfg"
    path.write_text(config + "task.num_samples=300\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 6
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and message in err
    assert "Traceback" not in err


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
GOLDEN_CONFIG = ("task.num_samples=300\ninstitutions.count=5\nrounds=2\nlocal_epochs=2\n"
                 "lr=1.0\ndp.enabled=true\nagg.mode=secure\nseed=11\n")
GOLDEN_CHAIN = "79e13e370567061620ad3a6fb58a81af8a1133164dc4dff2b0cef56c1b72498c"
GOLDEN_PROOF = "02d933204f12740d673f08d6b86d7fea89c6f3340a7b19b84c92bd1a349ac656"
GOLDEN_BODY = {
    "binary-classification": "d586324edda6ff2665ff2fd721fca00f8ef6b48f9e25f95e5418419f5626c2b2",
    "regression": "449720388ec8d5416c986c46dded50c956e2c1be14a789e3a89eca8da56b298a",
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


# The same run with the membership attack (its DP shadow recipe) and three
# governance episodes (the scenario's train, clip-and-noise, charge and
# average steps) on; digests recorded before those paths shared the
# federation's round steps.
GOVERNED_GOLDEN_CONFIG = (GOLDEN_CONFIG + "attack.enabled=true\ngovernance.enabled=true\n"
                          "governance.episodes=3\n")
GOVERNED_GOLDEN_CHAIN = "48a134f4b2541d71e6e0267e104cfd6e504083cbfa3322bd2710d9726784eafd"
GOVERNED_GOLDEN_BODY = {
    "binary-classification": "ee37dcde86b08e1e5c02df2e63cf7fc1ec0eca18d2a3c49c18b62d0581f99a33",
    "regression": "068a764bce45c20414b6e5ba358c6c385db3aba1f5e6b71008ca1b95cf721bd1",
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
