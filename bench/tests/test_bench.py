"""Tests of the benchmark's own parts: span arithmetic, the privacy check,
the correctness checks and the tamper controls.

Run with ``python3 -m pytest bench/tests`` from the root of the checkout.
"""

import dataclasses
import itertools
import math
import signal

import numpy as np
import pytest
from scipy.stats import norm

import privfed.federation
import privfed.tasks
import hostspeed
from audit import CONTROLS, run_control
from checks import analytic_gaussian_delta, check_run, strict_json_lines
from privfed.cli import main as cli_main
from tracer import Target, Tracer, covered_length, self_times, summarize
from workloads import config_text

# -- self time ------------------------------------------------------------------


def test_self_times_on_hand_built_spans():
    spans = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),     # one child, b
        ("b", 1, 2.0, 3.0),
        ("c", 0, 5.0, 9.0),     # two overlapping children, d and e
        ("d", 3, 6.0, 7.0),
        ("e", 3, 6.5, 8.0),
        ("f", 0, 9.5, 11.0),    # runs past its parent's end
    ]
    # root: 10 - (3 + 4 + 0.5 clipped); c: 4 - |[6, 8]|
    assert self_times(spans) == pytest.approx([2.5, 2.0, 1.0, 2.0, 1.0, 1.5, 1.5])


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8), (9, 12)], 0, 10) == pytest.approx(6.0)
    assert covered_length([], 0, 10) == 0.0


def test_tracer_spans_nest_and_summarize():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    inner = tracer.span("inner", lambda: 1)
    outer = tracer.span("outer", lambda: inner() + inner())
    with tracer.root("run"):
        assert outer() == 2
    # clock reads: run 0; outer 1; inner 2,3; inner 4,5; outer 6; run 7
    table = summarize(tracer.spans)
    assert table["inner"] == {"calls": 2, "self_s": 2.0, "total_s": 2.0}
    assert table["outer"]["self_s"] == pytest.approx(5.0 - 2.0)
    assert table["run"]["self_s"] == pytest.approx(7.0 - 5.0)
    assert [parent for _, parent, _, _ in tracer.spans] == [-1, 0, 1, 1]


def test_install_patches_bound_names_and_uninstall_restores():
    original = privfed.tasks.local_train
    assert privfed.federation.local_train is original
    tracer = Tracer()
    tracer.install()
    try:
        assert privfed.tasks.local_train is not original
        assert privfed.federation.local_train is privfed.tasks.local_train
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    assert privfed.tasks.local_train is original
    assert privfed.federation.local_train is original


def test_missing_target_is_absent_not_an_error(monkeypatch):
    import tracer as tracer_module

    gone = (Target("tasks.gone", "privfed.tasks", "no_such_function"),
            Target("x.gone", "privfed.no_such_module", "f"),
            Target("y.gone", "privfed.dp", "NoSuchClass.method"))
    monkeypatch.setattr(tracer_module, "SPAN_TARGETS", gone)
    monkeypatch.setattr(tracer_module, "COUNT_TARGETS", ())
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["privfed.tasks:no_such_function", "privfed.no_such_module:f",
                             "privfed.dp:NoSuchClass.method"]


# -- host-speed scaling -------------------------------------------------------------


def test_reference_time_weights_each_stretch_by_its_speed():
    ref = hostspeed.REFERENCE_S
    # constant speed: wall time times REFERENCE_S / loop time
    assert hostspeed.reference_time([(0.0, 2 * ref), (3.0, 2 * ref)]) == pytest.approx(1.5)
    # 2 s at full speed, then 2 s at half speed: 2 + 1 reference seconds
    points = [(0.0, ref), (2.0, ref), (2.0, 2 * ref), (4.0, 2 * ref)]
    assert hostspeed.reference_time(points) == pytest.approx(3.0)


def test_speed_probe_samples_during_the_phase_and_disarms():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedProbe() as speed:
        end = speed.clock() + 3.5 * hostspeed.INTERVAL_S
        while speed.clock() < end:
            pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    times = [t for t, _ in speed.points]
    assert len(times) >= 4 and times == sorted(times)
    assert times[-1] == speed.wall_s < 3.5 * hostspeed.INTERVAL_S
    assert speed.scaled_s > 0


# -- the analytic Gaussian delta ----------------------------------------------------


def monte_carlo_delta(epsilon, sigma, sensitivity, samples=2_000_000, seed=7):
    """delta(eps) = E[(1 - exp(eps - L))_+] over the privacy loss L of one
    Gaussian release, sampled from output draws, not from a formula for L's law."""
    x = np.random.default_rng(seed).normal(0.0, sigma, size=samples)
    log_p = -x ** 2 / (2 * sigma ** 2)
    log_q = -(x - sensitivity) ** 2 / (2 * sigma ** 2)
    values = np.maximum(0.0, 1.0 - np.exp(epsilon - (log_p - log_q)))
    return values.mean(), values.std() / math.sqrt(samples)


@pytest.mark.parametrize("epsilon,sigma,sensitivity", [
    (1.0, 1.0, 1.0), (0.5, 2.0, 1.0), (2.0, 0.989, 0.5), (4.0, 0.3, 0.5)])
def test_delta_matches_monte_carlo(epsilon, sigma, sensitivity):
    estimate, stderr = monte_carlo_delta(epsilon, sigma, sensitivity)
    assert analytic_gaussian_delta(epsilon, sigma, sensitivity) == pytest.approx(
        estimate, abs=5 * stderr + 1e-9)


@pytest.mark.parametrize("epsilon,sigma,sensitivity", [
    (1.0, 1.0, 1.0), (17.37444921559508, 0.125, 0.5), (8.68722460779754, 0.25, 0.5),
    (0.1, 5.0, 1.0), (40.0, 0.05, 0.5)])
def test_delta_matches_scipy(epsilon, sigma, sensitivity):
    a, b = sensitivity / (2 * sigma), epsilon * sigma / sensitivity
    expected = norm.cdf(a - b) - math.exp(epsilon) * norm.cdf(-a - b)
    assert analytic_gaussian_delta(epsilon, sigma, sensitivity) == pytest.approx(
        expected, rel=1e-9, abs=1e-15)


# -- correctness checks and tamper controls on a small real run --------------------

SMALL = {"task.num_samples": 400, "institutions.count": 4, "rounds": 2,
         "local_epochs": 2, "dp.enabled": "true", "agg.mode": "secure",
         "governance.enabled": "false"}


@pytest.fixture()
def small_run(tmp_path, monkeypatch):
    import workloads

    monkeypatch.setitem(workloads.WORKLOADS, "small", SMALL)
    config = tmp_path / "run.cfg"
    config.write_text(config_text("small", 5))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
    return out


def test_checks_pass_on_a_correct_run(small_run):
    assert check_run(small_run, SMALL) == []


def test_checks_catch_a_ledger_that_disagrees_with_its_proof(small_run):
    ledger = small_run / "inst01.ledger"
    text = ledger.read_text()
    ledger.write_text(text.replace(" epsilon=2.0 ", " epsilon=1.5 ", 1))
    assert text != ledger.read_text()
    assert any("inst01.budget.proof" in p for p in check_run(small_run, SMALL))


def test_checks_catch_an_undersized_sigma(small_run):
    ledger = small_run / "inst02.ledger"
    lines = ledger.read_text().split("\n")
    lines[1] = " ".join("sigma=0.05" if t.startswith("sigma=") else t
                        for t in lines[1].split())
    ledger.write_text("\n".join(lines))
    assert any("inst02.ledger round 0" in p for p in check_run(small_run, SMALL))


def test_strict_json_rejects_nan_and_infinity(tmp_path):
    path = tmp_path / "x.records"
    path.write_text('{"a": 1}\n\n')
    assert strict_json_lines(path) == [{"a": 1}]
    for bad in ('{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}'):
        path.write_text(bad + "\n")
        with pytest.raises(ValueError):
            strict_json_lines(path)


def _files(out):
    return {"chain": out / "audit.chain", "proof": out / "inst00.budget.proof",
            "policy": out / "audit.policy"}


@pytest.mark.parametrize("control", CONTROLS, ids=lambda c: c.name)
def test_each_control_fails_on_the_pristine_file(small_run, tmp_path, control):
    pristine = dataclasses.replace(control, mutate=lambda data, seed, label: data)
    passed, code = run_control(cli_main, pristine, _files(small_run), tmp_path, seed=3)
    assert (passed, code) == (False, 0)


@pytest.mark.parametrize("name", ["chain-bit-flip", "proof-bit-flip"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bit_flip_controls_pass(small_run, tmp_path, name, seed):
    control = next(c for c in CONTROLS if c.name == name)
    passed, code = run_control(cli_main, control, _files(small_run), tmp_path, seed)
    assert passed and code in (2, 3)
