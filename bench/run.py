#!/usr/bin/env python3
"""Benchmark of privfed: a pipeline run plus an auditor's verification of it.

Usage, from the root of a checkout:

    python3 bench/run.py --workload wide-secure --seed 1 --seconds 30 --trace 0

Each round calls ``privfed run`` on the workload's generated config, then the
audit phase: ``privfed verify-audit`` once per written proof, a read and
verify of ``governance.chain`` where one was written, and the tamper
controls. Both jobs go through ``privfed.cli.main`` in this process, with the
program's printing captured. Rounds repeat until ``--seconds`` have passed.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (medians over the rounds). Times are wall times scaled by
the host's speed, sampled with a short loop before, during and after each
timed phase (see hostspeed.py). With ``--trace 1`` untraced and
traced rounds alternate, and the object holds the per-layer metrics of the
traced rounds and ``trace.overhead_s``, the traced minus the untraced
``run_s``. Details go to ``.bench/BENCH_<workload>[.trace].json``.

One process, one thread: BLAS is pinned to one thread before numpy loads.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
from audit import CONTROLS, audit  # noqa: E402
from checks import check_run, strict_json_lines  # noqa: E402
from tracer import COUNTER_NAMES, SPAN_NAMES, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench"


def process_age() -> float:
    """Seconds since this process started (the start is known to 10 ms)."""
    with open("/proc/self/stat", encoding="ascii") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def load_privfed():
    """privfed's CLI entry point and AuditChain, imported from this checkout."""
    if not (SRC / "privfed" / "__init__.py").is_file():
        raise SystemExit(f"bench: no privfed sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import privfed.cli
    import privfed.compliance

    if Path(privfed.__file__).resolve().parent != (SRC / "privfed").resolve():
        raise SystemExit(f"bench: imported privfed from {privfed.__file__}, not {SRC}")
    return privfed.cli.main, privfed.compliance.AuditChain


@dataclass
class Round:
    traced: bool
    run_s: float = 0.0  # scaled to the reference host speed (hostspeed.py)
    audit_s: float = 0.0
    run_wall_s: float = 0.0
    audit_wall_s: float = 0.0
    run_loop_s: float = 0.0  # mean probe loop time over the phase
    audit_loop_s: float = 0.0
    artifact_bytes: int = 0
    proof_bytes: int = 0
    accuracy: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


@dataclass
class Bench:
    workload: str
    seed: int
    work: Path
    cli_main: object
    chain_cls: object
    setup_wall_s: float | None = None
    setup_s: float | None = None

    @property
    def config(self) -> Path:
        return self.work / "run.cfg"

    @property
    def out(self) -> Path:
        return self.work / "out"

    def round(self, tracer: Tracer | None = None) -> Round:
        result = Round(traced=tracer is not None)
        shutil.rmtree(self.out, ignore_errors=True)
        shutil.rmtree(self.work / "tamper", ignore_errors=True)
        phase = tracer.root if tracer is not None else (lambda name: contextlib.nullcontext())
        if self.setup_wall_s is None:
            self.setup_wall_s = process_age()

        with hostspeed.SpeedProbe() as speed, phase("run"), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli_main(["run", "--config", str(self.config), "--out", str(self.out)])
        result.run_s, result.run_wall_s, result.run_loop_s = speed.scaled_s, speed.wall_s, speed.loop_s
        if self.setup_s is None:  # the first loops ran right after set-up
            self.setup_s = hostspeed.scaled(self.setup_wall_s, speed.points[0][1])
        result.attempted += 1
        if code != 0:
            result.failed += 1
            result.failures.append(f"privfed run exited {code}")
        files = [f for f in self.out.rglob("*") if f.is_file()]
        result.artifact_bytes = sum(f.stat().st_size for f in files)
        result.proof_bytes = sum(f.stat().st_size for f in files if f.suffix == ".proof")

        with hostspeed.SpeedProbe() as speed, phase("audit"):
            outcome = audit(self.cli_main, self.chain_cls, self.out, self.work / "tamper",
                            self.seed)
        result.audit_s, result.audit_wall_s, result.audit_loop_s = (
            speed.scaled_s, speed.wall_s, speed.loop_s)
        result.attempted += outcome.proofs + len(CONTROLS)
        result.failed += outcome.proofs_failed + len(outcome.controls_failed)
        if outcome.proofs_failed:
            result.failures.append(f"{outcome.proofs_failed} proofs not verified compliant")
        result.failures += [f"tamper control {name} accepted" for name in outcome.controls_failed]

        spec = WORKLOADS[self.workload]
        result.problems = check_run(self.out, spec)
        if spec.get("governance.enabled") == "true" and outcome.governance_chain_ok is not True:
            result.problems.append("governance.chain: missing or fails verification")
        if not result.problems:
            final = next(r for r in strict_json_lines(self.out / "report.records")
                         if r["kind"] == "final-metric")
            result.accuracy = final["accuracy"]
        return result


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(bench: Bench, rounds: list[Round]) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (bench.setup_s, "s"),
        "run_s": (median([r.run_s for r in rounds]), "s"),
        "audit_s": (median([r.audit_s for r in rounds]), "s"),
        "artifact_bytes": (median([r.artifact_bytes for r in rounds]), "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "final_accuracy": (median([r.accuracy for r in rounds]), "fraction"),
    }


def per_layer(untraced: list[Round], traced: list[Round],
              layers: list[dict]) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        rows = [layer["spans"].get(name, {"calls": 0, "self_s": 0.0}) for layer in layers]
        metrics[f"{name}.calls"] = (statistics.median_low([row["calls"] for row in rows]), "count")
        metrics[f"{name}.self_s"] = (median([row["self_s"] for row in rows]), "s")
    for name in COUNTER_NAMES:
        metrics[name] = (statistics.median_low([layer["counts"].get(name, 0) for layer in layers]), "count")
    ratios = []
    for layer in layers:
        headers = layer["counts"].get("compliance.proof_headers", 0)
        opened = layer["counts"].get("compliance.opened_records", 0)
        ratios.append(opened / headers if headers else 1.0)
    metrics["compliance.disclosure_ratio"] = (median(ratios), "ratio")
    metrics["compliance.proof_bytes"] = (median([r.proof_bytes for r in traced]), "bytes")
    metrics["trace.overhead_s"] = (median([r.run_s for r in traced])
                                   - median([r.run_s for r in untraced]), "s")
    return metrics


def host() -> dict[str, object]:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cli_main, chain_cls = load_privfed()
    RESULTS.mkdir(exist_ok=True)
    work = RESULTS / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    bench = Bench(args.workload, args.seed, work, cli_main, chain_cls)
    bench.config.write_text(config_text(args.workload, args.seed), encoding="utf-8")

    untraced: list[Round] = []
    traced: list[Round] = []
    layers: list[dict] = []
    tracer = Tracer()
    crashed = None
    try:
        begin = time.perf_counter()
        while not untraced or time.perf_counter() - begin < args.seconds:
            untraced.append(bench.round())
            if args.trace:
                tracer.reset()
                tracer.install()
                try:
                    traced.append(bench.round(tracer))
                finally:
                    tracer.uninstall()
                layers.append({"spans": summarize(tracer.spans), "counts": dict(tracer.counts)})
    except Exception:  # a crash of the program under test: report it, not hide it
        crashed = traceback.format_exc()
        print(crashed, file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = untraced + traced
    problems = sorted({p for r in rounds for p in r.problems})
    failures = sorted({f for r in rounds for f in r.failures})
    attempted = sum(r.attempted for r in rounds) + (crashed is not None)
    failed = sum(r.failed for r in rounds) + (crashed is not None)
    correct = crashed is None and not problems and bool(untraced)
    if args.trace and traced:
        metrics = per_layer(untraced, traced, layers)
    elif not args.trace and untraced:
        metrics = end_to_end(bench, untraced)
    else:
        metrics = {}

    reported = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host(), "config": config_text(args.workload, args.seed),
        "setup_wall_s": bench.setup_wall_s, "reference_loop_s": hostspeed.REFERENCE_S,
        "rounds": [vars(r) for r in rounds],
        "problems": problems, "failures": failures,
        "absent": tracer.absent, "crash": crashed, "metrics": reported,
    }
    if layers:
        details["spans"] = layers[-1]["spans"]
        with (RESULTS / f"spans_{args.workload}.jsonl").open("w", encoding="utf-8") as f:
            for span in tracer.spans:  # the last traced round: name, parent, start, end
                f.write(json.dumps(span) + "\n")
    suffix = ".trace" if args.trace else ""
    (RESULTS / f"BENCH_{args.workload}{suffix}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True), encoding="utf-8")

    for line in problems:
        print(f"problem: {line}")
    for line in failures:
        print(f"failed: {line}")
    for name in tracer.absent:
        print(f"absent: {name} (reported as zero)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
