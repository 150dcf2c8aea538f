"""bernstein-lab benchmark: CLI workloads end to end, and a per-layer split from a traced run.

Usage, from the root of the repository:

    python3 bench/run.py --workload verify-mix --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1

``--trace 0`` is the timed run. It measures set-up (a fresh interpreter until
``bernstein_lab.cli`` is imported, several times, median), then repeats the
workload's invocations as child processes with the default ``--jobs`` for
``--seconds`` seconds, starting no round that would end past them. One round
is one pass over the invocations, each round with its own CLI seed derived
from ``--seed``. This one process generates the load, starting one invocation
at a time (a closed loop with one client). End-to-end metrics are medians over
rounds:

    setup_s        s     fresh interpreter until bernstein_lab.cli is imported
    wall_s         s     first CLI start to last output written; +inf if any
                         operation of the run failed
    goodput_per_s  1/s   correct operations per wall second: samples with a
                         correct report (verify), objective evaluations of
                         passing searches (extremal)
    cpu_s          s     user + system time of the CLI processes and pool workers
    peak_rss_mb    MB    largest resident set of a CLI process or one of its workers

An operation is one sample of a verify sweep, or one extremal search. A sample
fails on a failed verdict or a disagreement with the 50-digit oracle, and every
sample of an invocation that writes no report fails. A search fails on a
non-zero exit, a best ratio outside [0.999, 1 + 1e-6], or any anomaly.

``--trace 1`` runs round 0 three times: as child processes with the default
``--jobs`` (for the pool's idle share), then in this process with ``--jobs 1``
untraced, then traced with layer wrappers (see tracing.py). It prints the
per-layer metrics, checks that all three runs wrote byte-identical files, and
checks the exact root-solve counts the workloads promise.

Both modes check every output and print a human-readable table, the run
metadata and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when the outputs
are correct, 1 when they are not, and 2 when the benchmark cannot run at all
(for example without the library's sources next to it).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata as pkg_metadata
from pathlib import Path

from workloads import LISTED, RATIO_CEILING, RATIO_FLOOR, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

SETUP_REPEATS = 5
ORACLE_SAMPLES = 2  # leading samples of each oracle-checked invocation, round 0
RUN_LIMIT_S = 170.0  # every child is killed once the run reaches this age


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Round:
    seed: int
    directory: Path
    codes: list[int] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    good: int = 0  # goodput units: correct samples, or evaluations of passing searches
    attempted: int = 0
    failed: int = 0


def round_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


# ---------------------------------------------------------------------------
# child processes


def run_child(args: list[str], cwd: Path, log: Path, deadline: float):
    """Run the interpreter with ``args``; (exit code, wall s, cpu s, peak RSS MB).

    CPU time and peak RSS come from wait4, so they cover the child and every
    pool worker it waited for.
    """
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=CHILD_ENV,
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def measure_setup(deadline: float) -> list[float]:
    """Walls of fresh interpreters importing the CLI; one untimed warm-up first."""
    WORK.mkdir(parents=True, exist_ok=True)
    walls = []
    for i in range(SETUP_REPEATS + 1):
        code, wall, _, _ = run_child(["-c", "import bernstein_lab.cli"], WORK,
                                     WORK / "setup.log", deadline)
        if code != 0:
            raise BenchError("cannot import bernstein_lab.cli: "
                             + (WORK / "setup.log").read_text(errors="replace")[-500:])
        if i:
            walls.append(wall)
    return walls


def child_round(workload: Workload, seed: int, directory: Path, deadline: float) -> Round:
    """One pass over the invocations as child processes with the default --jobs."""
    directory.mkdir(parents=True)
    rnd = Round(seed, directory)
    t0 = time.perf_counter()
    for inv in workload.invocations:
        code, _, cpu, rss = run_child(["-m", "bernstein_lab.cli", *inv.argv(seed)],
                                      directory, directory / (inv.out + ".log"), deadline)
        rnd.codes.append(code)
        rnd.cpu_s += cpu
        rnd.peak_rss_mb = max(rnd.peak_rss_mb, rss)
    rnd.wall_s = time.perf_counter() - t0
    return rnd


def inprocess_round(workload: Workload, seed: int, directory: Path, tracer=None):
    """One pass through ``cli.main`` in this process with --jobs 1; (codes, wall s)."""
    from bernstein_lab import cli

    directory.mkdir(parents=True)
    codes = []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        t0 = time.perf_counter()
        for i, inv in enumerate(workload.invocations):
            if tracer is not None:
                tracer.invocation = i
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(inv.argv(seed, jobs=1)))
        wall = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    return codes, wall


# ---------------------------------------------------------------------------
# output checks


def read_reports(path: Path):
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def score(workload: Workload, rnd: Round, notes: list[str]) -> None:
    """Count attempted, failed and good operations of a round from its files."""
    for inv, code in zip(workload.invocations, rnd.codes):
        rnd.attempted += inv.operations
        path = rnd.directory / inv.out
        if inv.command == "extremal":
            trace = json.loads(path.read_text())["trace"] if code == 0 and path.is_file() else None
            if (trace is not None and RATIO_FLOOR <= trace["best_ratio"] <= RATIO_CEILING
                    and trace["anomaly_count"] == 0):
                rnd.good += trace["iterations"]
            else:
                rnd.failed += 1
                notes.append(f"seed {rnd.seed} {inv.out}: exit {code}, search failed"
                             + ("" if trace is None else
                                f" (best ratio {trace['best_ratio']!r}, "
                                f"{trace['anomaly_count']} anomalies)"))
            continue
        reports = read_reports(path) if code in (0, 1) else None
        if reports is None or len(reports) != inv.operations:
            rnd.failed += inv.operations
            notes.append(f"seed {rnd.seed} {inv.out}: exit {code}, no complete report; "
                         f"all {inv.operations} samples fail")
            continue
        bad = sum(1 for r in reports if not r["skipped"] and not r["passed"])
        rnd.failed += bad
        rnd.good += len(reports) - bad
        if bad:
            notes.append(f"seed {rnd.seed} {inv.out}: {bad} failed verdicts")
        if (code == 0) != (bad == 0):
            notes.append(f"seed {rnd.seed} {inv.out}: exit {code} disagrees with {bad} failed verdicts")


def oracle_check(workload: Workload, rnd: Round, notes: list[str]) -> tuple[float, int]:
    """Compare the leading samples with the 50-digit oracle; (max rel dev, samples)."""
    from oracle import check_report

    worst, checked = 0.0, 0
    for inv in workload.invocations:
        reports = read_reports(rnd.directory / inv.out) if inv.oracle else None
        for rep in (reports or [])[:ORACLE_SAMPLES]:
            agrees, dev = check_report(rep)
            checked += 1
            worst = max(worst, dev)
            if not agrees:
                notes.append(f"seed {rnd.seed} {inv.out} index {rep['witness']['index']}: "
                             f"verdict passed={rep['passed']} disagrees with the oracle")
                if rep["passed"] or rep["skipped"]:  # score() counted it good
                    rnd.good -= 1
                    rnd.failed += 1
    return worst, checked


def identical_outputs(workload: Workload, dirs: list[Path], notes: list[str]) -> None:
    for inv in workload.invocations:
        for name in inv.output_files():
            blobs = [(d / name).read_bytes() if (d / name).is_file() else None for d in dirs]
            if any(b != blobs[0] for b in blobs[1:]):
                notes.append(f"{name} differs between " + ", ".join(d.name for d in dirs))


# ---------------------------------------------------------------------------
# the two modes


def timed_run(workload: Workload, seed: int, seconds: float, work: Path, deadline: float):
    notes: list[str] = []
    setup = measure_setup(deadline)
    rounds: list[Round] = []
    t0 = time.perf_counter()
    while True:
        rnd = child_round(workload, round_seed(seed, len(rounds)),
                          work / f"round-{len(rounds)}", deadline)
        score(workload, rnd, notes)
        if len(rounds):
            shutil.rmtree(rnd.directory)
        rounds.append(rnd)
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(rounds) > seconds:  # a further round would overrun
            break
    max_dev, checked = oracle_check(workload, rounds[0], notes)
    print("rounds (seed, wall s, cpu s): " + "  ".join(
        f"{r.seed} {r.wall_s:.3f} {r.cpu_s:.3f}" for r in rounds))

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (math.inf if failed else statistics.median([r.wall_s for r in rounds]), "s"),
        "goodput_per_s": (statistics.median([r.good / r.wall_s for r in rounds]), "1/s"),
        "cpu_s": (statistics.median([r.cpu_s for r in rounds]), "s"),
        "peak_rss_mb": (statistics.median([r.peak_rss_mb for r in rounds]), "MB"),
    }
    unit = "evals_per_s" if workload.invocations[0].command == "extremal" else "samples_per_s"
    extra = {
        "fail_ratio": (failed / attempted, "ratio"),
        unit: (metrics["goodput_per_s"][0], "1/s"),
        "rounds": (len(rounds), "count"),
        "verify.oracle.max_rel_dev": (max_dev, "ratio"),
        "verify.oracle.samples": (checked, "count"),
    }
    return attempted, failed, notes, metrics, extra


def traced_run(workload: Workload, seed: int, work: Path, deadline: float):
    sys.path.insert(0, str(SRC))
    from tracing import Tracer

    notes: list[str] = []
    seed0 = round_seed(seed, 0)
    rnd = child_round(workload, seed0, work / "jobs-default", deadline)
    score(workload, rnd, notes)
    jobs = os.cpu_count() or 1
    idle_share = 1.0 - rnd.cpu_s / (jobs * rnd.wall_s)

    codes1, wall1 = inprocess_round(workload, seed0, work / "jobs-1")
    with Tracer() as tracer:
        codes_t, wall_t = inprocess_round(workload, seed0, work / "jobs-1-traced", tracer)
    tracer.write_spans(work / "spans.jsonl")
    if not (rnd.codes == codes1 == codes_t):
        notes.append(f"exit codes differ: default jobs {rnd.codes}, jobs 1 {codes1}, traced {codes_t}")
    identical_outputs(workload, [rnd.directory, work / "jobs-1", work / "jobs-1-traced"], notes)

    calls = [0] * len(workload.invocations)
    for layer, _, _, _, invocation in tracer.spans:
        if layer == "rootfind.roots":
            calls[invocation] += 1
    for inv, got in zip(workload.invocations, calls):
        if inv.roots_per_sample is not None and got != inv.roots_per_sample * inv.operations:
            notes.append(f"trace check: {inv.out} made {got} rootfind.roots calls, expected "
                         f"{inv.roots_per_sample} x {inv.operations}")

    max_dev, checked = oracle_check(workload, rnd, notes)
    metrics = tracer.layer_metrics()
    metrics["verify.oracle.max_rel_dev"] = (max_dev, "ratio")
    metrics["pool.idle_share"] = (idle_share, "ratio")
    metrics["trace.overhead_ratio"] = (wall_t / wall1, "ratio")
    extra = {
        "jobs_default.wall_s": (rnd.wall_s, "s"),
        "jobs_1.wall_s": (wall1, "s"),
        "jobs_1_traced.wall_s": (wall_t, "s"),
        "spans": (len(tracer.spans), "count"),
        "verify.oracle.samples": (checked, "count"),
    }
    return rnd.attempted, rnd.failed, notes, metrics, extra


# ---------------------------------------------------------------------------
# reporting


def run_metadata(workload: Workload, seed: int, trace: int) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration')})"
    except (TypeError, KeyError):
        openblas = None
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "cli_seeds": "seed * 1000 + round",
        "trace": trace,
        "jobs": "default (os.cpu_count())" if not trace else "default, then 1",
        "invocations": [" ".join(inv.argv(round_seed(seed, 0))) for inv in workload.invocations],
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        **{name: pkg_metadata.version(name) for name in ("numpy", "scipy", "mpmath")},
        "openblas": openblas,
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: int, deadline: float):
    work = WORK / f"{workload.name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if trace:
        attempted, failed, notes, metrics, extra = traced_run(workload, seed, work, deadline)
    else:
        attempted, failed, notes, metrics, extra = timed_run(workload, seed, seconds, work, deadline)
    correct = failed == 0 and not notes

    print(f"workload {workload.name}  seed {seed}  trace {trace}  correct {correct}  "
          f"attempted {attempted}  failed {failed}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    for note in notes:
        print(f"  check: {note}")
    print("meta " + json.dumps(run_metadata(workload, seed, trace)))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float) -> dict:
    """Every listed workload in both modes, each in its own process so none sees another's memory."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in LISTED:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)],
                                  capture_output=True, text=True)
            print(proc.stdout, end="")
            if proc.returncode not in (0, 1):
                raise BenchError(f"{name} --trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}")
            part = json.loads(proc.stdout.splitlines()[-1])
            result["correct"] &= part["correct"]
            result["attempted"] += part["attempted"]
            result["failed"] += part["failed"]
            result["metrics"].update({f"{name}/{k}": v for k, v in part["metrics"].items()})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="ignored with --workload all, which runs both")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if not (SRC / "bernstein_lab" / "cli.py").is_file():
            raise BenchError(f"no library sources under {SRC}")
        if args.workload != "all":
            result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                  args.trace, deadline)
        else:
            result = run_all(args.seed, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
