"""End-to-end benchmark of the floquet_ssh CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from a checkout: the package is imported from its ``src`` directory.
Each CLI run is a fresh ``python -m floquet_ssh`` child, one at a time
(closed loop, one client), and its CPU time and peak RSS come from
``os.wait4`` on that child alone.  FLOQUET_SSH_THREADS,
OPENBLAS_NUM_THREADS and OMP_NUM_THREADS are passed through as found
(normally unset), because BLAS oversubscription in the worker pool is a
cost the benchmark has to show; their values are printed with the run.

``--trace 0`` first times ``import floquet_ssh.cli`` plus building the
parser in fresh processes (setup_s), then repeats the workload until
``--seconds`` would be exceeded, and reports medians.  ``--trace 1``
runs the workload untraced, under ``traced.py``, and untraced again, and
reports the per-layer split of the traced run.  The outputs of every run
are checked by ``check.py`` after the timed part; the last line printed
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 16
THREAD_VARS = ("FLOQUET_SSH_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_CODE = "import floquet_ssh.cli as cli; cli.build_parser()"
PROBE_CODE = """
import json, os, sys, numpy
from floquet_ssh.sweep import resolve_threads
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version"),
                  "workers": resolve_threads(), "nproc": os.cpu_count()}))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], cwd: Path) -> dict:
    """Run one child to completion; its wall, CPU and peak RSS, exit code and stdout."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=child_env(),
                                stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024, "code": proc.returncode,
            "stdout": (cwd / "stdout.txt").read_text(errors="replace"),
            "stderr": (cwd / "stderr.txt").read_text(errors="replace")}


def cli_run(workload: workloads.Workload, cwd: Path, trace: bool = False) -> dict:
    outputs = {"csv": cwd / "out.csv", "svg": cwd / "out.svg"}
    for path in outputs.values():
        path.unlink(missing_ok=True)
    prefix = [str(HERE / "traced.py"), "spans.json"] if trace else ["-m", "floquet_ssh"]
    result = run_child([*prefix, *workload.argv], cwd)
    for key, path in outputs.items():
        result[key] = path.read_text() if path.exists() else None
    if result["code"] != 0:
        print(f"{workload.name}: CLI exited {result['code']}: {result['stderr'][-2000:]}",
              file=sys.stderr)
    return result


def setup(cwd: Path, count: int) -> list[float]:
    """Wall times of ``count`` fresh processes importing the CLI and building its parser."""
    times = []
    for _ in range(count):
        result = run_child(["-c", SETUP_CODE], cwd)
        if result["code"] != 0:
            raise RuntimeError(f"set-up failed: {result['stderr'][-2000:]}")
        times.append(result["wall_s"])
    return times


def probe(cwd: Path) -> dict:
    info = {var: os.environ.get(var) for var in THREAD_VARS}
    result = run_child(["-c", PROBE_CODE], cwd)
    if result["code"] == 0:
        info.update(json.loads(result["stdout"].strip().splitlines()[-1]))
    else:
        print(f"environment probe failed: {result['stderr'][-500:]}", file=sys.stderr)
    return info


def count_failures(checker, runs: list[dict]) -> tuple[int, int, dict[str, bool]]:
    """(points attempted, points failed, self-test outcome) over all runs.

    The first successful run is checked against the reference.  Every
    other run must reproduce its CSV byte for byte; a run that does not,
    or that exits non-zero, counts all of its points as failed.
    """
    points = len(checker.workload.points)
    good = next((r for r in runs if r["code"] == 0), None)
    first_failed = checker.failed_points(good["csv"], good["svg"]) if good else points
    failed = 0
    for run in runs:
        if run["code"] != 0 or good is None or \
                (run["csv"], run["svg"]) != (good["csv"], good["svg"]):
            failed += points
        else:
            failed += first_failed
    self_test = {}
    if good and first_failed == 0:
        self_test = checker.self_test(good["csv"], good["svg"])
    return points * len(runs), failed, self_test


def measure(workload: workloads.Workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    info = probe(workdir)
    runs: list[dict] = []
    if trace:
        # Untraced runs on both sides of the traced one, so that a steady
        # drift in machine speed cancels out of the overhead ratio.
        for trace_this in (False, True, False):
            runs.append(cli_run(workload, workdir, trace=trace_this))
        spans = json.loads((workdir / "spans.json").read_text())
        # A function that was wrapped but never ran is a renamed or bypassed
        # layer, not a free one.  (Wrapping fails on a missing function.)
        missing = sorted(n for n in workload.expected_spans
                         if n in spans["rebound"] and spans["calls"][n] == 0)
        if missing:
            raise RuntimeError(f"{workload.name}: expected layer spans recorded no calls: "
                               f"{', '.join(missing)}")
        metrics = dict(spans["metrics"])
        metrics["trace.overhead_ratio"] = \
            runs[1]["wall_s"] / statistics.mean([runs[0]["wall_s"], runs[2]["wall_s"]])
    else:
        start = time.perf_counter()
        setup(workdir, 1)  # warms the bytecode and file caches; not counted
        # Start-up time drifts with the machine's load over seconds, so half
        # of the set-up samples are taken before the workload runs and half after.
        setups = setup(workdir, SETUP_RUNS // 2)
        while True:
            runs.append(cli_run(workload, workdir))
            typical = statistics.median(r["wall_s"] for r in runs)
            if time.perf_counter() - start + typical + setups[0] * SETUP_RUNS / 2 > seconds:
                break
        setups += setup(workdir, SETUP_RUNS - len(setups))
        metrics = {name: statistics.median(r[name] for r in runs)
                   for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")

    import check  # SciPy is loaded only after the timed part

    attempted, failed, self_test = count_failures(check.Checker(workload, seed), runs)
    correct = failed == 0 and bool(self_test) and all(self_test.values())
    record = {"workload": workload.name, "seed": seed, "trace": int(trace), "runs": len(runs),
              "argv": list(workload.argv), "env": info, "self_test": self_test,
              "failed_ratio": failed / attempted}
    print("record: " + json.dumps(record))
    for name, value in metrics.items():
        print(f"{workload.name:18s} {name:32s} {value:14.6g} {units[name]}")
    print(f"{workload.name:18s} {'failed_ratio':32s} {failed / attempted:14.6g} "
          f"({failed}/{attempted} points)")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    # On SIGTERM, unwind so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "floquet_ssh" / "cli.py").is_file():
        print(f"no floquet_ssh sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(workloads.make(args.workload, args.seed), args.seed,
                         args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh harness process.

    A fresh harness keeps SciPy, loaded by the previous workload's
    check, out of the next workload's peak RSS (see workloads.linspace).
    """
    results = {}
    for name in workloads.NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
