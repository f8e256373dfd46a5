"""The package surface that the benchmark under ``perfbench/`` relies on.

``perfbench/traced.py`` wraps the functions named in its ``LAYERS`` table
and fails loudly when one is missing; ``perfbench/run.py`` imports
``floquet_ssh.sweep.resolve_threads``.  These tests run the tracer on
three tiny CLI commands, so that a change which breaks the benchmark
fails here too.  They read ``perfbench/`` and never write to it.
"""

import json
import os
import pathlib
import runpy
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"
CHAIN = ("--n-sites", "6", "--lambda", "0.4", "--impurity-site", "2", "--kappa-omega", "0.5")
COMMANDS = (
    ("spectrum", *CHAIN, "--gamma", "0.1", "--omega", "3", "--method", "extended",
     "-o", "spectrum.csv"),
    ("sweep-phi", *CHAIN, "--gamma", "0.1", "--omega", "3", "--method", "propagator",
     "--phi-grid", "0:1:3", "-o", "sweep.csv", "--plot", "sweep.svg"),
    ("phase-diagram", *CHAIN, "--gamma", "0:0.1:2", "--omega", "3:6:2", "-o", "phases.csv"),
)


def test_traced_runs_call_every_required_layer(tmp_path):
    traced = runpy.run_path(str(TRACED))  # compiles without writing bytecode
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    calls = dict.fromkeys(traced["LAYERS"], 0)
    for index, command in enumerate(COMMANDS):
        spans = tmp_path / f"spans{index}.json"
        result = subprocess.run([sys.executable, str(TRACED), str(spans), *command],
                                cwd=tmp_path, env=env, capture_output=True, text=True)
        assert result.returncode == 0, (command[0], result.stderr)
        for name, count in json.loads(spans.read_text(encoding="utf-8"))["calls"].items():
            calls[name] += count
    required = set(traced["LAYERS"]) - traced["OPTIONAL"]
    assert sorted(name for name in required if calls[name] == 0) == []


def test_environment_probe_import():
    from floquet_ssh.sweep import resolve_threads

    assert resolve_threads() >= 1
