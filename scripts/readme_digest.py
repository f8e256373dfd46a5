"""Fingerprint the README quick-start commands.

Runs the six commands of the README "Quick start (CLI)" section, in order,
in a fresh temporary directory as ``python -m floquet_ssh ...`` children,
with ``--json`` added to ``spectrum``, ``sweep-phi`` and ``phase-diagram``.
For every command it prints the exit code and the sha256 of stdout, of
stderr and of each file the command wrote.  Two checkouts that print the
same lines produced the same bytes.  The first line, starting with
``#``, records OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and the CPU count:
the eigensolver's last bits depend on the BLAS thread count, so digests
compare only when that line matches.

    python scripts/readme_digest.py [--src DIR] > digest.txt

``--src`` names the directory that holds the ``floquet_ssh`` package
(default: ``src`` next to this script).  The phase-diagram command takes
about a minute and a half on two cores.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

COMMANDS = (
    ("spectrum", "--preset", "fig1-static", "--phi", "0.3", "-o", "spectrum.csv",
     "--json", "spectrum.json"),
    ("sweep-phi", "--preset", "fig1-highfreq", "--phi-grid", "0:2pi:201",
     "-o", "sweep.csv", "--plot", "sweep.svg", "--json", "sweep.json"),
    ("phase-diagram", "--n-sites", "40", "--lambda", "0.4", "--impurity-site", "2",
     "--kappa-omega", "0.05", "--gamma", "0:0.4:9", "--omega", "0.2pi:45pi:9",
     "-o", "phases.csv", "--json", "phases.json"),
    ("effective-compare", "--preset", "fig1-highfreq", "--phi", "0.3"),
    ("pt-threshold", "--preset", "fig1-static", "--impurity-site", "1"),
    ("validate", "--from-csv", "sweep.csv"),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(pathlib.Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the floquet_ssh package")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    print(f"# OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')} "
          f"OMP_NUM_THREADS={os.environ.get('OMP_NUM_THREADS')} cpu_count={os.cpu_count()}")
    with tempfile.TemporaryDirectory(prefix="readme_digest_") as tmp:
        work = pathlib.Path(tmp)
        for command in COMMANDS:
            before = set(work.iterdir())
            result = subprocess.run([sys.executable, "-m", "floquet_ssh", *command],
                                    cwd=work, env=env, capture_output=True)
            print("$ " + " ".join(command))
            print(f"  exit {result.returncode}")
            print(f"  stdout {sha256(result.stdout)}")
            print(f"  stderr {sha256(result.stderr)}")
            for path in sorted(set(work.iterdir()) - before):
                print(f"  {path.name} {sha256(path.read_bytes())}")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
