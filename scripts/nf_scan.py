"""Check converge_nf's answers against the N_F -> N_F+2 distance on seeded random chains.

    PYTHONPATH=src python scripts/nf_scan.py --seed S --cases K

Each case draws a chain as the route fuzz does: N = 4-16; omega
log-uniform in [0.5, 60]; kappa uniform in [0, 3] in 30% of draws, else
kappa*omega uniform in [0, 0.5]; gamma <= 0.6; |lambda| <= 0.9; any Phi;
any impurity site j <= N/2.  ``converge_nf`` runs at ``NF_TOL``, and the
returned N_F is checked with two more solves:

- ``BREACH``: delta(N_F) >= tol, so the returned spectrum is not stable
  under N_F -> N_F+2, which breaks converge_nf's contract;
- ``EARLIER``: delta(N_F - 1) < tol with N_F - 1 >= 2, so a search that
  measured every delta would have stopped at N_F - 1 or before.

One line is printed for each such case and for each search that raised,
then one line of tallies.  The exit code is 1 if any case is a breach.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import floquet_ssh.floquet as floquet
from floquet_ssh import ModelParams, SolverError, converge_nf, matched_distance
from floquet_ssh.floquet import NF_TOL, quasi_energies_extended

import numpy as np  # after floquet_ssh, which sets OpenBLAS's thread count before numpy loads

#: ``floquet.DIM_CAP`` for the scan's searches.  At the package's 7700 a
#: search that fails on a 4-site chain doubles to N_F = 960 and solves
#: matrices of 7700 rows, minutes and about 4 GB each.  Every unit-step
#: probe (N_F <= 16, where the truncation estimate may decide) of every
#: drawn chain fits under 600 rows, so the cap moves only doubling probes;
#: a search it stops prints a ``RAISED`` line.
SCAN_DIM_CAP = 1200


def draw(rng: np.random.Generator) -> ModelParams:
    """One chain of the route-fuzz shape."""
    n = int(rng.integers(4, 17))
    omega = math.exp(rng.uniform(math.log(0.5), math.log(60.0)))
    kappa = rng.uniform(0.0, 3.0) if rng.random() < 0.3 else rng.uniform(0.0, 0.5) / omega
    return ModelParams(n_sites=n, lam=rng.uniform(-0.9, 0.9),
                       phi_dim=rng.uniform(0.0, 2 * math.pi), gamma=rng.uniform(0.0, 0.6),
                       impurity_site=int(rng.integers(1, n // 2 + 1)), kappa=kappa, omega=omega)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cases", type=int, required=True)
    args = parser.parse_args(argv)
    floquet.DIM_CAP = SCAN_DIM_CAP
    rng = np.random.default_rng(args.seed)
    tallies = dict(cases=0, converged=0, raised=0, breach=0, earlier=0)
    start = time.perf_counter()
    for case in range(args.cases):
        params = draw(rng)
        tallies["cases"] += 1
        spectra = {}
        try:
            nf = converge_nf(params, NF_TOL, spectra=spectra)
        except SolverError as exc:
            tallies["raised"] += 1
            print(f"RAISED case={case} {type(exc).__name__} {params}")
            continue
        tallies["converged"] += 1

        def spectrum(k):
            if k not in spectra:
                spectra[k] = quasi_energies_extended(params, k)
            return spectra[k]

        delta = matched_distance(spectrum(nf), spectrum(nf + 2))
        if delta >= NF_TOL:
            tallies["breach"] += 1
            print(f"BREACH case={case} N_F={nf} delta={delta:.3e} {params}")
        if nf > 2 and (before := matched_distance(spectrum(nf - 1), spectrum(nf + 1))) < NF_TOL:
            tallies["earlier"] += 1
            print(f"EARLIER case={case} N_F={nf} delta(N_F-1)={before:.3e} {params}")
    elapsed = time.perf_counter() - start
    counts = " ".join(f"{key}={value}" for key, value in tallies.items())
    print(f"seed={args.seed} tol={NF_TOL:g} max_dim={SCAN_DIM_CAP} {counts} seconds={elapsed:.1f}")
    return 1 if tallies["breach"] else 0


if __name__ == "__main__":
    sys.exit(main())
