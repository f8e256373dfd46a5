"""One traced CLI run in this process, with spans around the package's layer functions.

Usage:  python traced.py SPANS.json CLI-ARG...

``floquet_ssh`` must be importable.  Each function in ``LAYERS`` is
wrapped, and every module of the package that holds it under its name
(``from .linalg import eig_dense`` makes a second reference) is rebound
to the wrapper.  A span records the function, its thread, start, end,
the enclosing span on the same thread, and counts taken from its
arguments.  ``floquet_ssh.cli.main`` then runs with the given arguments;
spans stay in memory and the per-layer summary is written to SPANS.json
when it returns.  The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import sys
import threading
import time

# function -> module that defines it.  Functions marked optional may be
# removed from the package; every other one must exist.
LAYERS = {
    "eig_dense": "linalg",
    "expm": "linalg",
    "build_floquet_matrix": "floquet",
    "_select_physical_modes": "floquet",
    "matched_distance": "floquet",
    "converge_nf": "floquet",
    "quasi_energies_extended": "floquet",
    "one_period_propagator": "floquet",
    "quasi_energies_propagator": "floquet",
    "build_static_hamiltonian": "model",
    "drive_operator": "model",
    "hamiltonian_at": "model",
    "classify_pt": "analysis",
    "run_sweep": "sweep",
    "run_phase_diagram": "sweep",
    "compute_spectrum": "sweep",
    "_write_text": "cli",
    "spectrum_svg": "svgplot",
}
OPTIONAL = {"_select_physical_modes"}
MODEL = ("build_static_hamiltonian", "drive_operator", "hamiltonian_at")
MIB = 1 << 20


def _counts(name: str, args: dict, result) -> dict:
    """Work counts of one call, computed from its arguments and result."""
    if name == "eig_dense":
        return {"dim3": args["m"].shape[0] ** 3}
    if name == "expm":
        shape = args["m"].shape
        matrices = math.prod(shape[:-2])
        return {"matrices": matrices, "stack_mb": matrices * shape[-1] * shape[-2] * 16 / MIB}
    if name in ("build_floquet_matrix", "quasi_energies_extended"):
        return {"n_floquet": args["n_floquet"]}
    if name == "one_period_propagator":
        return {"n_steps": args["n_steps"]}
    if name == "compute_spectrum":
        return {"method": result.method.value}
    if name == "_write_text":
        return {"bytes": len(args["text"].encode("utf-8"))}
    return {}


class Tracer:
    """In-memory spans; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()

    def wrap(self, name: str, func):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {"name": name, "thread": threading.get_ident(),
                    "parent": stack[-1]["name"] if stack else None, "children_s": 0.0}
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                duration = span["end"] - span["start"]
                span["self_s"] = duration - span["children_s"]
                if stack:
                    stack[-1]["children_s"] += duration
                self.spans.append(span)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.update(_counts(name, bound.arguments, result))
            return result

        return traced

    def install(self) -> dict[str, int]:
        """Wrap every function in LAYERS; return how many references each rebinds."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "floquet_ssh" or name.startswith("floquet_ssh.")}
        rebound = {}
        for name, home in LAYERS.items():
            original = getattr(modules[f"floquet_ssh.{home}"], name, None)
            if original is None:
                if name in OPTIONAL:
                    continue
                raise RuntimeError(f"traced function floquet_ssh.{home}.{name} is missing")
            wrapper = self.wrap(name, original)
            rebound[name] = 0
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        rebound[name] += 1
        return rebound

    def summary(self) -> tuple[dict, dict]:
        """(per-layer metrics, calls per function).

        Times are summed over threads, so they can exceed wall time.
        ``_s`` metrics are self time (children subtracted on the same
        thread), except ``floquet.converge_nf_s`` and the ``sweep`` point
        times, which include their children.
        """
        by_name: dict[str, list[dict]] = {name: [] for name in LAYERS}
        for span in self.spans:
            by_name[span["name"]].append(span)

        def self_s(*names):
            return sum(s["self_s"] for n in names for s in by_name[n])

        def total(name, key):
            return sum(s.get(key, 0) for s in by_name[name])

        extended = by_name["quasi_energies_extended"]
        points = by_name["compute_spectrum"]
        useful = {m: sum(1 for s in points if s.get("method") == m)
                  for m in ("extended", "propagator")}
        propagators = by_name["one_period_propagator"]
        durations = [s["end"] - s["start"] for s in points]
        workers = len({s["thread"] for s in points})
        pool_wall = max(s["end"] for s in points) - min(s["start"] for s in points) \
            if points else 0.0
        prefix = 0.0
        for run in by_name["run_sweep"] + by_name["run_phase_diagram"]:
            starts = [s["start"] for s in points if run["start"] <= s["start"] <= run["end"]]
            prefix += (min(starts) if starts else run["end"]) - run["start"]
        nf_values = [s.get("n_floquet", 0) for s in extended + by_name["build_floquet_matrix"]]
        return {
            "linalg.eig_s": self_s("eig_dense"),
            "linalg.eig_calls": len(by_name["eig_dense"]),
            "linalg.eig_dim3_sum": total("eig_dense", "dim3"),
            "linalg.expm_s": self_s("expm"),
            "linalg.expm_matrices": total("expm", "matrices"),
            "linalg.expm_stack_mb_max":
                max((s.get("stack_mb", 0.0) for s in by_name["expm"]), default=0.0),
            "floquet.converge_nf_s": sum(s["end"] - s["start"] for s in by_name["converge_nf"]),
            "floquet.extended_calls": len(extended),
            "floquet.extended_useful_ratio":
                useful["extended"] / len(extended) if extended else 0.0,
            "floquet.nf_max": max(nf_values, default=0),
            "floquet.build_s": self_s("build_floquet_matrix"),
            "floquet.select_s": self_s("_select_physical_modes"),
            "floquet.match_s": self_s("matched_distance"),
            "floquet.propagator_s": self_s("one_period_propagator"),
            "floquet.propagator_steps": total("one_period_propagator", "n_steps"),
            "floquet.propagator_useful_ratio":
                useful["propagator"] / len(propagators) if propagators else 0.0,
            "model.assemble_s": self_s(*MODEL),
            "analysis.classify_s": self_s("classify_pt"),
            "analysis.classify_calls": len(by_name["classify_pt"]),
            "sweep.prefix_s": prefix,
            "sweep.point_s_median": statistics.median(durations) if durations else 0.0,
            "sweep.point_s_max": max(durations, default=0.0),
            "sweep.workers": workers,
            "sweep.busy_ratio": sum(durations) / (workers * pool_wall) if pool_wall else 0.0,
            "cli.write_s": self_s("_write_text"),
            "cli.bytes_written": total("_write_text", "bytes"),
            "svgplot.svg_s": self_s("spectrum_svg"),
        }, {name: len(spans) for name, spans in by_name.items()}


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import floquet_ssh.cli

    tracer = Tracer()
    rebound = tracer.install()
    code = floquet_ssh.cli.main(cli_args)
    metrics, calls = tracer.summary()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "calls": calls, "rebound": rebound,
                   "spans": tracer.spans}, fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
