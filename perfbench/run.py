#!/usr/bin/env python3
"""cskn benchmark: train-demo and gallery-200.

Run from the repository root:

    python3 perfbench/run.py --workload train-demo --seed 1 --seconds 55 --trace 0

The package is imported from ``src/`` of the checkout; nothing is
installed. With ``--trace 0`` the run times the CLI commands with tracing
off and prints the end-to-end metrics; with ``--trace 1`` it runs one
set-up and one cycle untraced, then again with hooks on, and prints the
per-layer metrics. Either way the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The lines before
it record the machine, each pair-fit's solver outcome and the gate's tally.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# BLAS runs on one thread, set before numpy loads. At these matrix sizes a
# second OpenBLAS thread on a 2-core machine did not make the commands
# faster, but doubled their CPU time and made them far more sensitive to
# other load on the host.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"


def machine_info(seed: int) -> dict[str, object]:
    """Core count, CPU, BLAS and its threads, and library versions."""
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def _blas_threads() -> object:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libraries = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        libraries = set()
    for library in sorted(libraries):
        try:
            lib = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def result_json(result: dict) -> str:
    session = result["session"]
    metrics = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    return json.dumps(
        {
            "correct": session.failed == 0,
            "attempted": session.attempted,
            "failed": session.failed,
            "metrics": metrics,
        }
    )


def print_result(result: dict, machine: dict) -> None:
    print("machine " + " ".join(f"{k}={v!r}" for k, v in machine.items()))
    for k, fits in enumerate(result["fits"]):
        for fit in fits:
            print(f"pair_fit training={k} {fit.describe()}")
    for note in result["notes"]:
        print(note)
    session = result["session"]
    for failure in session.failures:
        print(f"FAILED {failure}")
    print(
        f"gate attempted={session.attempted} failed={session.failed} "
        f"fail_ratio={session.failed / max(session.attempted, 1):.4f}"
    )
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} {value} {unit}")
    print(result_json(result), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cskn benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cskn" / "__init__.py").is_file():
        print(f"error: no cskn package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One process, single-worker reference mode.
    os.environ.pop("CSKN_THREADS", None)

    from workloads import WORKLOADS, run_workload

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    machine = machine_info(args.seed)
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(f"workload {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print_result(result, machine)
    return 0


if __name__ == "__main__":
    sys.exit(main())
