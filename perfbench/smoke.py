#!/usr/bin/env python3
"""Tiny-size smoke run of the benchmark; takes well under a minute.

Run from the repository root:

    python3 perfbench/smoke.py

It runs both workloads on a few seeded images with a minimal training
budget, untraced and traced, and checks that the correctness gate passes,
that the printed metrics are exactly those named in ``BENCHMARK.json`` with
their units, and that a failing command is counted by the gate. It also
checks that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from run import result_json  # noqa: E402
from workloads import WORKLOADS, Session, run_workload  # noqa: E402

TINY = {
    "train-demo": dict(
        train_per_class=3, test_per_class=2, fit_per_class=3, pairs=200, patches_per_epoch=500
    ),
    "gallery-200": dict(
        train_per_class=1, test_per_class=1, fit_per_class=1, pairs=200, patches_per_epoch=500
    ),
}


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: FAILED: {what}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    _expect(
        sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
        "BENCHMARK.json workloads differ from the benchmark's",
    )
    for name, overrides in TINY.items():
        workload = dataclasses.replace(WORKLOADS[name], **overrides)
        for trace in (False, True):
            result = run_workload(workload, seed=1, seconds=0, trace=trace, root=ROOT)
            line = json.loads(result_json(result))
            _expect(sorted(line) == ["attempted", "correct", "failed", "metrics"], "JSON keys")
            _expect(
                line["correct"] and line["failed"] == 0,
                f"{name} trace={int(trace)} gate: {result['session'].failures}",
            )
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            _expect(got == wanted[trace], f"{name} trace={int(trace)} metric names or units")
            _expect(
                all(isinstance(v["value"], (int, float)) for v in line["metrics"].values()),
                f"{name} trace={int(trace)} non-numeric metric",
            )
            _expect(len(result["fits"][0]) == 2, f"{name}: expected two pair-fit outcomes")
            print(f"smoke {name} trace={int(trace)} attempted={line['attempted']} ok", flush=True)

    session = Session()
    session.command(["extract", "--model", "missing.cskn", "--manifest", "missing.tsv",
                     "--out", "missing.cskd"])
    _expect(session.attempted == 1 and session.failed == 1, "a failing command is not counted")

    bare = ROOT / ".perfbench-work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "gallery-200", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare, ignore_errors=True)
    _expect(proc.returncode != 0 and not proc.stdout.strip(), "runs without the package sources")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
