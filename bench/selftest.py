"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Runs every workload for one second with shrunken repetitions, untraced
on seed 1 and traced on seed 2, and fails unless every run passes all
its output checks and emits exactly the metrics BENCHMARK.json names,
with their units, plus the named values of its report.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import WORKLOAD_NAMES  # noqa: E402

RATE_NAMES = {
    "rlnc_gf256_star20": "trials_per_s",
    "rlnc_gf65536_tree16": "trials_per_s",
    "compare_tree100": "generations_per_s",
    "neural_tree64x8": "steps_per_s",
    "solvability_sweep": "instances_per_s",
}
ORACLE_WORKLOADS = {"rlnc_gf256_star20", "compare_tree100"}


def run(workload: str, trace: int, seed: int) -> tuple[dict, dict]:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}")
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def check_run(workload: str, trace: int, expected: dict[str, str]) -> None:
    result, report = run(workload, trace, seed=1 + trace)
    where = f"{workload} trace={trace}"
    assert result["correct"] and result["failed"] == 0, f"{where}: {result}"
    assert result["attempted"] >= 1, where
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == expected, f"{where}: metrics {units} != {expected}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), f"{where}: {name}"
    named = {RATE_NAMES[workload]: "1/s", "setup_s": "s", "peak_rss_mb": "MB",
             "error_rate": "ratio"}
    if workload in ORACLE_WORKLOADS:
        named["oracle_err"] = "abs" if workload.startswith("rlnc") else "rel"
    units = {name: metric["unit"] for name, metric in report["metrics"].items()}
    assert units == named, f"{where}: report metrics {units} != {named}"
    assert report["metrics"]["error_rate"]["value"] == 0, where
    assert report["sha256"], f"{where}: no output digests"
    print(f"ok  {where}", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            check_run(workload, trace, expected[trace])
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
