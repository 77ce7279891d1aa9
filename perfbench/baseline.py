"""Measure the benchmark over several seeds and write ``baseline.json``.

Usage (from the repository root)::

    python3 perfbench/baseline.py --seconds 28 --seeds 321-330 --traced-seeds 321-323

Runs ``run.py`` once per workload and seed, one run at a time, untraced for
``--seeds`` and traced for ``--traced-seeds``.  For every end-to-end metric
and every printed figure it records the median and quartiles over the seeds,
with ``spread = (q3 - q1) / median``, the figure the benchmark's bounds are
set against; for every per-layer metric the median over the traced seeds.
It prints the spreads as it goes and writes the result to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A ``# name = value unit`` line of a run's output.
FIGURE = re.compile(r"^# (\S+) = (\S+) (\S+)$")
CALIBRATION = re.compile(r"^# host\.calibration_ms before=(\S+) after=(\S+)$")


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of ``run.py``; its result line plus the ``#`` lines it printed."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed}: exit {completed.returncode}\n{completed.stderr}"
        )
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    result["printed"] = {}
    for line in lines[:-1]:
        figure = FIGURE.match(line)
        if figure:
            result["printed"][figure.group(1)] = float(figure.group(2))
        calibration = CALIBRATION.match(line)
        if calibration:
            result["calibration_ms"] = [float(value) for value in calibration.groups()]
    return result


def summary(values: list[float], unit: str | None = None) -> dict:
    """Median, quartiles and spread of ``values`` (as the benchmark check takes them)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    figures = {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
    figures["spread"] = round((q3 - q1) / median, 3) if median else 0.0
    if unit is not None:
        figures["unit"] = unit
    figures["runs"] = [round(value, 4) for value in values]
    return figures


def measure_workload(workload: str, args) -> dict:
    runs = []
    for seed in args.seeds:
        result = run_once(workload, seed, args.seconds, trace=0)
        runs.append(result)
        print(
            f"{workload} seed={seed} wall={result['wall_s']:.1f}s "
            f"calibration_ms={result.get('calibration_ms')}",
            flush=True,
        )
    traced = []
    for seed in args.traced_seeds:
        traced.append(run_once(workload, seed, args.seconds, trace=1))
        print(f"{workload} traced seed={seed}", flush=True)

    end_to_end = {
        name: summary([run["metrics"][name]["value"] for run in runs], metric["unit"])
        for name, metric in runs[0]["metrics"].items()
    }
    for name, figures in end_to_end.items():
        print(f"  {name:22s} median {figures['median']:10.4f}  spread {figures['spread']:.3f}")
    return {
        "failed": sum(run["failed"] for run in runs + traced),
        "attempted": sum(run["attempted"] for run in runs + traced),
        "host.calibration_ms": round(statistics.median(
            value for run in runs for value in run.get("calibration_ms", [])
        ), 3),
        "end_to_end": end_to_end,
        "printed": {
            name: summary([run["printed"][name] for run in runs])
            for name in runs[0]["printed"]
            if name not in end_to_end
        },
        "per_layer": {
            name: {
                "median": round(statistics.median(
                    run["metrics"][name]["value"] for run in traced
                ), 4),
                "unit": metric["unit"],
            }
            for name, metric in (traced[0]["metrics"].items() if traced else ())
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="first-last")
    parser.add_argument("--traced-seeds", type=_seeds, default=[], help="first-last")
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)

    names = args.workloads or [
        workload["name"]
        for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    ]
    baseline = {
        "about": (
            "End-to-end metrics as median and quartiles over the untraced seeds "
            "(--trace 0), per-layer metrics as the median over the traced seeds "
            "(--trace 1). spread = (q3 - q1) / median."
        ),
        "host": (
            f"{os.cpu_count()} CPUs, {platform.system()} {platform.machine()}, "
            f"Python {platform.python_version()}"
        ),
        "run_seconds": args.seconds,
        "seeds": {"end_to_end": args.seeds, "per_layer": args.traced_seeds},
        "workloads": {name: measure_workload(name, args) for name in names},
    }
    args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
