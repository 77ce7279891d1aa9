"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload job-adhoc --seed 1 --seconds 28 --trace 0

The run builds the workload from ``--seed`` (the catalog seed and every
query literal), measures a closed loop for ``--seconds`` seconds, checks
every result, and prints one JSON object as its last line of output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` every other step runs
with layer spans installed (see ``layers.py``) and the metrics are the
per-layer ones.  Lines before the JSON give the sample counts, the
workload-specific figures that are not gated, and a host calibration probe.
The exit code is 1 when any operation failed or returned a wrong result,
2 when the program under test is missing.

The program is imported from ``src/`` next to this directory.  Scratch data
(the ingest dataset, temporary files of worker processes) lives under
``.bench_work/`` in the repository root and is removed when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Repeats of the host probe; the median is reported.
CALIBRATION_REPEATS = 5


def calibrate_ms() -> float:
    """A fixed CPU-bound probe that uses no program code (median, in ms)."""
    samples = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        digest = b"calibration"
        for _ in range(40_000):
            digest = hashlib.sha256(digest).digest()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1000.0


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live worker processes."""
    import multiprocessing
    import resource

    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        total_kb += _vm_hwm_kb(child.pid)
    return total_kb / 1024.0


def stop_workers() -> None:
    """Stop shard workers and the helper processes multiprocessing started."""
    from multiprocessing import forkserver, resource_tracker

    from repro.engine.shard import shutdown_shard_pools

    shutdown_shard_pools()
    # Both helpers exit once their pipe closes; stop them now and wait for
    # them, so that no process of this run outlives it.
    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


# --------------------------------------------------------------------------- #
# The run
# --------------------------------------------------------------------------- #
def measure(workload, recorder, seconds: float, tracer) -> dict:
    """The closed loop; in a traced run every other step is traced.

    The loop runs for ``seconds`` and then on to the end of the current
    round of the workload's traffic mix.
    """
    service = workload.service
    before = service.cache_metrics()
    busy = {True: 0.0, False: 0.0}
    ops = {True: 0, False: 0}
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds or index % workload.round_steps:
        traced = tracer is not None and index % 2 == 0
        completed_before = sum(len(v) for v in recorder.latencies.values())
        checking_before = recorder.check_seconds
        step_start = time.perf_counter()
        if traced:
            tracer.install()
        try:
            workload.step(index, traced)
        finally:
            if traced:
                tracer.uninstall()
        elapsed = time.perf_counter() - step_start
        busy[traced] += elapsed - (recorder.check_seconds - checking_before)
        ops[traced] += sum(len(v) for v in recorder.latencies.values()) - completed_before
        index += 1
    after = service.cache_metrics()

    def ratio(cache: str) -> float:
        hits = after[cache]["hits"] - before[cache]["hits"]
        lookups = hits + after[cache]["misses"] - before[cache]["misses"]
        return hits / lookups if lookups else 0.0

    overhead = 0.0
    if tracer is not None and busy[True] > 0 and busy[False] > 0 and ops[True]:
        overhead = (ops[False] / busy[False]) / (ops[True] / busy[True])
    return {
        "busy_s": busy[True] + busy[False],
        "plan_cache_hit_ratio": ratio("plan_cache"),
        "stats_cache_hit_ratio": ratio("stats_cache"),
        "trace_overhead_x": overhead,
    }


def run(args, workload_class, work_dir: Path) -> int:
    from layers import LayerTracer
    from report import end_to_end, informational, per_layer
    from workloads import Recorder

    recorder = Recorder()
    workload = workload_class(args.seed, work_dir, recorder)
    calibration_before = calibrate_ms()
    try:
        builds = []
        for _ in range(workload.builds):
            start = time.perf_counter()
            workload.build()
            builds.append(time.perf_counter() - start)
        start = time.perf_counter()
        workload.warm()
        setup_s = statistics.median(builds) + time.perf_counter() - start
        recorder.reset_samples()

        tracer = LayerTracer() if args.trace else None
        workload.tracer = tracer
        phase = measure(workload, recorder, args.seconds, tracer)
        rss_mb = peak_rss_mb()
        workload.check()
    finally:
        workload.close()
        stop_workers()
    calibration_after = calibrate_ms()

    counts = " ".join(f"{kind}={len(v)}" for kind, v in sorted(recorder.latencies.items()))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} samples: {counts}")
    print(
        f"# host.calibration_ms before={calibration_before:.3f} "
        f"after={calibration_after:.3f}"
    )
    if args.trace:
        metrics = per_layer(recorder, workload, tracer, phase, calibration_before)
    else:
        metrics = end_to_end(recorder, setup_s, phase["busy_s"], rss_mb)
        for name, (value, unit) in informational(recorder, workload).items():
            print(f"# {name} = {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for error in recorder.errors:
        print(f"error: {error}", file=sys.stderr)
    correct = recorder.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    work_dir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True)
    # multiprocessing keeps its sockets in a temporary directory that it
    # removes itself at exit, after this function returns: keep it inside
    # the checkout, but out of the directory removed below.
    temp_dir = ROOT / ".bench_work" / "tmp"
    temp_dir.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(temp_dir)
    tempfile.tempdir = str(temp_dir)
    try:
        return run(args, WORKLOADS[args.workload], work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    # The guard is required: shard pools start workers through the
    # forkserver method, which imports this module in every worker.
    sys.exit(main())
