"""Metrics of one run, computed from the recorded samples and spans.

Each function returns ``{name: (value, unit)}``.  The names are the ones in
``BENCHMARK.json`` (end-to-end and per-layer) plus the figures printed but
not gated; ``README.md`` next to this file describes every one.
"""

from __future__ import annotations

import re
import statistics

from workloads import SHARDED, TAGGED, TRADITIONAL

#: Physical operator labels reported by the traced run (others: ``other``).
OPERATORS = ("scan", "filter", "join", "tagged_project", "traditional_project")

#: Engine work counters reported per traced query (``QueryResult.metrics``).
ENGINE_COUNTERS = (
    "predicate_rows_evaluated",
    "clause_rows_evaluated",
    "join_build_rows",
    "join_probe_rows",
    "tuples_materialized",
    "union_input_rows",
    "slices_created",
    "output_rows",
)


def _p(values: list[float], fraction: float) -> float:
    """Inclusive-method quantile of ``values`` (seconds in, ms out; 0 if none)."""
    if len(values) < 2:
        return values[0] * 1000.0 if values else 0.0
    cut = statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1]
    return cut * 1000.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _operator_name(label: str) -> str:
    """``TaggedProjectPhysical`` -> ``tagged_project``."""
    base = label[: -len("Physical")] if label.endswith("Physical") else label
    snake = re.sub(r"(?<!^)(?=[A-Z])", "_", base).lower()
    return snake if snake in OPERATORS else "other"


def end_to_end(recorder, setup_s: float, busy_s: float, rss_mb: float) -> dict:
    """The gated metrics of an untraced run."""
    tagged = recorder.latencies[TAGGED]
    traditional = recorder.latencies[TRADITIONAL]
    completed = sum(len(values) for values in recorder.latencies.values())
    return {
        "tagged_p50_ms": (_p(tagged, 0.5), "ms"),
        "tagged_p90_ms": (_p(tagged, 0.9), "ms"),
        "traditional_p50_ms": (_p(traditional, 0.5), "ms"),
        "traditional_p90_ms": (_p(traditional, 0.9), "ms"),
        "ops_per_s": (completed / busy_s if busy_s > 0 else 0.0, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def informational(recorder, workload) -> dict:
    """Figures printed on every untraced run but not gated."""
    tagged = recorder.latencies[TAGGED]
    traditional = recorder.latencies[TRADITIONAL]
    figures = {
        "failed_frac": (recorder.failed / max(recorder.attempted, 1), "ratio"),
        "tagged_vs_traditional_x": (
            _p(traditional, 0.5) / _p(tagged, 0.5) if tagged and traditional else 0.0,
            "x",
        ),
    }
    sharded = recorder.latencies[SHARDED]
    if sharded:
        figures["sharded_p50_ms"] = (_p(sharded, 0.5), "ms")
        figures["sharded_p90_ms"] = (_p(sharded, 0.9), "ms")
    commits = recorder.latencies["commit"]
    if commits:
        figures["commit_p50_ms"] = (_p(commits, 0.5), "ms")
        figures["commit_p90_ms"] = (_p(commits, 0.9), "ms")
        figures["space_amp_x"] = (workload.space_amp_x, "x")
    return figures


def drift_x(latencies: list[float]) -> float:
    """Median latency of the last quarter of the run over the first quarter."""
    quarter = len(latencies) // 4
    if quarter == 0:
        return 0.0
    return statistics.median(latencies[-quarter:]) / statistics.median(latencies[:quarter])


def per_layer(recorder, workload, tracer, phase: dict, calibration: float) -> dict:
    """The per-layer metrics of a traced run."""
    traced = recorder.traced
    tagged = [latency for kind, latency, _ in traced if kind == TAGGED]
    per_tagged = max(len(tagged), 1)
    counts = tracer.counts

    def per_query(value) -> float:
        return sum(value(result) for _, _, result in traced) / (len(traced) or 1)

    metrics = {
        "sql.parse_ms": (tracer.self_ms("sql.parse"), "ms"),
        "stats.context_ms": (tracer.self_ms("stats.context"), "ms"),
        "core.plan_ms": (tracer.self_ms("core.plan"), "ms"),
        "core.plan_share": (
            tracer.total_self_s("core.plan") / sum(tagged) if tagged else 0.0, "ratio"
        ),
        "core.candidates": (counts["core.candidates"] / per_tagged, "count"),
        "core.generalize_calls": (counts["core.generalize_calls"] / per_tagged, "count"),
        "core.implication_calls": (counts["core.implication_calls"] / per_tagged, "count"),
        "baseline.plan_ms": (tracer.self_ms("baseline.plan"), "ms"),
        "physical.compile_ms": (tracer.self_ms("physical.compile"), "ms"),
        "engine.exec_ms.tagged": (tracer.self_ms("engine.exec.tagged"), "ms"),
        "engine.exec_ms.traditional": (tracer.self_ms("engine.exec.traditional"), "ms"),
        "engine.postprocess_ms": (tracer.self_ms("engine.postprocess"), "ms"),
        "engine.shard_ms": (tracer.self_ms("engine.shard"), "ms"),
    }
    # Operator self time: per query, summed over the plan's operators of
    # one kind; the median over the queries that ran that kind.
    per_operator: dict[str, list[float]] = {name: [] for name in OPERATORS + ("other",)}
    for _kind, _latency, result in traced:
        sums: dict[str, float] = {}
        for timing in result.trace.operator_timings().values():
            name = _operator_name(timing["label"])
            sums[name] = sums.get(name, 0.0) + timing["self_seconds"]
        for name, seconds in sums.items():
            per_operator[name].append(seconds)
    for name, values in per_operator.items():
        median_ms = statistics.median(values) * 1000.0 if values else 0.0
        metrics[f"engine.operator.{name}_ms"] = (median_ms, "ms")
    for counter in ENGINE_COUNTERS:
        metrics[f"engine.{counter}"] = (
            per_query(lambda result, c=counter: getattr(result.metrics, c)), "count"
        )

    layers = recorder.commit_layers
    commits = recorder.latencies["commit"]
    metrics.update({
        "engine.shards_executed": (per_query(lambda r: r.metrics.shards_executed), "count"),
        "access.pages_read": (per_query(lambda r: r.iostats.pages_read), "count"),
        "access.pages_hit": (per_query(lambda r: r.iostats.pages_hit), "count"),
        "access.pages_pruned": (per_query(lambda r: r.metrics.pages_pruned), "count"),
        "service.plan_cache_hit_ratio": (phase["plan_cache_hit_ratio"], "ratio"),
        "service.stats_cache_hit_ratio": (phase["stats_cache_hit_ratio"], "ratio"),
        "mutation.commit_ms": (tracer.self_ms("mutation.commit"), "ms"),
        "mutation.wal_append_ms": (tracer.self_ms("mutation.wal_append"), "ms"),
        "mutation.apply_ms": (tracer.self_ms("mutation.apply"), "ms"),
        "mutation.fsyncs_per_commit": (_mean(layers["fsyncs"]), "count"),
        "mutation.wal_bytes_per_commit": (_mean(layers["wal_bytes"]), "bytes"),
        "mutation.bytes_written_per_user_byte": (
            _mean(layers["bytes_written_per_user_byte"]), "ratio"
        ),
        "mutation.compact_ms": (tracer.self_ms("mutation.compact"), "ms"),
        "mutation.plans_retired_per_commit": (_mean(layers["plans_retired"]), "count"),
        "ingest.commit_p50_ms": (_p(commits, 0.5), "ms"),
        "ingest.commit_p90_ms": (_p(commits, 0.9), "ms"),
        "ingest.space_amp_x": (workload.space_amp_x, "x"),
        "unattributed_ms": (tracer.unattributed_ms(), "ms"),
        "obs.trace_overhead_x": (phase["trace_overhead_x"], "x"),
        "service.drift_x": (drift_x(recorder.latencies[TAGGED]), "x"),
        "host.calibration_ms": (calibration, "ms"),
    })
    return metrics
