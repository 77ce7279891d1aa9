"""The benchmark workloads and the checks on their results.

Every workload is a closed loop from one client: the next operation starts
when the previous one has returned.  All reads go through one
:class:`~repro.service.QueryService`; "tagged" is the ``tcombined`` planner,
"traditional" is ``bdisj``.  A workload is built in :meth:`Workload.build`
(repeated to take a median set-up time), warmed in :meth:`Workload.warm`,
driven step by step in :meth:`Workload.step` for the measured phase, and
checked in :meth:`Workload.check`.  The sizes and the reason for each
workload are in ``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import querygen
from layers import directory_bytes

TAGGED = "tcombined"
TRADITIONAL = "bdisj"
#: Tagged queries executed across shard worker processes (``job-served``).
SHARDED = "sharded"

#: IMDB-like catalog scale of every workload (~94k rows in 11 tables).  At
#: this scale a 28 s run fits the benchmark's time budget and gives every
#: p90 about 100 samples or more; job-adhoc, where planning dominates, has
#: the fewest.
SCALE = 0.25

#: Shard worker processes of the sharded calls of ``job-served``.
SHARDS = 2

#: ``ingest``: rows appended per commit, commits per compaction.  The
#: compaction interval is odd so that a traced run (every other step traced)
#: traces every other compaction.
APPEND_ROWS = 200
COMPACT_EVERY = 7


def _digest(result) -> str:
    """Order-insensitive digest of a result's rows."""
    return hashlib.sha1(repr(result.sorted_rows()).encode()).hexdigest()


class Recorder:
    """Latency samples, operation counts and failures of one run."""

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Per traced query: (kind, latency seconds, QueryResult); the kind is
        #: the planner, or SHARDED.
        self.traced: list[tuple[str, float, object]] = []
        #: Per traced commit: named measurements (see IngestWorkload).
        self.commit_layers: dict[str, list[float]] = defaultdict(list)
        #: Seconds spent checking results inside the measured phase.
        self.check_seconds = 0.0

    def reset_samples(self) -> None:
        """Forget warm-up latencies (failures and attempts are kept)."""
        self.latencies.clear()
        self.check_seconds = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def timed(self, kind: str, call, traced: bool = False):
        """Run ``call()`` as one operation of ``kind``; returns its result or None."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = call()
        except Exception as error:  # noqa: BLE001 - a failed operation is counted
            self.fail(f"{kind}: {type(error).__name__}: {error}")
            return None
        elapsed = time.perf_counter() - start
        self.latencies[kind].append(elapsed)
        if traced and kind in (TAGGED, TRADITIONAL, SHARDED):
            self.traced.append((kind, elapsed, result))
        return result

    def read(self, service, text: str, planner: str, traced: bool, kind: str | None = None):
        """One query; returns its row digest, or None when it failed."""
        result = self.timed(
            kind or planner,
            lambda: service.execute(text, planner=planner, trace=traced),
            traced,
        )
        if result is None:
            return None
        start = time.perf_counter()
        digest = _digest(result)
        self.check_seconds += time.perf_counter() - start
        return digest

    def expect(self, digest, reference, what: str) -> None:
        """Count a wrong result when ``digest`` differs from ``reference``."""
        if digest is not None and digest != reference:
            self.fail(f"wrong result: {what}")


def _both_planners(recorder, service, text, step_index, traced, what):
    """Issue ``text`` under both planners, alternating which goes first.

    Alternating keeps the parse and statistics caches, which the second call
    of a text finds warm, from favouring either planner.  The order flips
    every two steps, so the traced (even) steps alternate too.  Returns the
    tagged digest after checking that both planners agree.
    """
    order = (TAGGED, TRADITIONAL) if step_index // 2 % 2 == 0 else (TRADITIONAL, TAGGED)
    digests = {planner: recorder.read(service, text, planner, traced) for planner in order}
    if None not in digests.values():
        recorder.expect(digests[TRADITIONAL], digests[TAGGED], f"{what}: tagged vs traditional")
    return digests[TAGGED]


def _oracle_check(recorder, service, catalog, text: str) -> None:
    """Compare the engine's rows for ``text`` with the naive oracle's."""
    from repro.sql import parse_query
    from repro.testing.oracle import evaluate_oracle

    recorder.attempted += 1
    try:
        expected = evaluate_oracle(catalog, parse_query(text))
        actual = service.execute(text, planner=TAGGED).sorted_rows()
    except Exception as error:  # noqa: BLE001 - counted as a failed check
        recorder.fail(f"oracle: {type(error).__name__}: {error}")
        return
    if actual != expected:
        recorder.fail(f"oracle mismatch: {text}")


class Workload:
    """Base class: a closed-loop workload over one query service."""

    name = ""
    #: Builds timed per run; the median is the reported build time.
    builds = 3
    #: Steps of one round of the traffic mix.  The measured phase ends on a
    #: round boundary, so every run sends the same mix.
    round_steps = 1
    #: On-disk bytes ÷ logical live-row bytes after the run (``ingest`` only).
    space_amp_x = 0.0

    def __init__(self, seed: int, work_dir: Path, recorder: Recorder) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.recorder = recorder
        self.service = None
        self.catalog = None
        #: The installed :class:`layers.LayerTracer` of a traced run, else None.
        self.tracer = None

    def build(self) -> None:
        """Create the catalog and the service (replacing any earlier build)."""
        raise NotImplementedError

    def warm(self) -> None:
        """Fill the caches the measured phase relies on."""

    def step(self, index: int, traced: bool) -> None:
        """One unit of closed-loop traffic."""
        raise NotImplementedError

    def check(self) -> None:
        """Post-run correctness checks (outside the measured phase)."""

    def close(self) -> None:
        """Release the service and the catalog (also before a rebuild)."""
        if self.service is not None:
            self.service.close()
        self.service = None
        self.catalog = None

    def _new_service(self, catalog) -> None:
        from repro import QueryService, Session

        self.catalog = catalog
        self.service = QueryService(Session(catalog))


class AdhocWorkload(Workload):
    """Distinct seed-drawn texts: every tagged query is planned from scratch."""

    name = "job-adhoc"
    round_steps = len(querygen.TEMPLATES)

    def build(self) -> None:
        from repro.workloads.imdb import generate_imdb_catalog

        self.close()
        self._new_service(generate_imdb_catalog(scale=SCALE, seed=self.seed))
        self.texts = querygen.adhoc_texts(self.seed)

    def warm(self) -> None:
        # One round of the stream (one text per template) under both
        # planners fills the statistics cache; the texts are not reused.
        for _ in querygen.TEMPLATES:
            text = next(self.texts)
            for planner in (TAGGED, TRADITIONAL):
                self.service.execute(text, planner=planner)
        self.issued: list[str] = []

    def step(self, index: int, traced: bool) -> None:
        text = next(self.texts)
        self.issued.append(text)
        _both_planners(self.recorder, self.service, text, index, traced, text)

    def check(self) -> None:
        unshaped = [text for text in self.issued if "GROUP BY" not in text]
        if unshaped:
            _oracle_check(self.recorder, self.service, self.catalog,
                          random.Random(self.seed).choice(unshaped[:4]))


class ServedWorkload(Workload):
    """66 fixed texts, all served from the plan cache: serial and sharded.

    Each step issues one text under both planners, serially, and then under
    tagged across shard worker processes.  The shard count is not part of a
    plan's fingerprint, so the sharded call hits the same cached plan.
    """

    name = "job-served"

    def build(self) -> None:
        from repro.workloads.imdb import generate_imdb_catalog

        self.close()
        self._new_service(generate_imdb_catalog(scale=SCALE, seed=self.seed))
        self.texts = querygen.served_texts()
        self.order = list(range(len(self.texts)))
        self.round_steps = len(self.texts)

    def warm(self) -> None:
        for planner in (TAGGED, TRADITIONAL):
            self.service.warm(self.texts, planner=planner)
        # Reference digests from serial execution; the sharded pass starts
        # the shard pool and ships the tables before timing.
        self.reference = {}
        for position, text in enumerate(self.texts):
            self.reference[position] = _both_planners(
                self.recorder, self.service, text, position, False, f"warm-up: {text}"
            )
            self._sharded(text, position, False)

    def _sharded(self, text: str, text_index: int, traced: bool) -> None:
        self.service.shards = SHARDS
        try:
            digest = self.recorder.read(self.service, text, TAGGED, traced, kind=SHARDED)
        finally:
            self.service.shards = None
        self.recorder.expect(digest, self.reference[text_index], f"sharded vs serial: {text}")

    def step(self, index: int, traced: bool) -> None:
        # Rounds over the texts, each round in a seed-shuffled order.
        round_index, position = divmod(index, len(self.texts))
        if position == 0:
            random.Random(self.seed * 1000 + round_index).shuffle(self.order)
        text_index = self.order[position]
        text = self.texts[text_index]
        digest = _both_planners(self.recorder, self.service, text, index, traced, text)
        self.recorder.expect(digest, self.reference[text_index], f"{self.name}: {text}")
        self._sharded(text, text_index, traced)

    def check(self) -> None:
        unshaped = [text for text in self.texts if "GROUP BY" not in text]
        _oracle_check(self.recorder, self.service, self.catalog,
                      random.Random(self.seed).choice(unshaped))


class IngestWorkload(Workload):
    """Commits beside reads on a durable, WAL-logged dataset on disk."""

    name = "ingest"
    round_steps = COMPACT_EVERY

    def build(self) -> None:
        from repro.storage.disk import load_catalog, save_catalog
        from repro.workloads.imdb import generate_imdb_catalog

        self.close()
        self.root = self.work_dir / "ingest-data"
        shutil.rmtree(self.root, ignore_errors=True)
        save_catalog(generate_imdb_catalog(scale=SCALE, seed=self.seed), self.root)
        # durable=True attaches the WAL with fsync on every commit.
        self._new_service(load_catalog(self.root, durable=True))
        # Each cycle reads one text that touches the mutated table (so it
        # is re-planned after every commit; the five rating_year groups in
        # turn) and two that do not (served from the plan cache).
        self.touching = querygen.group_texts("rating_year")
        random.Random(self.seed).shuffle(self.touching)
        self.cached = [querygen.group_texts("company")[0], querygen.group_texts("person")[0]]
        self.rng = np.random.default_rng(self.seed)
        table = self.catalog.get("movie_info_idx")
        self.next_id = int(table.column("id").data.max()) + 1
        self.titles = self.catalog.get("title").num_rows
        self.commits = 0

    def warm(self) -> None:
        for text in self.touching + self.cached:
            for planner in (TAGGED, TRADITIONAL):
                self.service.execute(text, planner=planner)

    def _rows(self) -> list[dict]:
        rng = self.rng
        first = self.next_id
        self.next_id += APPEND_ROWS
        movie_ids = rng.integers(1, self.titles + 1, APPEND_ROWS)
        kinds = rng.choice([99, 100, 101, 102, 103], APPEND_ROWS)
        ratings = np.round(rng.uniform(1.0, 10.0, APPEND_ROWS), 1)
        return [
            {
                "id": first + i,
                "movie_id": int(movie_ids[i]),
                "info_type_id": int(kinds[i]),
                "info": float(ratings[i]),
            }
            for i in range(APPEND_ROWS)
        ]

    def step(self, index: int, traced: bool) -> None:
        recorder = self.recorder
        rows = self._rows()
        low = int(self.rng.integers(1, self.next_id - APPEND_ROWS))
        band = f"movie_info_idx.id BETWEEN {low} AND {low + APPEND_ROWS - 1}"

        def stage(batch):
            batch.insert("movie_info_idx", rows)
            batch.delete("movie_info_idx", where=band)

        if traced:
            before = self._disk_state()
        commit = recorder.timed("commit", lambda: self.service.execute_mutation(stage))
        if commit is not None:
            self.commits += 1
            if traced:
                self._record_commit(before, rows)
            if self.commits % COMPACT_EVERY == 0:
                recorder.timed("compact", self.service.compact)
        reads = [self.touching[index % len(self.touching)]] + self.cached
        for text in reads:
            _both_planners(recorder, self.service, text, index, traced, text)

    # ---------------------------------------------------------- per commit
    def _disk_state(self) -> dict:
        return {
            "fsyncs": self.tracer.counts["mutation.fsyncs"],
            "wal": _file_size(self.root / "wal.log"),
            "dir": directory_bytes(self.root),
            "plans": len(self.service.plan_cache),
        }

    def _record_commit(self, before: dict, rows: list[dict]) -> None:
        after = self._disk_state()
        layers = self.recorder.commit_layers
        layers["fsyncs"].append(after["fsyncs"] - before["fsyncs"])
        layers["wal_bytes"].append(after["wal"] - before["wal"])
        layers["bytes_written_per_user_byte"].append(
            (after["dir"] - before["dir"]) / _rows_bytes(rows)
        )
        layers["plans_retired"].append(before["plans"] - after["plans"])

    def check(self) -> None:
        """The recovery path must yield exactly the live rows served in memory."""
        from repro.storage.disk import load_catalog

        logical = sum(_live_bytes(self.catalog.get(name)) for name in self.catalog.table_names)
        self.space_amp_x = directory_bytes(self.root) / logical
        self.recorder.attempted += 1
        try:
            recovered = load_catalog(self.root)
            for name in self.catalog.table_names:
                if _live_rows(recovered.get(name)) != _live_rows(self.catalog.get(name)):
                    self.recorder.fail(f"recovery: live rows of {name} differ")
        except Exception as error:  # noqa: BLE001 - counted as a failed check
            self.recorder.fail(f"recovery: {type(error).__name__}: {error}")


WORKLOADS = {
    workload.name: workload
    for workload in (AdhocWorkload, ServedWorkload, IngestWorkload)
}


# --------------------------------------------------------------------------- #
# Byte accounting
# --------------------------------------------------------------------------- #
def _file_size(path: Path) -> int:
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0


def _value_bytes(value) -> int:
    if value is None:
        return 0
    if isinstance(value, str):
        return len(value.encode())
    return 8


def _rows_bytes(rows: list[dict]) -> int:
    return sum(_value_bytes(value) for row in rows for value in row.values())


def _live_bytes(table) -> int:
    """Logical bytes of the live rows: 8 per number, UTF-8 length per string."""
    live = np.ones(table.num_rows, dtype=np.bool_)
    if table.delete_mask is not None:
        live &= ~table.delete_mask
    total = 0
    for column in table.columns():
        present = live & ~column.null_mask
        if column.data.dtype == object:
            total += sum(len(str(value).encode()) for value in column.data[present])
        else:
            total += 8 * int(present.sum())
    return total


def _live_rows(table) -> list[tuple]:
    live = np.ones(table.num_rows, dtype=np.bool_)
    if table.delete_mask is not None:
        live &= ~table.delete_mask
    columns = []
    for column in table.columns():
        values = column.data[live].tolist()
        for position in np.flatnonzero(column.null_mask[live]):
            values[int(position)] = None
        columns.append(values)
    return sorted(zip(*columns), key=lambda row: tuple(str(value) for value in row))
