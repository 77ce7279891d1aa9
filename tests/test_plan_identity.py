"""Plan identity: every tagged planner reproduces a recorded golden file.

``tests/data/plan_identity.golden`` records, for each of the 33 JOB groups
and the ad-hoc texts in ``tests/data/plan_identity_adhoc.sql`` (the first 24
texts of ``perfbench.querygen.adhoc_texts(401)``), under every tagged planner
and under ``tcombined`` with naive tags:

* the plan description;
* every filter, join and projection tag map, node ids replaced by walk order
  (as its entry count and the BLAKE2 digest of its rendering: naive tags
  make maps of thousands of entries);
* the estimated cost and the per-node estimated rows.

Planning-side optimizations (memoized generalization, cached implications)
must reproduce the file byte for byte.  Floats are written with 12
significant digits, so the file does not hinge on the last ulp of one host's
arithmetic; a plan choice that flips on an ulp still shows in the plan
description.

Regenerate only when a plan change is intended::

    PYTHONPATH=src python tests/test_plan_identity.py --write
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Session
from repro.core.planner import PLANNER_REGISTRY, TCombinedPlanner, TExhaustivePlanner
from repro.plan.logical import plan_to_string
from repro.workloads.imdb import generate_imdb_catalog
from repro.workloads.job import job_query_groups

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "plan_identity.golden"
ADHOC = DATA / "plan_identity_adhoc.sql"

#: Catalog the plans are recorded against (the benchmark's scale and a seed).
SCALE = 0.25
SEED = 401


def cases() -> list[tuple[str, object]]:
    """(case id, query or SQL text) in golden order."""
    recorded = [(f"job{index:02d}", query) for index, query in enumerate(job_query_groups(), 1)]
    texts = ADHOC.read_text().splitlines()
    recorded += [(f"adhoc{index:02d}", text) for index, text in enumerate(texts, 1)]
    return recorded


def _num(value: float) -> str:
    return format(value, ".12g")


def _by_walk_order(mapping: dict, order: dict[int, int]) -> list:
    return sorted(mapping.items(), key=lambda item: order[item[0]])


def _map_line(label: str, entries: list[str]) -> str:
    digest = hashlib.blake2s("\n".join(entries).encode()).hexdigest()[:16]
    return f"{label} entries={len(entries)} {digest}"


def render_result(result, naive: bool) -> str:
    """The golden record of one planned tagged query."""
    order = {node.node_id: index for index, node in enumerate(result.plan.walk())}
    annotations = result.annotations
    rows = ", ".join(
        f"{order[node_id]}={_num(value)}"
        for node_id, value in _by_walk_order(result.node_rows, order)
    )
    lines = [
        f"-- {result.planner_name} naive={naive}",
        plan_to_string(result.plan),
        f"cost {_num(result.estimated_cost)}",
        f"rows {rows}",
    ]
    for node_id, tag_map in _by_walk_order(annotations.filter_maps, order):
        entries = [
            f"{in_tag!r} -> T:{entry.pos_tag!r} F:{entry.neg_tag!r} U:{entry.unk_tag!r}"
            for in_tag, entry in tag_map.entries.items()
        ]
        lines.append(_map_line(f"filter {order[node_id]}", entries))
    for node_id, tag_map in _by_walk_order(annotations.join_maps, order):
        entries = [
            f"{left!r} x {right!r} -> {out_tag!r}"
            for (left, right), out_tag in tag_map.entries.items()
        ]
        lines.append(_map_line(f"join {order[node_id]}", entries))
    projection = annotations.projection
    for label, tags in (("allowed", projection.allowed), ("residual", projection.residual)):
        lines.append(_map_line(f"project {label}", sorted(map(repr, tags))))
    return "\n".join(lines)


def render_case(session: Session, case_id: str, query) -> str:
    """The golden section of one query: every tagged planner, then
    ``tcombined`` with naive tags, each planned as ``Session.prepare`` does.

    TCombined's four candidates are recorded from its own run (one shared
    planning context, as in production), which keeps the test affordable.
    """
    bound = session._bind(query)
    combined = TCombinedPlanner(session._planner_context(bound, False))
    results = {"tcombined": combined.plan()}
    results.update((result.planner_name, result) for result in combined.candidates())
    results["texhaustive"] = TExhaustivePlanner(session._planner_context(bound, False)).plan()
    assert results.keys() == PLANNER_REGISTRY.keys()
    naive = TCombinedPlanner(session._planner_context(bound, True)).plan()
    records = [render_result(results[name], False) for name in sorted(results)]
    return "\n".join([f"== {case_id}", *records, render_result(naive, True)])


def golden_sections() -> dict[str, str]:
    """The recorded golden, split into per-query sections."""
    sections: dict[str, str] = {}
    for chunk in GOLDEN.read_text().split("\n== "):
        chunk = chunk.removeprefix("== ")
        case_id = chunk.split("\n", 1)[0]
        sections[case_id] = "== " + chunk.rstrip("\n")
    return sections


@pytest.fixture(scope="module")
def golden_session() -> Session:
    return Session(generate_imdb_catalog(scale=SCALE, seed=SEED))


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return golden_sections()


@pytest.mark.parametrize("case_id, query", cases(), ids=[case_id for case_id, _ in cases()])
def test_plans_match_golden(golden_session, golden, case_id, query):
    assert render_case(golden_session, case_id, query) == golden[case_id]


def test_golden_covers_every_case(golden):
    assert list(golden) == [case_id for case_id, _ in cases()]


#: Plans ``tcombined`` with naive tags on the one ad-hoc text whose plan
#: choice used to follow string hashing: summing join input rows in set
#: order moved TPullup's cost by an ulp (279268.99999999994 vs 279269.0), and
#: TCombined then picked a 349-tag or a 298-tag plan.
_HASH_SEED_PROBE = """
import sys
from repro import Session
from repro.workloads.imdb import generate_imdb_catalog
text = open(sys.argv[1]).read().splitlines()[20]
session = Session(generate_imdb_catalog(scale=%r, seed=%r))
prepared = session.prepare(text, planner="tcombined", naive_tags=True)
print(prepared.annotations.num_tags())
print(prepared.plan_description)
""" % (SCALE, SEED)


def test_naive_plan_choice_does_not_depend_on_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE, str(ADHOC)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        outputs.append(completed.stdout)
    assert outputs[0] == outputs[1]


def write_golden() -> None:
    """Re-record the golden file from the current planner code."""
    session = Session(generate_imdb_catalog(scale=SCALE, seed=SEED))
    sections = [render_case(session, case_id, query) for case_id, query in cases()]
    GOLDEN.write_text("\n".join(sections) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_plan_identity.py --write")
    write_golden()
