"""Tests of the benchmark's query generator.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import querygen  # noqa: E402
from repro.service.fingerprint import query_fingerprint  # noqa: E402
from repro.service.plan_cache import DEFAULT_PLAN_CACHE_SIZE  # noqa: E402
from repro.sql import parse_query  # noqa: E402
from repro.workloads.job import job_query_groups  # noqa: E402

PLANNERS = ("tcombined", "bdisj")

#: More ad-hoc texts than one measured run issues.
ADHOC_TEXTS = 200


def _adhoc(seed: int, count: int = ADHOC_TEXTS) -> list[str]:
    return list(itertools.islice(querygen.adhoc_texts(seed), count))


def _fingerprints(texts) -> list[str]:
    return [
        query_fingerprint(parse_query(text), planner, catalog_version=0)
        for text in texts
        for planner in PLANNERS
    ]


def test_same_seed_gives_byte_identical_texts():
    assert _adhoc(7) == _adhoc(7)
    assert querygen.served_texts() == querygen.served_texts()


def test_adhoc_never_repeats_a_fingerprint():
    fingerprints = _fingerprints(_adhoc(11))
    assert len(set(fingerprints)) == len(fingerprints)


def test_served_has_132_fingerprints_within_the_plan_cache():
    fingerprints = set(_fingerprints(querygen.served_texts()))
    assert len(fingerprints) == 132
    assert len(fingerprints) <= DEFAULT_PLAN_CACHE_SIZE


def test_every_generated_text_parses():
    texts = _adhoc(5) + querygen.served_texts() + [
        text for template in querygen.TEMPLATES for text in querygen.group_texts(template)
    ]
    for text in texts:
        query = parse_query(text)
        assert query.has_output_shaping == ("GROUP BY" in text)


def test_rendered_sql_is_the_template_query():
    for query, text in zip(job_query_groups(), querygen.served_texts()[::2]):
        parsed = parse_query(text)
        assert parsed.tables == query.tables
        assert parsed.predicate.key() == query.predicate.key()


def test_two_seeds_draw_different_literals():
    first, second = _adhoc(1, 30), _adhoc(2, 30)
    assert first != second
    assert len(set(first) & set(second)) < 3


def test_draws_keep_literals_distinct():
    rng = random.Random(4)
    for template in querygen.TEMPLATES * 50:
        spec = querygen.draw_spec(rng, template)
        assert len(set(spec.years)) == 2
        assert len(set(spec.ratings)) == 2


def test_adhoc_rounds_cover_every_template():
    texts = _adhoc(3, len(querygen.TEMPLATES) * 4)
    tables = [frozenset(parse_query(text).tables.values()) for text in texts]
    for start in range(0, len(texts), len(querygen.TEMPLATES)):
        assert len(set(tables[start:start + len(querygen.TEMPLATES)])) == len(
            querygen.TEMPLATES
        )
