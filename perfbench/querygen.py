"""Seeded SQL texts for the benchmark, built from the JOB query templates.

Every query the benchmark sends is SQL text.  The texts come from the six
templates of :mod:`repro.workloads.job`: a template is instantiated with a
:class:`~repro.workloads.job.QueryGroupSpec` and the resulting bound query is
rendered back to SQL here.  Ad-hoc texts draw their literals from the ranges
the 33 group specs use (years, ratings, LIKE patterns, keywords, countries);
the structure of each template (how many patterns and keywords it carries)
is held fixed, so planning cost depends on the template and not on the draw.

Every third text is *shaped*: ``SELECT t.production_year, COUNT(*) ... GROUP
BY ... ORDER BY COUNT(*) DESC, t.production_year LIMIT 10``, which sends the
query through output shaping and, under shards, partial aggregation.  The
order is total (the group key breaks ties), so ``LIMIT`` keeps the same rows
under every planner.
"""

from __future__ import annotations

import random

from repro.expr.ast import (
    AndExpr,
    ColumnRef,
    Comparison,
    InPredicate,
    LikePredicate,
    Literal,
    OrExpr,
)
from repro.workloads.job import _GROUP_SPECS, _TEMPLATES, QueryGroupSpec, job_query_groups

#: Template names in a fixed order (the seed permutes them per round).
TEMPLATES = tuple(sorted(_TEMPLATES))

#: Patterns and keywords per template instance; the largest count any of the
#: 33 specs uses for that template, so every draw has the same structure.
_PATTERN_COUNT = {"character": 2}
_KEYWORD_COUNT = {"keyword_theme": 2, "rating_keyword": 2, "character": 1}

SHAPED_SUFFIX = (
    " GROUP BY t.production_year ORDER BY COUNT(*) DESC, t.production_year LIMIT 10"
)


def _pools() -> dict:
    """Literal ranges and value pools taken from the 33 group specs."""
    years = [year for spec in _GROUP_SPECS for year in spec.years]
    ratings = [rating for spec in _GROUP_SPECS for rating in spec.ratings]
    pools = {
        "years": (min(years), max(years)),
        "ratings": (min(ratings), max(ratings)),
        "countries": sorted({c for spec in _GROUP_SPECS for c in spec.countries}),
    }
    for template in TEMPLATES:
        specs = [spec for spec in _GROUP_SPECS if spec.template == template]
        pools[template] = {
            "patterns": sorted({p for spec in specs for p in spec.patterns}),
            "keywords": sorted({k for spec in specs for k in spec.keywords}),
        }
    return pools


_POOLS = _pools()


def draw_spec(rng: random.Random, template: str) -> QueryGroupSpec:
    """One template instance with literals drawn from the specs' ranges.

    The two years and the two ratings are distinct, as in every group spec:
    equal ones would merge clauses and change the query's structure.
    """
    low_year, high_year = _POOLS["years"]
    low_rating, high_rating = _POOLS["ratings"]
    tenths = range(round(low_rating * 10), round(high_rating * 10) + 1)
    ratings = [value / 10 for value in tenths]
    pool = _POOLS[template]
    return QueryGroupSpec(
        index=0,
        template=template,
        years=tuple(rng.sample(range(low_year, high_year + 1), 2)),
        ratings=tuple(rng.sample(ratings, 2)),
        patterns=tuple(rng.sample(pool["patterns"], _PATTERN_COUNT.get(template, 1))),
        keywords=tuple(rng.sample(pool["keywords"], _KEYWORD_COUNT.get(template, 0))),
        countries=tuple(rng.sample(_POOLS["countries"], 2)),
    )


# --------------------------------------------------------------------------- #
# Rendering
# --------------------------------------------------------------------------- #
def _value(expr) -> str:
    if isinstance(expr, ColumnRef):
        return f"{expr.alias}.{expr.column}"
    if isinstance(expr, Literal):
        return _literal(expr.value)
    raise TypeError(f"cannot render value {expr!r}")


def _literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _predicate(expr) -> str:
    if isinstance(expr, Comparison):
        return f"{_value(expr.left)} {expr.op} {_value(expr.right)}"
    if isinstance(expr, LikePredicate):
        op = "ILIKE" if expr.case_insensitive else "LIKE"
        return f"{_value(expr.operand)} {op} {_literal(expr.pattern)}"
    if isinstance(expr, InPredicate):
        values = ", ".join(_literal(value) for value in expr.values)
        return f"{_value(expr.operand)} IN ({values})"
    if isinstance(expr, (AndExpr, OrExpr)):
        connective = " AND " if isinstance(expr, AndExpr) else " OR "
        return "(" + connective.join(_predicate(child) for child in expr.children()) + ")"
    raise TypeError(f"cannot render predicate {expr!r}")


def to_sql(query, shaped: bool) -> str:
    """Render a bound JOB-template query as SQL text."""
    aliases = list(query.tables)
    first = aliases[0]
    parts = [
        "SELECT t.production_year, COUNT(*)" if shaped else "SELECT *",
        f"FROM {query.tables[first]} AS {first}",
    ]
    bound = {first}
    for alias in aliases[1:]:
        conditions = [
            join for join in query.join_conditions
            if alias in join.aliases() and join.aliases() - {alias} <= bound
        ]
        on = " AND ".join(f"{_value(j.left)} = {_value(j.right)}" for j in conditions)
        parts.append(f"JOIN {query.tables[alias]} AS {alias} ON {on}")
        bound.add(alias)
    parts.append("WHERE " + _predicate(query.predicate))
    return " ".join(parts) + (SHAPED_SUFFIX if shaped else "")


# --------------------------------------------------------------------------- #
# Workload streams
# --------------------------------------------------------------------------- #
def adhoc_texts(seed: int):
    """Endless stream of distinct ad-hoc texts for ``seed``.

    Each round visits the six templates once, in a seed-shuffled order, so
    any prefix of the stream holds a near-even template mix.  Every third
    text is shaped.  A text already issued is drawn again, so no text (and
    no plan-cache fingerprint) repeats.
    """
    rng = random.Random(seed)
    seen: set[str] = set()
    position = 0
    while True:
        order = list(TEMPLATES)
        rng.shuffle(order)
        for template in order:
            while True:
                spec = draw_spec(rng, template)
                text = to_sql(_TEMPLATES[template](spec), shaped=position % 3 == 2)
                if text not in seen:
                    break
            seen.add(text)
            position += 1
            yield text


def served_texts() -> list[str]:
    """The 33 JOB groups, each as ``SELECT *`` and shaped: 66 fixed texts."""
    groups = job_query_groups()
    return [to_sql(query, shaped) for query in groups for shaped in (False, True)]


def group_texts(template: str) -> list[str]:
    """The ``SELECT *`` texts of the JOB groups built from ``template``."""
    return [
        to_sql(query, shaped=False)
        for spec, query in zip(_GROUP_SPECS, job_query_groups())
        if spec.template == template
    ]
