"""Shared planner infrastructure.

:class:`PlannerContext` bundles everything a planner needs about one query:
the query itself, its predicate tree and a single
:class:`~repro.optimizer.estimates.EstimateProvider` supplying all planning
numbers (table statistics, per-expression selectivities, cost constants).
Planners never construct estimators themselves — the provider is built by
:func:`repro.optimizer.estimates.build_estimate_provider` and may carry
feedback-corrected selectivity overrides injected by the service layer.

:class:`TaggedPlanner` is the base class: subclasses implement
:meth:`TaggedPlanner.build_plan` and inherit costing and common plan-building
helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.planner.benefit import benefiting_order
from repro.core.planner.cost import CostParams, estimate_plan_cost
from repro.core.predtree import PredicateTree
from repro.core.tagmap import PlanTagAnnotations, TagMapBuilder
from repro.expr.ast import BooleanExpr
from repro.expr.builders import or_
from repro.plan.logical import FilterNode, PlanNode, ProjectNode, TableScanNode
from repro.plan.query import Query
from repro.stats.table_stats import TableStats
from repro.storage.catalog import Catalog

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.optimizer.estimates import EstimateProvider


@dataclass
class PlannerContext:
    """Everything a planner needs to know about one query."""

    query: Query
    catalog: Catalog
    estimates: "EstimateProvider"
    predicate_tree: PredicateTree | None
    three_valued: bool = True
    naive_tags: bool = False
    _tag_map_builder: TagMapBuilder | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def table_stats(self) -> dict[str, TableStats]:
        """Per-table summary statistics (delegates to the estimate provider)."""
        return self.estimates.table_stats

    @property
    def cost_params(self) -> CostParams:
        """Cost-model constants (delegates to the estimate provider)."""
        return self.estimates.cost_params

    @classmethod
    def for_query(
        cls,
        query: Query,
        catalog: Catalog,
        cost_params: CostParams | None = None,
        three_valued: bool = True,
        naive_tags: bool = False,
        sample_size: int = 20_000,
        selectivity_mode: str = "measured",
        stats_provider=None,
        selectivity_overrides=None,
        access_manager=None,
    ) -> "PlannerContext":
        """Build the estimate provider and predicate tree for ``query``.

        All estimation knobs (``sample_size``, ``selectivity_mode``,
        ``stats_provider``, ``selectivity_overrides``, ``access_manager``)
        are forwarded to
        :func:`repro.optimizer.estimates.build_estimate_provider`; see there
        for their meaning.  ``selectivity_overrides`` is how the service
        layer injects runtime-observed selectivities when re-planning;
        ``access_manager`` is an opaque handle this package never inspects —
        access-path choices reach planners only through the provider.
        """
        # Imported lazily: the optimizer package imports the cost model from
        # this package, so a module-level import would be circular.
        from repro.optimizer.estimates import build_estimate_provider

        estimates = build_estimate_provider(
            query,
            catalog,
            cost_params=cost_params,
            sample_size=sample_size,
            selectivity_mode=selectivity_mode,
            stats_provider=stats_provider,
            selectivity_overrides=selectivity_overrides,
            access_manager=access_manager,
        )
        tree = PredicateTree(query.predicate) if query.predicate is not None else None
        return cls(
            query=query,
            catalog=catalog,
            estimates=estimates,
            predicate_tree=tree,
            three_valued=three_valued,
            naive_tags=naive_tags,
        )

    # ------------------------------------------------------------------ #
    # Helpers shared by the planners
    # ------------------------------------------------------------------ #
    def tag_map_builder(self) -> TagMapBuilder:
        """The tag-map builder of this planning call, configured for this query.

        Every planner sharing this context (TCombined's four candidates, the
        pull-up and push-down moves) gets the same builder, so a tag is
        generalized and an implication derived once per query.  The builder's
        memos live as long as the context, which ``Session.prepare`` drops
        when planning ends: nothing of them reaches a cached plan.
        """
        if self._tag_map_builder is None:
            self._tag_map_builder = TagMapBuilder(
                self.predicate_tree, naive=self.naive_tags, three_valued=self.three_valued
            )
        return self._tag_map_builder

    def single_table_alias(self, expr: BooleanExpr) -> str | None:
        """The single alias referenced by ``expr``, or None when it spans tables."""
        aliases = expr.tables()
        if len(aliases) == 1:
            return next(iter(aliases))
        return None

    def order_filters(self, filters: list[BooleanExpr]) -> list[BooleanExpr]:
        """Sort filters in benefiting order (Appendix A)."""
        return benefiting_order(self.predicate_tree, filters, self.estimates)

    def effective_alias_rows(
        self, alias: str, pushed: list[BooleanExpr], disjunctive: bool
    ) -> float:
        """Estimated rows of ``alias`` surviving its pushed filters.

        In tagged execution, pushing the predicates of a disjunctive query
        keeps every tuple that satisfies *any* of them (the others are
        dropped by precept (1)), so the surviving fraction is the selectivity
        of their disjunction; conjunctive pushes multiply selectivities.
        """
        base = self.estimates.base_rows(alias)
        if not pushed:
            return base
        if disjunctive and len(pushed) > 1:
            return base * self.estimates.selectivity(or_(*pushed))
        rows = base
        for predicate in pushed:
            rows *= self.estimates.selectivity(predicate)
        return rows


@dataclass
class PlannerResult:
    """A planned query: the logical plan, its tag maps and its estimated cost.

    ``node_rows`` carries the cost model's estimated output rows per plan
    node id (``--explain-analyze`` lines them up against observed rows).
    """

    planner_name: str
    plan: PlanNode
    annotations: PlanTagAnnotations
    estimated_cost: float
    node_rows: dict[int, float] = field(default_factory=dict)

    def describe(self) -> str:
        """One-line summary used by reports."""
        return f"{self.planner_name}: cost={self.estimated_cost:.1f}"


class TaggedPlanner:
    """Base class of tagged-execution planners."""

    name = "tagged"

    def __init__(self, context: PlannerContext) -> None:
        self.context = context

    # ------------------------------------------------------------------ #
    # Interface
    # ------------------------------------------------------------------ #
    def build_plan(self) -> PlanNode:
        """Return the logical plan chosen by this planner."""
        raise NotImplementedError

    def plan(self) -> PlannerResult:
        """Build the plan, its tag maps, its estimated cost and row counts."""
        logical_plan = self.build_plan()
        annotations, breakdown = self.cost_breakdown(logical_plan)
        return PlannerResult(
            self.name,
            logical_plan,
            annotations,
            breakdown.total,
            node_rows=dict(breakdown.node_rows),
        )

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def cost_breakdown(self, plan: PlanNode):
        """Tag maps + full cost breakdown for a candidate plan."""
        annotations = self.context.tag_map_builder().build(plan)
        breakdown = estimate_plan_cost(plan, annotations, self.context.estimates)
        return annotations, breakdown

    def cost_plan(self, plan: PlanNode) -> tuple[PlanTagAnnotations, float]:
        """Tag maps + estimated cost for a candidate plan."""
        annotations, breakdown = self.cost_breakdown(plan)
        return annotations, breakdown.total

    def scan_node(self, alias: str) -> TableScanNode:
        """A scan node for ``alias``."""
        return TableScanNode(alias, self.context.query.tables[alias])

    def stack_filters(self, node: PlanNode, filters: list[BooleanExpr]) -> PlanNode:
        """Wrap ``node`` in filter nodes, innermost first."""
        for predicate in filters:
            node = FilterNode(predicate, node)
        return node

    def finish(self, node: PlanNode) -> PlanNode:
        """Add the projection root."""
        return ProjectNode(node, self.context.query.select)
