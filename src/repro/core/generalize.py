"""Tag generalization (Algorithm 1: GeneralizeTag).

Generalization propagates a tag's assignments upwards through the predicate
tree wherever Boolean implication allows it, then keeps only the topmost
assignments.  A generalized tag stands in for every ungeneralized tag that
implies it, which is what keeps the number of tags in the system small
(Section 3.2).  The three-valued-logic extension of Section 3.4 is supported
throughout: assignments may be TRUE, FALSE or UNKNOWN, and propagation across
AND/OR nodes folds children with the SQL truth tables.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.core.implication import implied_truth_value
from repro.core.predtree import NOT, OR, ParentLink, PredicateTree, PredNode
from repro.core.tags import Tag
from repro.expr.ast import BooleanExpr
from repro.expr.three_valued import FALSE, TRUE, UNKNOWN, TruthValue, scalar_and, scalar_not, scalar_or


#: Memo of single-fact implication verdicts: ``(fact key, fact value, target
#: key) -> TRUE / FALSE / None``.  One table serves one planning call (see
#: :class:`~repro.core.tagmap.TagMapBuilder`); a verdict depends only on the
#: two expressions and the value, so it never goes stale within that call.
ImplicationTable = dict[tuple[str, TruthValue, str], "TruthValue | None"]

#: ``(expression, key, value)`` of each base-predicate assignment of a tag.
Fact = tuple[BooleanExpr, str, TruthValue]


def _can_propagate(
    value: TruthValue | None, link: ParentLink, assignments: dict[str, TruthValue]
) -> bool:
    """The five propagation conditions of Algorithm 1 (3VL variant).

    (a) the parent is a NOT node;
    (b) the parent is an OR node and this child is TRUE;
    (c) the parent is an AND node and this child is FALSE;
    (d) the parent is an OR node and all children are FALSE or UNKNOWN;
    (e) the parent is an AND node and all children are TRUE or UNKNOWN.
    """
    if value is None:
        return False
    _parent_key, kind, child_keys = link
    if kind == NOT:
        return True
    if kind == OR:
        if value is TRUE:
            return True
        allowed = (FALSE, UNKNOWN)
    elif value is FALSE:
        return True
    else:
        allowed = (TRUE, UNKNOWN)
    for key in child_keys:
        if assignments.get(key) not in allowed:
            return False
    return True


def _do_propagate(
    value: TruthValue, link: ParentLink, assignments: dict[str, TruthValue]
) -> TruthValue:
    """Compute and record the parent's assignment value."""
    parent_key, kind, child_keys = link
    if kind == NOT:
        result = scalar_not(value)
    elif kind == OR:
        if value is TRUE:
            result = TRUE
        else:
            result = FALSE
            for key in child_keys:
                result = scalar_or(result, assignments.get(key, FALSE))
    elif value is FALSE:
        result = FALSE
    else:
        result = TRUE
        for key in child_keys:
            result = scalar_and(result, assignments.get(key, TRUE))
    assignments[parent_key] = result
    return result


def _topmost_assignments(
    node: PredNode,
    assignments: dict[str, TruthValue],
    derived_only: set[str],
) -> dict[str, TruthValue]:
    """Collect only the topmost assignments reachable from ``node``.

    An assignment survives only where no ancestor on that path carries an
    assignment; because the recursion is per path, a predicate occurring in
    several places keeps its assignment as long as at least one occurrence
    has no assigned ancestor (Section 3.2, "Duplicates").  Leaf assignments
    that were merely *derived* through predicate implication (and never part
    of the input tag) are used as propagation fuel only and are not emitted.
    """
    if not assignments:
        return {}
    if node.key in assignments:
        if node.is_leaf and node.key in derived_only:
            return {}
        return {node.key: assignments[node.key]}
    collected: dict[str, TruthValue] = {}
    for child in node.children:
        collected.update(_topmost_assignments(child, assignments, derived_only))
    return collected


def tag_facts(tree: PredicateTree, assignments: Iterable[tuple[str, TruthValue]]) -> list[Fact]:
    """The TRUE / FALSE base-predicate assignments among ``assignments``.

    UNKNOWN assignments are left out: no value-level implication follows
    from them.
    """
    leaves = tree.leaf_exprs
    return [
        (leaves[key], key, value)
        for key, value in assignments
        if value is not UNKNOWN and key in leaves
    ]


def implied_by_facts(
    target: BooleanExpr, target_key: str, facts: list[Fact], table: ImplicationTable
) -> TruthValue | None:
    """Truth value of ``target`` forced by ``facts``, one table hit per fact.

    Facts are tried in order and the first verdict wins, exactly as
    :func:`~repro.core.implication.implied_truth_value` does over the whole
    list; each single-fact verdict is computed once per table.
    """
    for fact, fact_key, value in facts:
        triple = (fact_key, value, target_key)
        try:
            verdict = table[triple]
        except KeyError:
            verdict = table[triple] = implied_truth_value(target, ((fact, value),))
        if verdict is not None:
            return verdict
    return None


def _augment_with_implications(
    tree: PredicateTree, assignments: dict[str, TruthValue], table: ImplicationTable
) -> set[str]:
    """Derive assignments for unassigned leaves via predicate implication.

    For example ``t.year > 2000 = T`` derives ``t.year > 1980 = T``.  Returns
    the set of keys that were added (used to keep them out of the final tag).
    """
    facts = tag_facts(tree, assignments.items())
    if not facts:
        return set()

    derived: set[str] = set()
    for leaf_key, leaf in tree.leaf_exprs.items():
        if leaf_key in assignments:
            continue
        value = implied_by_facts(leaf, leaf_key, facts, table)
        if value is not None:
            assignments[leaf_key] = value
            derived.add(leaf_key)
    return derived


def generalize_tag(
    tree: PredicateTree, tag: Tag, implications: ImplicationTable | None = None
) -> Tag:
    """Generalize ``tag`` against ``tree`` (Algorithm 1).

    Assignments to expressions that do not occur in the tree are preserved
    verbatim (they cannot be generalized but still constrain the slice).
    Before propagation the tag is augmented with leaf assignments implied by
    value-level reasoning over comparison predicates (e.g. ``year > 2000``
    implies ``year > 1980``); those derived assignments drive propagation but
    never appear in the resulting tag themselves.  ``implications`` is an
    implication table to read and extend (a throwaway one by default).
    """
    assignments: dict[str, TruthValue] = tag.as_dict()
    foreign = {key: value for key, value in assignments.items() if key not in tree}
    derived_only = _augment_with_implications(
        tree, assignments, {} if implications is None else implications
    )

    links = tree.parent_links
    fringe: deque[str] = deque(key for key in assignments if key in tree)
    enqueued = set(fringe)
    while fringe:
        key = fringe.popleft()
        enqueued.discard(key)
        value = assignments.get(key)
        for link in links[key]:
            if _can_propagate(value, link, assignments):
                parent_key = link[0]
                previous = assignments.get(parent_key)
                new_value = _do_propagate(value, link, assignments)
                if previous != new_value and parent_key not in enqueued:
                    fringe.append(parent_key)
                    enqueued.add(parent_key)

    result = _topmost_assignments(tree.root, assignments, derived_only)
    result.update(foreign)
    return Tag(result)


def root_assignment(tree: PredicateTree, tag: Tag) -> TruthValue | None:
    """The tag's assignment to the whole predicate expression, if any."""
    return tag.get(tree.root_key)


def satisfies_root(tree: PredicateTree, tag: Tag) -> bool:
    """True when the tag assigns TRUE to the root (tuples certainly match)."""
    return root_assignment(tree, tag) is TRUE


def refutes_root(tree: PredicateTree, tag: Tag, include_unknown: bool = True) -> bool:
    """True when the tag's root assignment proves tuples will not be output.

    Under SQL semantics a WHERE clause only passes rows whose predicate is
    TRUE, so both FALSE and UNKNOWN root assignments mean the slice can be
    dropped (Section 3.4, change 4).  Pass ``include_unknown=False`` for the
    strictly two-valued behaviour.
    """
    value = root_assignment(tree, tag)
    if value is FALSE:
        return True
    if include_unknown and value is UNKNOWN:
        return True
    return False
