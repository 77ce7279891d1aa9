"""Predicate trees.

The query's WHERE expression is represented as a *predicate tree*
(Section 3.2): leaves are base predicates, interior nodes are AND / OR / NOT,
and the tree is normalized so an interior node never has a parent of the same
type.  The same subexpression may occur at several positions; each occurrence
is a distinct :class:`PredNode` *instance*, while tags refer to expressions by
their structural key.  Tag generalization propagates assignments per instance
and collapses them per key, which is what lets tagged execution evaluate every
predicate exactly once even when it appears repeatedly (Section 3.2,
"Duplicates").
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.expr.ast import AndExpr, BooleanExpr, NotExpr, OrExpr, flatten


class PredNode:
    """One occurrence (instance) of a subexpression in the predicate tree."""

    __slots__ = ("expr", "key", "parent", "children")

    def __init__(self, expr: BooleanExpr, parent: "PredNode | None") -> None:
        self.expr = expr
        self.key = expr.key()
        self.parent = parent
        self.children: list[PredNode] = []

    @property
    def is_and(self) -> bool:
        """True if this node is an AND node."""
        return isinstance(self.expr, AndExpr)

    @property
    def is_or(self) -> bool:
        """True if this node is an OR node."""
        return isinstance(self.expr, OrExpr)

    @property
    def is_not(self) -> bool:
        """True if this node is a NOT node."""
        return isinstance(self.expr, NotExpr)

    @property
    def is_leaf(self) -> bool:
        """True for base predicates."""
        return not self.children

    def ancestors(self) -> Iterator["PredNode"]:
        """Yield ancestors from the parent up to (and including) the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def ancestor_path(self) -> list["PredNode"]:
        """Ancestor nodes from parent to root, as a list."""
        return list(self.ancestors())

    def __repr__(self) -> str:
        return f"PredNode({self.key})"


#: Interior node kinds, as recorded in :attr:`PredicateTree.parent_links`.
AND, OR, NOT = "and", "or", "not"

#: ``(parent key, parent kind, keys of the parent's children)``.
ParentLink = tuple[str, str, tuple[str, ...]]


def _kind(node: PredNode) -> str:
    """Kind of an interior node (every parent is an AND, OR or NOT node)."""
    if node.is_and:
        return AND
    return OR if node.is_or else NOT


class PredicateTree:
    """Normalized predicate tree for one query's WHERE expression.

    The tree is immutable once built.  Besides the node instances it keeps
    two derived indexes, computed here and never extended afterwards: tag
    generalization reads them thousands of times per query.  Per-planning
    memos live elsewhere (see :class:`~repro.core.tagmap.TagMapBuilder`), so
    a cached plan holding the tree holds no planning state.
    """

    def __init__(self, expr: BooleanExpr) -> None:
        self._expr = flatten(expr)
        self.root = self._build(self._expr, None)
        self._instances: dict[str, list[PredNode]] = {}
        self._expr_by_key: dict[str, BooleanExpr] = {}
        #: Distinct base predicates by key, in first-occurrence order.
        self.leaf_exprs: dict[str, BooleanExpr] = {}
        for node in self.walk():
            self._instances.setdefault(node.key, []).append(node)
            self._expr_by_key.setdefault(node.key, node.expr)
            if node.is_leaf:
                self.leaf_exprs.setdefault(node.key, node.expr)
        #: Per key, the parent link of each instance that has a parent.
        link_of = {
            id(node): (node.key, _kind(node), tuple(child.key for child in node.children))
            for node in self.walk()
            if node.children
        }
        self.parent_links: dict[str, tuple[ParentLink, ...]] = {
            key: tuple(link_of[id(node.parent)] for node in nodes if node.parent is not None)
            for key, nodes in self._instances.items()
        }

    def _build(self, expr: BooleanExpr, parent: PredNode | None) -> PredNode:
        node = PredNode(expr, parent)
        for child in expr.children():
            node.children.append(self._build(child, node))
        return node

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def expression(self) -> BooleanExpr:
        """The normalized WHERE expression."""
        return self._expr

    @property
    def root_key(self) -> str:
        """Structural key of the whole predicate expression."""
        return self.root.key

    def walk(self) -> Iterator[PredNode]:
        """Yield every node instance, pre-order from the root."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def instances(self, key: str) -> list[PredNode]:
        """Every occurrence of the subexpression with structural key ``key``."""
        return list(self._instances.get(key, []))

    def expr_for(self, key: str) -> BooleanExpr:
        """The expression object for a key; raises KeyError if unknown."""
        try:
            return self._expr_by_key[key]
        except KeyError:
            raise KeyError(f"key {key!r} does not occur in this predicate tree") from None

    def __contains__(self, key: str) -> bool:
        return key in self._instances

    def keys(self) -> list[str]:
        """All distinct subexpression keys."""
        return list(self._instances)

    def leaves(self) -> list[PredNode]:
        """Every base-predicate occurrence (with repeats), left-to-right."""
        return [node for node in self.walk() if node.is_leaf]

    def base_predicates(self) -> list[BooleanExpr]:
        """Distinct base predicates, in first-occurrence order."""
        return list(self.leaf_exprs.values())

    # ------------------------------------------------------------------ #
    # Structure queries used by tag-map construction and the benefit score
    # ------------------------------------------------------------------ #
    def parents(self, key: str) -> list[PredNode]:
        """Parent node of each instance of ``key`` (roots have no parent)."""
        return [node.parent for node in self.instances(key) if node.parent is not None]

    def ancestor_paths(self, key: str) -> list[list[PredNode]]:
        """For each instance of ``key``, its ancestor path (parent .. root)."""
        return [node.ancestor_path() for node in self.instances(key)]

    def every_instance_has_assigned_ancestor(self, key: str, assigned_keys: set[str]) -> bool:
        """Precept (2) check: every instance of ``key`` has an ancestor whose
        key carries an assignment."""
        instances = self.instances(key)
        if not instances:
            return False
        for instance in instances:
            if not any(ancestor.key in assigned_keys for ancestor in instance.ancestors()):
                return False
        return True

    def num_nodes(self) -> int:
        """Total number of node instances in the tree."""
        return sum(1 for _node in self.walk())

    def __repr__(self) -> str:
        return f"PredicateTree({self.root_key})"
