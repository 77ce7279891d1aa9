"""Tags: truth-value assignments to predicate subexpressions.

A tag is a set of assignments ``<expr> = T/F/U`` where ``<expr>`` is an
arbitrarily complex boolean subexpression of the query's predicate
(Section 2.1).  Expressions are identified by their canonical structural key
(:meth:`repro.expr.ast.BooleanExpr.key`), so the same subexpression appearing
in different places is recognized as one expression.

Tags are immutable and hashable: they serve as dictionary keys both in tagged
relations (tag -> bitmap) and in tag maps.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.expr.three_valued import TruthValue


class Tag:
    """An immutable set of ``expression-key -> TruthValue`` assignments."""

    __slots__ = ("_assignments", "_hash")

    def __init__(self, assignments: Mapping[str, TruthValue] | None = None) -> None:
        items = {}
        if assignments:
            for key, value in assignments.items():
                items[key] = value if value.__class__ is TruthValue else TruthValue(value)
        self._assignments: tuple[tuple[str, TruthValue], ...] = tuple(
            sorted(items.items())
        )
        self._hash = hash(self._assignments)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "Tag":
        """The empty tag ``{}`` carried by base tagged relations."""
        return _EMPTY_TAG

    @classmethod
    def single(cls, key: str, value: TruthValue) -> "Tag":
        """A tag with exactly one assignment."""
        return cls({key: value})

    # ------------------------------------------------------------------ #
    # Mapping-style access
    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict[str, TruthValue]:
        """The assignments as a mutable dictionary copy."""
        return dict(self._assignments)

    def get(self, key: str) -> TruthValue | None:
        """Assignment for ``key``, or None when unassigned."""
        for assigned_key, value in self._assignments:
            if assigned_key == key:
                return value
        return None

    def keys(self) -> list[str]:
        """Assigned expression keys."""
        return [key for key, _value in self._assignments]

    def items(self) -> Iterator[tuple[str, TruthValue]]:
        """Iterate over (key, value) assignments."""
        return iter(self._assignments)

    def __contains__(self, key: str) -> bool:
        return any(assigned_key == key for assigned_key, _value in self._assignments)

    def __len__(self) -> int:
        return len(self._assignments)

    def is_empty(self) -> bool:
        """True for the empty tag."""
        return not self._assignments

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def with_assignment(self, key: str, value: TruthValue) -> "Tag":
        """A new tag with ``key = value`` added (or overwritten)."""
        assignments = self.as_dict()
        assignments[key] = value
        return Tag(assignments)

    def union(self, other: "Tag") -> "Tag":
        """Combine two tags' assignments.

        Conflicting assignments for the same key would describe an empty set
        of tuples; such unions raise :class:`ValueError` because tag-map
        builders never create them.
        """
        assignments = self.as_dict()
        for key, value in other.items():
            if key in assignments and assignments[key] != value:
                raise ValueError(
                    f"conflicting assignments for {key!r}: "
                    f"{assignments[key]!s} vs {value!s}"
                )
            assignments[key] = value
        return Tag(assignments)

    # ------------------------------------------------------------------ #
    # Dunder / display
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tag):
            return NotImplemented
        return self._assignments == other._assignments

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._assignments:
            return "{}"
        rendered = ", ".join(f"{key} = {value!s}" for key, value in self._assignments)
        return "{" + rendered + "}"


_EMPTY_TAG = Tag()
