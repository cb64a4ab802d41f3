"""Schemas: ordered, optionally qualified, typed field lists.

A :class:`Field` is a column of an intermediate or stored relation; the
``relation`` qualifier is the *binding name* (table alias) it is visible
under, which is what qualified column references resolve against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import BindError, CatalogError
from repro.sql.types import SQLType


@dataclass(frozen=True)
class Field:
    """One column of a relation: qualifier, name, and SQL type."""

    name: str
    type: SQLType
    relation: Optional[str] = None

    @property
    def qualified_name(self) -> str:
        return f"{self.relation}.{self.name}" if self.relation else self.name

    def renamed(self, name: str) -> "Field":
        return Field(name, self.type, self.relation)

    def requalified(self, relation: Optional[str]) -> "Field":
        return Field(self.name, self.type, relation)


class Schema:
    """An ordered collection of fields with name-resolution helpers.

    A schema is an immutable value: nothing edits ``fields`` after
    construction (schema drift swaps in a new object), so what is
    derived from them below is derived once and cannot go stale.
    """

    #: ``lower(name)`` -> positions of the fields so named; built by the
    #: first lookup, because most schemas (join outputs, projections)
    #: are never resolved against
    _index: Optional[Dict[str, Tuple[int, ...]]] = None
    #: the last ``requalified`` result, as ``(relation, schema)``
    _requalified: Optional[Tuple[Optional[str], "Schema"]] = None

    def __init__(self, fields: Iterable[Field]):
        self.fields: Tuple[Field, ...] = tuple(fields)
        seen = set()
        for field in self.fields:
            key = (field.relation, field.name.lower())
            if key in seen:
                raise CatalogError(
                    f"duplicate column {field.qualified_name!r} in schema"
                )
            seen.add(key)

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def __getitem__(self, index: int) -> Field:
        return self.fields[index]

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Schema) and self.fields == other.fields
        )

    def __repr__(self) -> str:
        cols = ", ".join(f"{f.qualified_name}:{f.type}" for f in self.fields)
        return f"Schema({cols})"

    @property
    def names(self) -> List[str]:
        return [field.name for field in self.fields]

    def _matches(self, name: str, relation: Optional[str]) -> Sequence[int]:
        """Indexes of the fields matching ``[relation.]name``,
        case-insensitively, like mainstream SQL engines."""
        index = self._index
        if index is None:
            index = {}
            for position, field in enumerate(self.fields):
                key = field.name.lower()
                index[key] = index.get(key, ()) + (position,)
            self._index = index
        found = index.get(name.lower(), ())
        if relation and found:
            relation = relation.lower()
            fields = self.fields
            found = [
                position
                for position in found
                if (fields[position].relation or "").lower() == relation
            ]
        return found

    def find(self, name: str, relation: Optional[str] = None) -> Optional[int]:
        """Index of the one field matching ``[relation.]name``; None
        when the reference is unknown *or* ambiguous."""
        found = self._matches(name, relation)
        return found[0] if len(found) == 1 else None

    def resolve(self, name: str, relation: Optional[str] = None) -> int:
        """:meth:`find`, raising :class:`BindError` where it returns None."""
        found = self._matches(name, relation)
        if len(found) == 1:
            return found[0]
        display = f"{relation}.{name}" if relation else name
        if found:
            raise BindError(f"ambiguous column reference {display!r}")
        raise BindError(f"unknown column {display!r}")

    def field_of(self, name: str, relation: Optional[str] = None) -> Field:
        return self.fields[self.resolve(name, relation)]

    def relations(self) -> List[str]:
        """Distinct relation qualifiers present, in order of appearance."""
        seen: List[str] = []
        for field in self.fields:
            if field.relation is not None and field.relation not in seen:
                seen.append(field.relation)
        return seen

    def fields_of_relation(self, relation: str) -> List[Field]:
        relation_lower = relation.lower()
        return [
            field
            for field in self.fields
            if field.relation is not None
            and field.relation.lower() == relation_lower
        ]

    def row_width(self) -> int:
        """Estimated bytes per row; drives transfer accounting."""
        return sum(field.type.byte_width() for field in self.fields)

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a join output: this schema followed by ``other``."""
        return Schema(self.fields + other.fields)

    def requalified(self, relation: Optional[str]) -> "Schema":
        """All fields re-qualified under a single binding name."""
        last = self._requalified
        if last is None or last[0] != relation:
            last = self._requalified = (
                relation,
                Schema(field.requalified(relation) for field in self.fields),
            )
        return last[1]

    def unqualified(self) -> "Schema":
        """All fields with their qualifier stripped (result schemas)."""
        return self.requalified(None)
