"""Schema and field tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BindError, CatalogError
from repro.relational.schema import Field, Schema
from repro.sql.types import DOUBLE, INTEGER, varchar


def make_schema():
    return Schema(
        [
            Field("id", INTEGER, "t"),
            Field("name", varchar(10), "t"),
            Field("id", INTEGER, "s"),
            Field("score", DOUBLE, "s"),
        ]
    )


def test_resolution_by_qualified_name():
    schema = make_schema()
    assert schema.resolve("id", "t") == 0
    assert schema.resolve("id", "s") == 2


def test_resolution_case_insensitive():
    schema = make_schema()
    assert schema.resolve("ID", "T") == 0
    assert schema.resolve("Name") == 1


def test_unqualified_ambiguity_raises():
    with pytest.raises(BindError, match="ambiguous"):
        make_schema().resolve("id")


def test_unknown_column_raises():
    with pytest.raises(BindError, match="unknown"):
        make_schema().resolve("nope")


def test_duplicate_fields_rejected():
    with pytest.raises(CatalogError):
        Schema([Field("x", INTEGER, "t"), Field("X", INTEGER, "t")])


def test_same_name_different_relations_allowed():
    Schema([Field("x", INTEGER, "a"), Field("x", INTEGER, "b")])


def test_concat_and_relations():
    left = Schema([Field("a", INTEGER, "l")])
    right = Schema([Field("b", INTEGER, "r")])
    joined = left.concat(right)
    assert joined.names == ["a", "b"]
    assert joined.relations() == ["l", "r"]


def test_fields_of_relation():
    schema = make_schema()
    assert [f.name for f in schema.fields_of_relation("s")] == [
        "id",
        "score",
    ]


def test_row_width():
    schema = make_schema()
    assert schema.row_width() == 4 + 10 + 4 + 8


def test_requalified_and_unqualified():
    schema = Schema([Field("a", INTEGER, "x"), Field("b", INTEGER, "x")])
    re = schema.requalified("y")
    assert all(f.relation == "y" for f in re)
    un = schema.unqualified()
    assert all(f.relation is None for f in un)


def test_field_helpers():
    field = Field("a", INTEGER, "t")
    assert field.qualified_name == "t.a"
    assert field.renamed("b").name == "b"
    assert field.requalified(None).relation is None


def test_equality_and_iteration():
    one, two = make_schema(), make_schema()
    assert one == two
    assert len(one) == 4
    assert [f.name for f in one] == ["id", "name", "id", "score"]
    assert one[3].name == "score"


# -- resolve / find against the linear scan they replaced --------------------


def reference_resolve(schema, name, relation=None):
    """``Schema.resolve`` as it was before the lazy index: a scan over
    the field tuple that lower-cases every name.  Kept as the oracle."""
    name_lower = name.lower()
    relation_lower = relation.lower() if relation else None
    matches = [
        index
        for index, field in enumerate(schema.fields)
        if field.name.lower() == name_lower
        and (
            relation_lower is None
            or (
                field.relation is not None
                and field.relation.lower() == relation_lower
            )
        )
    ]
    display = f"{relation}.{name}" if relation else name
    if not matches:
        raise BindError(f"unknown column {display!r}")
    if len(matches) > 1:
        raise BindError(f"ambiguous column reference {display!r}")
    return matches[0]


# Small alphabets so that case clashes (``A``/``a`` under different
# relations), one name under several relations, unqualified ambiguity,
# ``relation=None`` fields asked for with a qualifier, ``relation=""``
# and absent names all come up often.
_NAMES = st.sampled_from(["a", "A", "b", "B", "c", "z"])
_RELATIONS = st.sampled_from([None, "", "t", "T", "u", "v"])


@st.composite
def schemas(draw):
    fields, seen = [], set()
    for name, relation in draw(
        st.lists(st.tuples(_NAMES, _RELATIONS), max_size=8)
    ):
        key = (relation, name.lower())  # Schema's own duplicate rule
        if key not in seen:
            seen.add(key)
            fields.append(Field(name, INTEGER, relation))
    return Schema(fields)


@given(schema=schemas(), name=_NAMES, relation=_RELATIONS)
@settings(max_examples=500, deadline=None)
def test_resolve_and_find_match_reference(schema, name, relation):
    try:
        expected = reference_resolve(schema, name, relation)
    except BindError as error:
        assert schema.find(name, relation) is None
        with pytest.raises(BindError) as raised:
            schema.resolve(name, relation)
        assert str(raised.value) == str(error)
    else:
        assert schema.resolve(name, relation) == expected
        assert schema.find(name, relation) == expected
        assert schema.field_of(name, relation) is schema[expected]


def test_find_is_none_for_unknown_and_ambiguous():
    schema = make_schema()
    assert schema.find("score") == 3
    assert schema.find("id") is None  # ambiguous
    assert schema.find("nope") is None
    assert schema.find("id", "S") == 2


def test_requalified_remembers_the_last_binding():
    schema = Schema([Field("a", INTEGER, "t"), Field("b", INTEGER)])
    first = schema.requalified("x")
    assert schema.requalified("x") is first
    other = schema.requalified("y")
    assert [f.relation for f in other] == ["y", "y"]
    assert schema.requalified("x") == first
