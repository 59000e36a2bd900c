import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiblex.collage import free_category
from fiblex.errors import FiblexError
from fiblex.fincat import quiver_from_edges
from fiblex.jsonio import canonical_dumps, category_from_dict


def stdlib_dumps(value):
    """The canonical text as the standard library writes it: the oracle."""
    return json.dumps(value, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"


# quotes, backslashes, control characters, line and paragraph separators,
# non-ASCII text and a lone surrogate, besides any other character
TRICKY = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "é", "猫", "→",
          "\U0001f431", "\ud800"]
texts = st.text(st.sampled_from(TRICKY) | st.characters(), max_size=6)
scalars = (st.none() | st.booleans() | st.integers() | st.floats() | texts)
documents = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(texts, inner, max_size=4)),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(documents)
def test_canonical_dumps_writes_the_bytes_of_the_standard_library(doc):
    assert canonical_dumps(doc) == stdlib_dumps(doc)


@pytest.mark.parametrize("doc", [
    {},
    [],
    {"a": {}, "b": [], "c": [[], {}], "d": [{"e": []}]},
    {"a": [[[]]], "b": {"c": {"d": {}}}},
    {"a": [[{"b": [1, {"c": [2, ("d", [3, {"e": None}])]}]}]]},
    {2: [1], 1: {3: None}},  # keys that are not strings
    {2.5: [], 0.5: {"x": None}},
    {True: [1]},
    {None: {"y": [False]}},
    [1, 2.0, -0.0, float("inf"), float("nan"), 10**30, True, None, "x"],
])
def test_canonical_dumps_on_empty_nested_and_odd_values(doc):
    assert canonical_dumps(doc) == stdlib_dumps(doc)


def test_canonical_dumps_ignores_key_order_and_nothing_else():
    shape = {"kind": "free", "vertices": ["a", "b"], "edges": [{"id": "f", "src": "a", "tgt": "b"}]}
    reordered = {"edges": [{"tgt": "b", "src": "a", "id": "f"}], "vertices": ["a", "b"],
                 "kind": "free"}
    assert canonical_dumps(shape) == canonical_dumps(reordered)
    others = [{**shape, "bound": 2}, {**shape, "bound": 2.0}, {**shape, "bound": True},
              {**shape, "bound": "2"}, {**shape, "vertices": ["b", "a"]}, {**shape, "bound": None}]
    assert len({canonical_dumps(shape), *map(canonical_dumps, others)}) == 1 + len(others)


def declaration(cat):
    """A category's tables, written as an explicit scenario declaration."""
    return {
        "objects": sorted(cat.objects),
        "morphisms": [
            {"id": m, "src": cat.src[m], "tgt": cat.tgt[m]} for m in sorted(cat.morphisms)
        ],
        "identity": dict(sorted(cat.identity.items())),
        "compose": sorted([g, f, gf] for (g, f), gf in cat.compose.items()),
        "closed": cat.closed,
    }


def test_category_roundtrip():
    chain = free_category(
        quiver_from_edges(["A", "B", "C"], [("f", "A", "B"), ("g", "B", "C")])
    )
    assert category_from_dict(json.loads(canonical_dumps(declaration(chain)))) == chain
    truncated = free_category(quiver_from_edges(["A"], [("e", "A", "A")]), bound=2)
    doc = json.loads(canonical_dumps(declaration(truncated)))
    assert doc["closed"] is False
    assert category_from_dict(doc) == truncated
    # the same tables, read as a closed category, lack composites
    del doc["closed"]
    with pytest.raises(FiblexError, match="no composite for composable pair"):
        category_from_dict(doc)


def test_category_from_dict_fills_identities_and_checks_the_axioms():
    doc = {
        "objects": ["A", "B"],
        "morphisms": [{"id": "f", "src": "A", "tgt": "B"}],
    }
    cat = category_from_dict(doc)
    assert cat == free_category(quiver_from_edges(["A", "B"], [("f", "A", "B")]))
    with pytest.raises(FiblexError, match="no composite for composable pair"):
        category_from_dict({**doc, "morphisms": doc["morphisms"] + [
            {"id": "g", "src": "B", "tgt": "A"}]})
