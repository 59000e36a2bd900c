import json

import pytest

from fiblex.collage import free_category
from fiblex.errors import FiblexError
from fiblex.fincat import quiver_from_edges
from fiblex.jsonio import canonical_dumps, category_from_dict


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
