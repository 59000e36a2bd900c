import random

import pytest

from fiblex.errors import BoundExceeded, MissingEdgeAction, UnboundedHomSet, VertexMismatch
from fiblex.collage import (
    Word,
    canonical_functor,
    collage_is_finite,
    extend_set_functor,
    fp_collage,
    free_category,
    normalize_word,
)
from fiblex.fincat import (
    SetFunctor,
    discrete_category,
    discrete_quiver,
    quiver_from_edges,
    validate_category,
    validate_functor,
    validate_setfunctor,
)


def arrow_cat():
    return free_category(quiver_from_edges(["A", "B"], [("f", "A", "B")]))


def chain_cat():
    return free_category(
        quiver_from_edges(["A", "B", "C"], [("f", "A", "B"), ("g", "B", "C")])
    )


# --- finiteness guard ---------------------------------------------------------


def test_empty_quiver_is_finite():
    cat = arrow_cat()
    assert collage_is_finite(cat, discrete_quiver(cat.objects))


def test_edge_with_return_path_is_infinite():
    cat = free_category(quiver_from_edges(["A", "B"], [("f", "B", "A")]))
    q = quiver_from_edges(["A", "B"], [("q", "A", "B")])
    assert not collage_is_finite(cat, q)


def test_parallel_edge_without_return_is_finite():
    cat = arrow_cat()
    q = quiver_from_edges(["A", "B"], [("q", "A", "B")])
    assert collage_is_finite(cat, q)


def test_vertex_mismatch_is_rejected():
    with pytest.raises(VertexMismatch):
        collage_is_finite(arrow_cat(), discrete_quiver(["A"]))


# --- fp_collage -----------------------------------------------------------------


def test_collage_with_empty_quiver_is_the_base():
    cat = chain_cat()
    col = fp_collage(cat, discrete_quiver(cat.objects))
    assert col.category == cat
    assert col.closed
    k = canonical_functor(cat, col)
    assert validate_functor(k) == []
    assert len(set(k.mmap.values())) == len(cat.morphisms)  # bijective on morphisms


def test_collage_over_discrete_base_is_free_category():
    base = discrete_category(["A", "B"])
    q = quiver_from_edges(["A", "B"], [("q", "A", "B")])
    col = fp_collage(base, q)
    assert len(col.category.morphisms) == 3  # two identities and the edge word
    free = free_category(q)
    assert len(col.category.morphisms) == len(free.morphisms)


def test_collage_of_arrow_plus_parallel_edge():
    cat = arrow_cat()
    q = quiver_from_edges(["A", "B"], [("q", "A", "B")])
    col = fp_collage(cat, q)
    assert set(col.category.morphisms) == {"id_A", "id_B", "f", "q"}
    assert col.words["q"] == Word(bases=("id_A", "id_B"), edges=("q",), src="A", tgt="B")
    assert validate_category(col.category) == []


def test_collage_requires_bound_when_infinite():
    cat = free_category(quiver_from_edges(["A", "B"], [("f", "B", "A")]))
    q = quiver_from_edges(["A", "B"], [("q", "A", "B")])
    with pytest.raises(UnboundedHomSet):
        fp_collage(cat, q)
    col = fp_collage(cat, q, bound=2)
    assert not col.closed
    two_edge = [w for w in col.words.values() if len(w.edges) == 2]
    assert two_edge
    with pytest.raises(BoundExceeded):
        # q then f lands back at A; composing beyond two edges must refuse
        long = next(w for w in col.edge_words() if len(col.words[w].edges) == 2)
        col.category.compose_pair(long, long)


def test_one_edge_word_count_matches_hom_sum():
    cat = chain_cat()
    q = quiver_from_edges(["A", "B", "C"], [("q", "B", "C")])
    col = fp_collage(cat, q)
    ones = [w for w in col.words.values() if len(w.edges) == 1]
    expected = 0
    for x in sorted(cat.objects):
        for y in sorted(cat.objects):
            expected += len(cat.hom(x, "B")) * len(cat.hom("C", y))
    assert len(ones) == expected


def test_closed_collage_passes_validation():
    cat = chain_cat()
    q = quiver_from_edges(["A", "B", "C"], [("q", "A", "C"), ("r", "A", "B")])
    col = fp_collage(cat, q)
    assert col.closed
    assert validate_category(col.category) == []


def test_canonical_functor_preserves_composition():
    cat = chain_cat()
    q = quiver_from_edges(["A", "B", "C"], [("q", "A", "C")])
    col = fp_collage(cat, q)
    k = canonical_functor(cat, col)
    assert validate_functor(k) == []
    assert k.mmap["id_A"] == "id_A"
    for (g, f), gf in cat.compose.items():
        assert col.category.compose[(k.mmap[g], k.mmap[f])] == k.mmap[gf]


# --- normalize_word ---------------------------------------------------------------


def test_normalize_pure_base_run():
    cat = chain_cat()
    q = discrete_quiver(cat.objects)
    w = normalize_word(cat, q, [("base", "f"), ("base", "g")])
    assert w == Word(bases=("g∘f",), edges=(), src="A", tgt="C")


def test_normalize_inserts_identities_and_folds():
    cat = chain_cat()
    q = quiver_from_edges(["A", "B", "C"], [("q", "A", "A")])
    w = normalize_word(cat, q, [("edge", "q"), ("base", "f"), ("base", "g")])
    assert w == Word(bases=("id_A", "g∘f"), edges=("q",), src="A", tgt="C")


def test_normalize_empty_needs_anchor():
    cat = chain_cat()
    w = normalize_word(cat, discrete_quiver(cat.objects), [], at="B")
    assert w == Word(bases=("id_B",), edges=(), src="B", tgt="B")


def test_normalize_is_idempotent_on_collage_words():
    cat = chain_cat()
    q = quiver_from_edges(["A", "B", "C"], [("q", "A", "C"), ("r", "A", "B")])
    col = fp_collage(cat, q)
    for w in col.words.values():
        assert normalize_word(cat, q, w.parts()) == w


def test_normalization_confluence_random_bracketings():
    rng = random.Random(17)
    cat = chain_cat()
    q = quiver_from_edges(["A", "B", "C"], [("q", "A", "C"), ("r", "A", "B"), ("s", "B", "C")])
    col = fp_collage(cat, q)
    comp = col.category.compose
    triples = [
        (h, g, f)
        for (g1, f) in comp
        for (h, g2) in comp
        if g1 == g2
        for g in [g1]
        for h in [h]
        if (h, comp[(g, f)]) in comp
    ]
    rng.shuffle(triples)
    for h, g, f in triples[:500]:
        assert comp[(h, comp[(g, f)])] == comp[(comp[(h, g)], f)]


# --- extend_set_functor -------------------------------------------------------------


def base_meanings(cat):
    return SetFunctor(
        base=cat,
        value={o: frozenset([f"{o}0", f"{o}1"]) for o in cat.objects},
        action={
            m: {f"{cat.src[m]}0": f"{cat.tgt[m]}0", f"{cat.src[m]}1": f"{cat.tgt[m]}1"}
            for m in cat.morphisms
        },
    )


def test_extend_with_empty_quiver_returns_same_tables():
    cat = chain_cat()
    col = fp_collage(cat, discrete_quiver(cat.objects))
    fun = base_meanings(cat)
    out = extend_set_functor(fun, col, {})
    assert out.value == fun.value
    assert out.action == fun.action


def test_one_edge_word_acts_by_the_edge_action():
    base = discrete_category(["A", "B"])
    q = quiver_from_edges(["A", "B"], [("q", "A", "B")])
    col = fp_collage(base, q)
    fun = SetFunctor(
        base=base,
        value={"A": frozenset(["x", "y"]), "B": frozenset(["u"])},
        action={"id_A": {"x": "x", "y": "y"}, "id_B": {"u": "u"}},
    )
    out = extend_set_functor(fun, col, {"q": {"x": "u", "y": "u"}})
    assert out.action["q"] == {"x": "u", "y": "u"}


def test_extension_is_functorial_on_the_whole_collage():
    cat = chain_cat()
    q = quiver_from_edges(["A", "B", "C"], [("q", "A", "B")])
    col = fp_collage(cat, q)
    fun = base_meanings(cat)
    out = extend_set_functor(fun, col, {"q": {"A0": "B1", "A1": "B0"}})
    assert validate_setfunctor(out) == []


def test_missing_edge_action_is_rejected():
    base = discrete_category(["A", "B"])
    q = quiver_from_edges(["A", "B"], [("q", "A", "B")])
    col = fp_collage(base, q)
    fun = SetFunctor(
        base=base,
        value={"A": frozenset(["x"]), "B": frozenset(["u"])},
        action={"id_A": {"x": "x"}, "id_B": {"u": "u"}},
    )
    with pytest.raises(MissingEdgeAction):
        extend_set_functor(fun, col, {})
