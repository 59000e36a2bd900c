import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collage_oracle import (
    canonical_functor,
    collage_is_finite_per_edge,
    full_collage,
    full_extension,
    full_words,
    glue_pair_by_pair,
    normalize_word,
)
from genlib import (
    free_category_by_paths,
    hom,
    idempotent_functor,
    iso_functor,
    opposite_from_tables,
    random_base,
    random_presheaf,
)
from reference import discrete_quiver
from fiblex.errors import BoundExceeded, MissingEdgeAction, UnboundedHomSet, VertexMismatch
import fiblex.collage as collage_mod
from fiblex.collage import (
    Word,
    extend_set_functor,
    fp_collage,
    free_category,
    word_id,
)
from fiblex.fincat import (
    SetFunctor,
    discrete_category,
    opposite,
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


def is_finite(cat, quiver) -> bool:
    """Whether ``fp_collage`` adjoins the quiver without a bound, rather
    than refusing its unboundedly long words with ``UnboundedHomSet``."""
    try:
        fp_collage(cat, quiver)
    except UnboundedHomSet:
        return False
    return True


def test_empty_quiver_is_finite():
    cat = arrow_cat()
    assert is_finite(cat, discrete_quiver(cat.objects))


def test_edge_with_return_path_is_infinite():
    cat = free_category(quiver_from_edges(["A", "B"], [("f", "B", "A")]))
    q = quiver_from_edges(["A", "B"], [("q", "A", "B")])
    assert not is_finite(cat, q)


def test_parallel_edge_without_return_is_finite():
    cat = arrow_cat()
    q = quiver_from_edges(["A", "B"], [("q", "A", "B")])
    assert is_finite(cat, q)


def test_vertex_mismatch_is_rejected():
    with pytest.raises(VertexMismatch, match="quiver must share the category's objects"):
        fp_collage(arrow_cat(), discrete_quiver(["A"]))


def test_an_edge_off_the_vertices_is_rejected():
    quiver = quiver_from_edges(["A", "B"], [("f", "A", "Bee")])
    message = "quiver edge f runs from A to Bee, which are not both vertices"
    with pytest.raises(VertexMismatch, match=message):
        fp_collage(discrete_category(["A", "B"]), quiver)
    with pytest.raises(VertexMismatch, match=message):
        free_category(quiver)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_finiteness_agrees_with_a_search_per_edge_and_with_long_words(seed):
    # Bases: acyclic free categories (and discrete ones), the idempotent
    # category, and the isomorphism a ⇄ b, whose base arrows close a cycle
    # on their own. Quiver edges are drawn freely: loops, parallel edges
    # and edges against the base arrows. Now and then an edge leaves the
    # vertices, or a vertex is dropped, and both sides must refuse alike.
    # ``fp_collage`` refuses an unbounded collage exactly when the search
    # finds it infinite. Apart from the search, the collage is infinite
    # exactly when it has a word of one edge more than the quiver has, by
    # the pigeonhole principle.
    rng = random.Random(seed)
    pick = rng.random()
    if pick < 0.15:
        cat = iso_functor(rng).base
    elif pick < 0.25:
        cat = idempotent_functor(rng).base
    else:
        cat, _ = random_base(rng, max_vertices=5, max_edges=6)
    objects = sorted(cat.objects)
    ends = objects + ["outside"] if rng.random() < 0.05 else objects
    edges = [(f"q{i}", rng.choice(ends), rng.choice(ends)) for i in range(rng.randint(0, 4))]
    vertices = objects[1:] if rng.random() < 0.05 else objects
    quiver = quiver_from_edges(vertices, edges)
    try:
        expected = collage_is_finite_per_edge(cat, quiver)
    except VertexMismatch as err:
        with pytest.raises(VertexMismatch, match=re.escape(str(err))):
            fp_collage(cat, quiver)
        return
    assert is_finite(cat, quiver) == expected
    n = len(edges)
    if n <= 3:  # the words grow exponentially with the bound
        words, _ = full_words(cat, quiver, n + 1, lambda w: repr((w.bases, w.edges)))
        assert expected == all(len(w.edges) <= n for w in words.values())


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
            expected += len(hom(cat, x, "B")) * len(hom(cat, "C", y))
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


# --- the delta path against the full enumeration ----------------------------------


def test_collage_over_a_truncated_base_raises_bound_exceeded():
    # the loop e with paths of length at most 2: e∘e∘e is missing, so the
    # base lacks the composite of e and e∘e
    base = free_category(quiver_from_edges(["v"], [("e", "v", "v")]), bound=2)
    assert not base.closed
    for quiver, bound in ((discrete_quiver(["v"]), None),
                          (quiver_from_edges(["v"], [("q", "v", "v")]), 1)):
        with pytest.raises(BoundExceeded):
            full_collage(base, quiver, bound, lambda w: word_id(base, w))
        with pytest.raises(BoundExceeded):
            fp_collage(base, quiver, bound=bound)


def test_a_truncated_base_is_refused_before_any_word_is_spelled(monkeypatch):
    # the loop q makes the collage infinite, so without a bound the
    # enumeration would meet UnboundedHomSet; the truncated base is
    # refused first, and no word is spelled
    base = free_category(quiver_from_edges(["v"], [("e", "v", "v")]), bound=2)
    loop = quiver_from_edges(["v"], [("q", "v", "v")])
    spelled = []
    spell = collage_mod._spell
    monkeypatch.setattr(collage_mod, "_spell", lambda *a: spelled.append(a) or spell(*a))
    for build in (lambda: fp_collage(base, loop),
                  lambda: full_collage(base, loop, None, lambda w: word_id(base, w))):
        with pytest.raises(BoundExceeded):
            build()
    # a quiver off the base's objects is still refused before the base
    off = quiver_from_edges(["v"], [("q", "v", "w")])
    for build in (lambda: fp_collage(base, off),
                  lambda: full_collage(base, off, None, lambda w: word_id(base, w))):
        with pytest.raises(VertexMismatch):
            build()
    assert spelled == []


def _random_closed_base(rng):
    """A closed base category with a Set-valued functor on it: a free
    category, its opposite, or a category with an idempotent or with an
    isomorphism."""
    kind = rng.choice(["free", "opposite", "idempotent", "iso"])
    if kind == "idempotent":
        return idempotent_functor(rng)
    if kind == "iso":
        return iso_functor(rng)
    n = rng.randint(1, 4)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for k in range(rng.randint(0, 4)):
        i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        if i != j:
            edges.append((f"e{k}", vertices[i], vertices[j]))
    cat, paths = free_category_by_paths(quiver_from_edges(vertices, edges))
    if kind == "opposite":
        return random_presheaf(rng, cat, paths)
    value = {v: frozenset(f"{v}x{i}" for i in range(rng.randint(1, 3))) for v in vertices}
    edge_act = {e: {x: rng.choice(sorted(value[t])) for x in value[s]} for e, s, t in edges}
    action = {}
    for m, path in paths.items():
        graph = {x: x for x in value[cat.src[m]]}
        for e in path:
            graph = {x: edge_act[e][y] for x, y in graph.items()}
        action[m] = graph
    return SetFunctor(base=cat, value=value, action=action)


def _random_quiver(rng, base):
    """Up to three edges in any direction, loops included; some are named
    like a base morphism or like a word the collage will generate."""
    vertices = sorted(base.objects)
    names = [f"q{i}" for i in range(3)] + [rng.choice(sorted(base.morphisms)), "(q0,q1)", "q0∘q1"]
    non_identities = base.non_identities()
    if non_identities:
        names.append(f"({rng.choice(non_identities)},q0)")
    picked = list(dict.fromkeys(rng.choice(names) for _ in range(rng.randint(0, 3))))
    return quiver_from_edges(
        vertices, [(q, rng.choice(vertices), rng.choice(vertices)) for q in picked]
    )


def _outcome(build):
    try:
        return build(), None
    except Exception as err:  # the error class is part of what must agree
        return None, type(err)


def _same_category(new, oracle):
    assert new.objects == oracle.objects
    assert new.morphisms == oracle.morphisms
    assert new.src == oracle.src and new.tgt == oracle.tgt
    assert new.identity == oracle.identity
    assert new.compose == oracle.compose
    assert new.closed == oracle.closed


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_delta_collage_and_extension_match_the_full_enumeration(seed):
    rng = random.Random(seed)
    fun = _random_closed_base(rng)
    base = fun.base
    quiver = _random_quiver(rng, base)
    bound = rng.choice([None, None, 0, 1, 2, 3])

    col, err = _outcome(lambda: fp_collage(base, quiver, bound=bound))
    full, oracle_err = _outcome(lambda: full_collage(base, quiver, bound, lambda w: word_id(base, w)))
    assert err == oracle_err
    if err is None:
        words, category = full
        _same_category(col.category, category)
        _same_category(opposite(col.category), opposite_from_tables(category))
        assert opposite(opposite(col.category)) is col.category
        assert col.closed == category.closed
        assert col.words == words
        assert col.edge_words() == sorted(w for w, word in words.items() if word.edges)

        edge_actions = {}
        for q in sorted(quiver.edges):
            image = sorted(fun.value[quiver.etgt[q]])
            if image or not fun.value[quiver.esrc[q]]:
                edge_actions[q] = {x: rng.choice(image) for x in fun.value[quiver.esrc[q]]}
        if edge_actions and rng.random() < 0.1:
            del edge_actions[rng.choice(sorted(edge_actions))]
        ext, err = _outcome(lambda: extend_set_functor(fun, col, edge_actions))
        full_ext, oracle_err = _outcome(
            lambda: full_extension(fun, quiver, words, category, edge_actions)
        )
        assert err == oracle_err
        if err is None:
            assert ext.base == full_ext.base
            assert ext.value == full_ext.value
            assert ext.action == full_ext.action

    # the same quiver as a free category: a collage of the discrete category
    def path_name(w):
        return "∘".join(reversed(w.edges)) if w.edges else w.bases[0]

    free, err = _outcome(lambda: free_category(quiver, bound))
    discrete = discrete_category(quiver.vertices)
    full, oracle_err = _outcome(lambda: full_collage(discrete, quiver, bound, path_name))
    assert err == oracle_err
    if err is None:
        _same_category(free, full[1])
        _same_category(opposite(free), opposite_from_tables(full[1]))
        assert free.paths == {m: w.edges for m, w in full[0].items()}


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_the_glue_writes_the_tables_of_the_pair_by_pair_glue(seed):
    # random closed bases and quivers, the collage truncated at a random
    # bound or not; a truncated base always lacks a junction, and is
    # refused before any glue (test_collage_over_a_truncated_base_raises_bound_exceeded)
    rng = random.Random(seed)
    base = _random_closed_base(rng).base
    bound = rng.choice([None, 0, 1, 2, 3])
    col, _ = _outcome(lambda: fp_collage(base, _random_quiver(rng, base), bound=bound))
    if col is None:
        return
    compose, compose_op = collage_mod._glue(base, col.spellings, bound)
    assert (compose, compose_op) == glue_pair_by_pair(base, col.spellings, bound)
    assert col.category.compose == compose and opposite(col.category).compose == compose_op
