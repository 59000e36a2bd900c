import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from genlib import (
    broken_at_a_composite,
    broken_meaning,
    free_category_by_paths,
    functor_on_free,
    idempotent_functor,
    iso_functor,
    legs,
    opposite_from_tables,
    random_base,
    random_presheaf,
    random_speaker_data,
    random_truncated_base,
)
from reference import (
    component_presheaf,
    connected_components,
    discrete_quiver,
    identity_functor,
    precompose,
    underlying_quiver,
)
from fiblex.collage import free_category
from fiblex.errors import BoundExceeded, IdentifierClash, UnboundedHomSet
from fiblex.fincat import (
    CatFunctor,
    FinCategory,
    SetFunctor,
    discrete_category,
    natural_iso_check,
    opposite,
    pair_names,
    parse_tuple_name,
    quiver_from_edges,
    set_limit,
    terminal_category,
    tuple_name,
    validate_category,
    validate_functor,
    validate_setfunctor,
)
from fiblex.speaker import Speaker, acquire_by_example


def arrow_category():
    """A -> B with a single non-identity morphism f."""
    return FinCategory(
        objects={"A", "B"},
        morphisms={"id_A", "id_B", "f"},
        src={"id_A": "A", "id_B": "B", "f": "A"},
        tgt={"id_A": "A", "id_B": "B", "f": "B"},
        identity={"A": "id_A", "B": "id_B"},
        compose={
            ("id_A", "id_A"): "id_A",
            ("id_B", "id_B"): "id_B",
            ("f", "id_A"): "f",
            ("id_B", "f"): "f",
        },
    )


def chain_category():
    """A -> B -> C with composite gf, fully composed."""
    q = quiver_from_edges(["A", "B", "C"], [("f", "A", "B"), ("g", "B", "C")])
    return free_category(q)


# --- validate_category -----------------------------------------------------


def test_terminal_category_is_valid():
    assert validate_category(terminal_category()) == []


def test_corrupt_composition_entry_is_reported():
    cat = chain_category()
    bad = dict(cat.compose)
    bad[("g", "f")] = "id_A"  # wrong composite
    corrupt = FinCategory(cat.objects, cat.morphisms, cat.src, cat.tgt, cat.identity, bad)
    assert validate_category(corrupt) != []


def test_three_object_chain_with_composite_is_valid():
    cat = chain_category()
    assert validate_category(cat) == []
    # enumerate all composable triples and recheck associativity by hand
    for h, g, f in itertools.product(sorted(cat.morphisms), repeat=3):
        if cat.tgt[f] != cat.src[g] or cat.tgt[g] != cat.src[h]:
            continue
        assert cat.compose[(h, cat.compose[(g, f)])] == cat.compose[(cat.compose[(h, g)], f)]


# --- opposite ----------------------------------------------------------------


def test_opposite_of_discrete_is_itself():
    cat = discrete_category(["X", "Y", "Z"])
    assert opposite(cat) == cat


def test_opposite_swaps_arrow():
    cat = arrow_category()
    op = opposite(cat)
    assert op.src["f"] == "B" and op.tgt["f"] == "A"
    assert validate_category(op) == []


def test_opposite_is_an_involution():
    for cat in (arrow_category(), chain_category(), discrete_category(["P"])):
        assert opposite(opposite(cat)) == cat


def test_opposite_is_cached_as_an_involution():
    for cat in (arrow_category(), chain_category(), discrete_category(["P"])):
        op = opposite(cat)
        assert opposite(cat) is op
        assert opposite(op) is cat
        assert op == opposite_from_tables(cat)
        assert opposite(opposite_from_tables(op)) == op


def test_opposite_shares_the_endpoint_tables_of_its_category():
    # built opposites share their tables, as collage-built ones do
    for cat in (discrete_category(["a", "b"]), arrow_category()):
        op = opposite(cat)
        assert op.src is cat.tgt and op.tgt is cat.src and op.identity is cat.identity
        assert opposite(op) is cat


def test_a_category_and_its_opposite_share_their_indexes():
    # an index read before the opposite is built is found by the opposite;
    # one read after is handed to the opposite as it is built
    for cat in (arrow_category(), chain_category()):
        by_src = cat.by_src
        op = opposite(cat)
        assert op.by_tgt is by_src
        assert op.by_src is cat.by_tgt
    for cat in (arrow_category(), chain_category()):
        op = opposite(cat)
        assert cat.by_src is op.by_tgt
        assert op.by_src is cat.by_tgt
        assert op.by_src == {o: sorted(m for m in cat.morphisms if cat.tgt[m] == o)
                             for o in cat.objects}


def test_a_category_and_its_opposite_share_their_identities():
    # built once, on first read, whichever of the two reads them first
    for first in (lambda cat: cat, opposite):
        cat = chain_category()
        ids = first(cat).identities()
        assert ids == {"id_A", "id_B", "id_C"}
        assert cat.identities() is ids and opposite(cat).identities() is ids


def test_cached_indexes_are_derived_and_invisible():
    cat = chain_category()
    fresh = FinCategory(cat.objects, cat.morphisms, cat.src, cat.tgt, cat.identity, cat.compose)
    opposite(cat)
    assert cat.by_src == {"A": ["f", "g∘f", "id_A"], "B": ["g", "id_B"], "C": ["id_C"]}
    assert cat.by_tgt == {"A": ["id_A"], "B": ["f", "id_B"], "C": ["g", "g∘f", "id_C"]}
    assert cat == fresh and repr(cat) == repr(fresh)


def test_categories_hash_consistently_with_equality():
    cat = chain_category()
    fresh = FinCategory(cat.objects, cat.morphisms, cat.src, cat.tgt, cat.identity, cat.compose)
    assert fresh == cat and fresh is not cat and hash(fresh) == hash(cat)
    op = opposite(cat)
    names = {cat: "cat", op: "op"}
    assert names[cat] == names[fresh] == "cat" and names[op] == "op"
    assert names[opposite_from_tables(cat)] == "op"


# --- quivers -----------------------------------------------------------------


def test_discrete_quiver():
    assert discrete_quiver([]).vertices == frozenset()
    q = discrete_quiver(["A", "B"])
    assert q.vertices == {"A", "B"} and q.edges == frozenset()


def test_underlying_quiver_counts():
    assert len(underlying_quiver(terminal_category()).edges) == 1
    assert len(underlying_quiver(arrow_category()).edges) == 3
    # commuting triangle: 3 identities + f, g, gf
    tri = chain_category()
    assert len(underlying_quiver(tri).edges) == len(tri.morphisms) == 6


# --- free categories ---------------------------------------------------------


def test_free_category_on_empty_quiver_is_discrete():
    cat = free_category(discrete_quiver(["A"]))
    assert cat == terminal_category("A")


def test_free_category_path_enumeration():
    cat = free_category(quiver_from_edges(["A", "B", "C"], [("f", "A", "B"), ("g", "B", "C")]))
    assert len(cat.objects) == 3
    assert len(cat.morphisms) == 6  # 3 identities + f, g, g∘f
    assert cat.compose[("g", "f")] == "g∘f"
    assert validate_category(cat) == []


def test_free_category_rejects_unbounded_cycle():
    loop = quiver_from_edges(["A"], [("e", "A", "A")])
    with pytest.raises(UnboundedHomSet):
        free_category(loop)


def test_free_category_bounded_cycle_is_flagged():
    loop = quiver_from_edges(["A"], [("e", "A", "A")])
    cat = free_category(loop, bound=3)
    assert not cat.closed
    assert len(cat.morphisms) == 4  # id, e, e∘e, e∘e∘e
    with pytest.raises(BoundExceeded):
        cat.compose_pair("e∘e", "e∘e")
    assert validate_category(cat) == []  # truncation-aware


def test_free_category_bound_that_cuts_nothing_is_closed():
    cat = free_category(quiver_from_edges(["a", "b"], [("e", "a", "b")]), bound=1)
    assert cat.closed
    assert cat.compose[("id_b", "e")] == "e"


def test_free_category_path_named_like_an_edge_clashes():
    q = quiver_from_edges(
        ["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c"), ("g∘f", "a", "c")]
    )
    with pytest.raises(IdentifierClash):
        free_category(q)


def test_free_category_edge_named_like_a_collage_word():
    # "(f,g)" is how a collage names the word f then g; the free category
    # names that path g∘f, so the edge is a separate morphism.
    q = quiver_from_edges(
        ["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c"), ("(f,g)", "a", "c")]
    )
    cat = free_category(q)
    paths = cat.paths
    assert len(cat.morphisms) == 7  # 3 identities + f, g, (f,g), g∘f
    assert paths["(f,g)"] == ("(f,g)",)
    assert paths["g∘f"] == ("f", "g")
    assert cat.compose[("g", "f")] == "g∘f"
    assert validate_category(cat) == []


def test_free_category_morphism_count_identity():
    q = quiver_from_edges(
        ["A", "B", "C", "D"],
        [("f", "A", "B"), ("g", "B", "C"), ("h", "B", "D"), ("k", "A", "C")],
    )
    cat = free_category(q)
    long_paths = [p for p in cat.paths.values() if len(p) >= 1]
    assert len(cat.morphisms) == len(cat.objects) + len(long_paths)


# --- comma categories --------------------------------------------------------


def test_comma_over_terminal_identity():
    pt = terminal_category()
    presheaf, comma_pairs, _ = component_presheaf(pt, ["pt"], {"pt": "pt"}, [])
    assert list(comma_pairs["pt"].values()) == [("pt", "id_pt")]
    assert len(presheaf.value["pt"]) == 1


def test_comma_with_empty_domain():
    presheaf, comma_pairs, _ = component_presheaf(arrow_category(), [], {}, [])
    assert comma_pairs["A"] == {} and presheaf.fibre("A") == frozenset()


def test_comma_category_has_identity_labelled_objects():
    # domain: discrete two objects sitting over B of the arrow category
    presheaf, comma_pairs, _ = component_presheaf(
        arrow_category(), ["x", "y"], {"x": "B", "y": "B"}, []
    )
    identity_pairs = [cid for cid, (d, f) in comma_pairs["B"].items() if f == "id_B"]
    assert len(identity_pairs) == 2
    assert len(presheaf.value["B"]) == 2
    assert validate_setfunctor(presheaf) == []


# --- connected components ----------------------------------------------------


def test_components_discrete():
    cat = discrete_category(["A", "B", "C"])
    comps = connected_components(cat)
    assert comps == {"A": "A", "B": "B", "C": "C"}


def test_components_arrow():
    assert set(connected_components(arrow_category()).values()) == {"A"}


def test_components_zigzag_chain():
    cat = free_category(
        quiver_from_edges(["A", "B", "C", "D"], [("f", "A", "B"), ("g", "C", "B")])
    )
    comps = connected_components(cat)
    assert comps["A"] == comps["B"] == comps["C"] == "A"
    assert comps["D"] == "D"


def test_components_invariant_under_opposite():
    cat = free_category(
        quiver_from_edges(["A", "B", "C", "D"], [("f", "A", "B"), ("g", "C", "B")])
    )
    assert connected_components(cat) == connected_components(opposite(cat))


# --- limits -------------------------------------------------------------------


def constant_setfunctor(cat, elems):
    return SetFunctor(
        base=cat,
        value={o: frozenset(elems) for o in cat.objects},
        action={m: {e: e for e in elems} for m in cat.morphisms},
    )


def test_limit_over_point():
    fun = constant_setfunctor(terminal_category(), ["x", "y"])
    cone = set_limit(fun)
    assert {t[0] for t in cone.apex} == {"x", "y"}


def test_limit_binary_product():
    cat = discrete_category(["a", "b"])
    fun = SetFunctor(
        base=cat,
        value={"a": frozenset(["x", "y"]), "b": frozenset(["u", "v", "w"])},
        action={"id_a": {"x": "x", "y": "y"}, "id_b": {"u": "u", "v": "v", "w": "w"}},
    )
    cone = set_limit(fun)
    assert len(cone.apex) == 6


def test_limit_cospan_filtering():
    shape = free_category(
        quiver_from_edges(["a", "b", "c"], [("m", "a", "c"), ("n", "b", "c")])
    )
    fun = SetFunctor(
        base=shape,
        value={
            "a": frozenset(["x1", "x2"]),
            "b": frozenset(["y1"]),
            "c": frozenset(["z1", "z2"]),
        },
        action={
            "id_a": {"x1": "x1", "x2": "x2"},
            "id_b": {"y1": "y1"},
            "id_c": {"z1": "z1", "z2": "z2"},
            "m": {"x1": "z1", "x2": "z2"},
            "n": {"y1": "z1"},
        },
    )
    cone = set_limit(fun)
    assert cone.order == ("a", "b", "c")
    assert cone.apex == frozenset({("x1", "y1", "z1")})
    assert legs(cone)["c"][("x1", "y1", "z1")] == "z1"
    assert validate_setfunctor(fun) == []


def test_limit_with_empty_factor_is_empty():
    cat = discrete_category(["a", "b"])
    fun = SetFunctor(
        base=cat,
        value={"a": frozenset(), "b": frozenset(["u"])},
        action={"id_a": {}, "id_b": {"u": "u"}},
    )
    assert set_limit(fun).apex == frozenset()


def test_limit_of_long_free_chain_follows_its_root():
    # 16 objects with 4 elements each: a product of 4 ** 16 (about 4.3e9)
    # candidates, of which the 4 families fixed by the first object survive
    objs = [f"o{i:02d}" for i in range(16)]
    edges = [(f"e{i:02d}", objs[i], objs[i + 1]) for i in range(15)]
    value = {o: frozenset(f"{o}x{k}" for k in range(4)) for o in objs}
    edge_action = {
        e: {f"{s}x{k}": f"{t}x{(k * (i + 1) + i) % 4}" for k in range(4)}
        for i, (e, s, t) in enumerate(edges)
    }
    fun = functor_on_free(quiver_from_edges(objs, edges), value, edge_action)
    assert len(fun.base.non_identities()) == 120
    expected = set()
    for k in range(4):
        family = [f"o00x{k}"]
        for e, _, _ in edges:
            family.append(edge_action[e][family[-1]])
        expected.add(tuple(family))
    cone = set_limit(fun)
    assert cone.apex == frozenset(expected)
    assert cone.order == tuple(objs)
    assert legs(cone)["o07"] == {t: t[7] for t in expected}


def test_limit_of_wide_span_counts_preimages_over_the_centre():
    # a 12-leg span c -> l_i; meanings run the other way, from each leg
    # to the centre, so the limit is the wide pullback over c's fibre
    legs = [f"l{i:02d}" for i in range(12)]
    edges = [(f"s{i:02d}", leg, "c") for i, leg in enumerate(legs)]
    centre = ["c0", "c1", "c2"]
    value = {"c": frozenset(centre)}
    edge_action = {}
    for i, (e, leg, _) in enumerate(edges):
        # leg i has 1 + i % 3 elements over c0, 1 over c1 and, on odd
        # legs only, 1 over c2
        over = {"c0": 1 + i % 3, "c1": 1, "c2": i % 2}
        graph = {f"{leg}{z}_{k}": z for z in centre for k in range(over[z])}
        value[leg] = frozenset(graph)
        edge_action[e] = graph
    fun = functor_on_free(quiver_from_edges(legs + ["c"], edges), value, edge_action)
    expected = set()
    for z in centre:
        preimages = [sorted(x for x, y in edge_action[e].items() if y == z) for e, _, _ in edges]
        expected |= {(z,) + family for family in itertools.product(*preimages)}
    assert len(expected) == (1 * 2 * 3) ** 4 + 1 + 0  # over c0, c1 and c2
    cone = set_limit(fun)
    assert cone.order == ("c",) + tuple(legs)
    assert cone.apex == frozenset(expected)
    assert cone.witness is None


def test_limit_over_an_idempotent_keeps_its_fixed_points():
    # o carries a non-identity idempotent e; p is a separate component
    cat = FinCategory(
        objects={"o", "p"},
        morphisms={"id_o", "e", "id_p"},
        src={"id_o": "o", "e": "o", "id_p": "p"},
        tgt={"id_o": "o", "e": "o", "id_p": "p"},
        identity={"o": "id_o", "p": "id_p"},
        compose={("id_o", "id_o"): "id_o", ("e", "id_o"): "e", ("id_o", "e"): "e",
                 ("e", "e"): "e", ("id_p", "id_p"): "id_p"},
    )
    fun = SetFunctor(
        base=cat,
        value={"o": frozenset("xyz"), "p": frozenset("uv")},
        action={"id_o": {c: c for c in "xyz"}, "e": {"x": "x", "y": "x", "z": "z"},
                "id_p": {"u": "u", "v": "v"}},
    )
    assert validate_category(cat) == [] and validate_setfunctor(fun) == []
    cone = set_limit(fun)
    assert cone.apex == {("x", "u"), ("x", "v"), ("z", "u"), ("z", "v")}
    assert legs(cone)["p"][("z", "u")] == "u"


def test_empty_limit_witness_names_an_empty_root_fibre():
    cat = discrete_category(["a", "b", "c"])
    fun = SetFunctor(
        base=cat,
        value={"a": frozenset(["x"]), "b": frozenset(), "c": frozenset()},
        action={"id_a": {"x": "x"}, "id_b": {}, "id_c": {}},
    )
    cone = set_limit(fun)
    assert cone.apex == frozenset()
    assert legs(cone) == {"a": {}, "b": {}, "c": {}}
    assert cone.witness == {"kind": "empty-fibre", "object": "b"}


def test_empty_limit_witness_names_the_arrow_that_rejected_every_row():
    # an equalizer of two maps a -> b that disagree everywhere
    quiver = quiver_from_edges(["a", "b"], [("f", "a", "b"), ("g", "a", "b")])
    fun = functor_on_free(
        quiver,
        {"a": frozenset(["x", "y"]), "b": frozenset(["u", "v"])},
        {"f": {"x": "u", "y": "v"}, "g": {"x": "v", "y": "u"}},
    )
    cone = set_limit(fun)
    assert cone.apex == frozenset()
    assert cone.witness == {"kind": "arrow", "root": "a", "morphism": "g"}


def test_empty_limit_witness_names_the_join_that_matched_nothing():
    # a cospan a -> c <- b whose images in c are disjoint
    quiver = quiver_from_edges(["a", "b", "c"], [("m", "a", "c"), ("n", "b", "c")])
    fun = functor_on_free(
        quiver,
        {"a": frozenset(["x"]), "b": frozenset(["y"]), "c": frozenset(["z1", "z2"])},
        {"m": {"x": "z1"}, "n": {"y": "z2"}},
    )
    cone = set_limit(fun)
    assert cone.apex == frozenset()
    assert cone.witness == {"kind": "join", "root": "b", "shared": ["c"]}


def test_limit_witness_is_left_out_of_equality():
    cat = discrete_category(["a"])
    empty = SetFunctor(base=cat, value={"a": frozenset()}, action={"id_a": {}})
    cone = set_limit(empty)
    assert cone.witness is not None
    assert cone == type(cone)(order=cone.order, apex=cone.apex)
    assert "witness" not in repr(cone)


# --- functor validation and natural isomorphism -------------------------------


def test_identity_functor_is_valid():
    assert validate_functor(identity_functor(chain_category())) == []


def test_broken_functor_is_reported():
    cat = chain_category()
    fun = CatFunctor(cat, cat, {o: o for o in cat.objects}, {m: m for m in cat.morphisms})
    bad = dict(fun.mmap)
    bad["g∘f"] = "id_A"
    assert validate_functor(CatFunctor(cat, cat, fun.omap, bad)) != []


def test_natural_iso_with_itself():
    fun = constant_setfunctor(arrow_category(), ["x"])
    wit = natural_iso_check(fun, fun)
    assert wit == {"A": {"x": "x"}, "B": {"x": "x"}}


def test_natural_iso_size_mismatch():
    left = constant_setfunctor(terminal_category(), ["x"])
    right = constant_setfunctor(terminal_category(), ["x", "y"])
    assert natural_iso_check(left, right) is None


def test_natural_iso_renamed_singletons():
    cat = arrow_category()
    left = constant_setfunctor(cat, ["x"])
    right = SetFunctor(
        base=cat,
        value={"A": frozenset(["u"]), "B": frozenset(["v"])},
        action={"id_A": {"u": "u"}, "id_B": {"v": "v"}, "f": {"u": "v"}},
    )
    wit = natural_iso_check(left, right)
    assert wit == {"A": {"x": "u"}, "B": {"x": "v"}}


def test_natural_iso_respects_actions():
    cat = arrow_category()
    left = SetFunctor(
        base=cat,
        value={"A": frozenset(["a0", "a1"]), "B": frozenset(["b0", "b1"])},
        action={"id_A": {"a0": "a0", "a1": "a1"}, "id_B": {"b0": "b0", "b1": "b1"},
                "f": {"a0": "b0", "a1": "b1"}},
    )
    right = SetFunctor(
        base=cat,
        value={"A": frozenset(["a0", "a1"]), "B": frozenset(["b0", "b1"])},
        action={"id_A": {"a0": "a0", "a1": "a1"}, "id_B": {"b0": "b0", "b1": "b1"},
                "f": {"a0": "b0", "a1": "b0"}},  # not injective: no iso can commute
    )
    assert natural_iso_check(left, right) is None


def test_precompose_restricts_along_functor():
    lang = chain_category()
    fun = constant_setfunctor(lang, ["x"])
    pt = terminal_category()
    pick = CatFunctor(pt, lang, {"pt": "B"}, {"id_pt": "id_B"})
    out = precompose(fun, pick)
    assert out.base == pt and out.value["pt"] == frozenset(["x"])


# --- property tests -----------------------------------------------------------


@st.composite
def acyclic_quivers(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            for _ in range(draw(st.integers(min_value=0, max_value=2))):
                edges.append((f"e{k}", vertices[i], vertices[j]))
                k += 1
    return quiver_from_edges(vertices, edges)


@settings(max_examples=60, deadline=None)
@given(acyclic_quivers())
def test_free_category_is_always_valid(q):
    cat = free_category(q)
    assert validate_category(cat) == []


@settings(max_examples=60, deadline=None)
@given(acyclic_quivers())
def test_free_category_counts_paths(q):
    cat = free_category(q)
    assert len(cat.morphisms) == len(q.vertices) + sum(1 for p in cat.paths.values() if p)


@settings(max_examples=60, deadline=None)
@given(acyclic_quivers())
def test_components_match_opposite(q):
    cat = free_category(q)
    assert connected_components(cat) == connected_components(opposite(cat))


@settings(max_examples=60, deadline=None)
@given(acyclic_quivers())
def test_free_category_matches_path_oracle(q):
    cat = free_category(q)
    oracle, oracle_paths = free_category_by_paths(q)
    assert cat.morphisms == oracle.morphisms
    assert cat.src == oracle.src and cat.tgt == oracle.tgt
    assert cat.identity == oracle.identity
    assert cat.compose == oracle.compose
    assert cat.paths == oracle_paths
    assert cat.objects == oracle.objects and cat.closed and oracle.closed


@given(st.lists(st.text(alphabet="ab@∘ ", min_size=1, max_size=3), max_size=4))
def test_tuple_name_roundtrip_without_separators(tup):
    assert parse_tuple_name(tuple_name(tup)) == tuple(tup)


NAMES = st.text(alphabet="ab,():@∘", max_size=3)


@given(NAMES, st.lists(NAMES, max_size=3), NAMES)
def test_pair_names_are_tuple_names_with_a_prefix(prefix, firsts, second):
    assert pair_names(prefix, firsts, second) == [prefix + tuple_name((s, second))
                                                  for s in firsts]


def test_parse_tuple_name_rejects_unparenthesized():
    assert parse_tuple_name("a,b") is None
    assert parse_tuple_name("(a") is None


# --- validate_setfunctor -----------------------------------------------------


def random_meaning(rng):
    """A meaning on a free base, a truncated one (not closed), one given by
    explicit tables or one with relations (an idempotent or an
    isomorphism); about half of them broken. A sixth kind is a meaning on
    a free or truncated base broken only at a composite, which only the
    check of composites (the fold along paths) can see."""
    kind = rng.choice(["free", "truncated", "explicit", "idempotent", "iso", "composite"])
    if kind == "composite":
        base, paths = random_base(rng) if rng.random() < 0.5 else random_truncated_base(rng)
        return broken_at_a_composite(rng, random_presheaf(rng, base, paths), paths)
    if kind == "idempotent":
        fun = idempotent_functor(rng)
    elif kind == "iso":
        fun = iso_functor(rng)
    elif kind == "truncated":
        fun = random_presheaf(rng, *random_truncated_base(rng))
    else:
        base, paths, fun = random_speaker_data(rng)
        if kind == "explicit":
            tables = FinCategory(base.objects, base.morphisms, base.src, base.tgt, base.identity,
                                 base.compose, base.closed)
            fun = random_presheaf(rng, tables, paths)
    return broken_meaning(rng, fun) if rng.random() < 0.5 else fun


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_the_meaning_check_lists_the_oracles_problems_in_its_order(seed):
    fun = random_meaning(random.Random(seed))
    assert validate_setfunctor(fun) == reference.validate_setfunctor(reference.dense(fun))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_meaning_is_the_same_value_from_dense_or_sparse_tables(seed):
    # the constructor drops the empty entries of dense tables, so a meaning
    # and a speaker are equal however their tables were written
    rng = random.Random(seed)
    data = random_speaker_data(rng, fresh_object=True) or random_speaker_data(rng)
    base, fun = opposite(data[0]), reference.dense(data[2])
    sparse = SetFunctor(base, {o: v for o, v in fun.value.items() if v},
                        {m: g for m, g in fun.action.items() if g})
    assert SetFunctor(base, fun.value, fun.action) == sparse == data[2]
    learner = Speaker("q", data[0], data[2])
    speakers = [learner]
    if len(data) == 4:  # an example over the fresh word: a speaker the engine built
        speakers.append(acquire_by_example(learner, data[3], ["w0", "w1"])[0])
    for speaker in speakers:
        view = reference.dense(speaker.meaning)
        assert Speaker(speaker.name, speaker.language,
                       SetFunctor(view.base, view.value, view.action)) == speaker


ARROW_VALUE = {"A": frozenset({"a1", "a2"}), "B": frozenset({"b"})}
ARROW_ACTION = {"id_A": {"a1": "a1", "a2": "a2"}, "id_B": {"b": "b"}, "f": {"a1": "b", "a2": "b"}}
CHAIN_VALUE = {"A": frozenset({"a1", "a2"}), "B": frozenset({"b1", "b2"}),
               "C": frozenset({"c1", "c2"})}
CHAIN_ACTION = {"id_A": {"a1": "a1", "a2": "a2"}, "id_B": {"b1": "b1", "b2": "b2"},
                "id_C": {"c1": "c1", "c2": "c2"}, "f": {"a1": "b1", "a2": "b2"},
                "g": {"b1": "c1", "b2": "c2"}, "g∘f": {"a1": "c2", "a2": "c1"}}


@pytest.mark.parametrize("base, value, action, problems", [
    pytest.param(arrow_category, {"A": ARROW_VALUE["A"]}, ARROW_ACTION,
                 ["action of f leaves the target value set",
                  "action of id_B is not total on the source value set",
                  "action of id_B leaves the target value set"], id="no-value-set"),
    pytest.param(arrow_category, ARROW_VALUE, {**ARROW_ACTION, "f": None},
                 ["morphism f has no action"], id="no-action"),
    pytest.param(arrow_category, ARROW_VALUE, {**ARROW_ACTION, "f": {"a1": "b"}},
                 ["action of f is not total on the source value set"], id="not-total"),
    pytest.param(arrow_category, ARROW_VALUE, {**ARROW_ACTION, "f": {"a1": "b", "a2": "z"}},
                 ["action of f leaves the target value set",
                  "action of composite f disagrees with the composite action at a2"],
                 id="leaves-target"),
    pytest.param(arrow_category, ARROW_VALUE,
                 {**ARROW_ACTION, "id_A": {"a1": "a2", "a2": "a1"}},
                 ["action of identity id_A is not the identity function",
                  "action of composite id_A disagrees with the composite action at a1"],
                 id="identity"),
    pytest.param(chain_category, CHAIN_VALUE, CHAIN_ACTION,
                 ["action of composite g∘f disagrees with the composite action at a1"],
                 id="composite"),
])
def test_each_meaning_problem_is_named(base, value, action, problems):
    fun = SetFunctor(base(), value, {m: g for m, g in action.items() if g is not None})
    assert validate_setfunctor(fun) == problems
    assert reference.validate_setfunctor(reference.dense(fun)) == problems
