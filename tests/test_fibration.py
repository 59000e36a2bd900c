import random

import pytest

from genlib import hom, random_base, random_functor_between, random_presheaf
from reference import (
    NotAFibration,
    compose_functors,
    comprehensive_factorization,
    connected_components,
    fibration_from,
    fibre,
    fibre_morphisms,
    identity_functor,
    is_discrete_fibration,
    iso_over_base,
    reindexing,
    to_presheaf,
    validate_fibration_morphism,
)
from fiblex.collage import free_category
from fiblex.fincat import (
    CatFunctor,
    SetFunctor,
    discrete_category,
    natural_iso_check,
    opposite,
    quiver_from_edges,
    terminal_category,
    validate_category,
    validate_functor,
    validate_setfunctor,
)
from fiblex.fibration import grothendieck


def arrow_language():
    return free_category(quiver_from_edges(["A", "B"], [("f", "A", "B")]))


def arrow_presheaf():
    """Two elements over B folding onto the one element over A."""
    lang = arrow_language()
    return SetFunctor(
        base=opposite(lang),
        value={"A": frozenset(["a"]), "B": frozenset(["b0", "b1"])},
        action={"id_A": {"a": "a"}, "id_B": {"b0": "b0", "b1": "b1"}, "f": {"b0": "a", "b1": "a"}},
    )


# --- is_discrete_fibration ----------------------------------------------------


def test_identity_functor_is_a_fibration():
    lang = arrow_language()
    assert is_discrete_fibration(identity_functor(lang)).ok


def test_missing_lift_is_a_counterexample():
    lang = arrow_language()
    dom = discrete_category(["EA", "EB"])
    proj = CatFunctor(dom, lang, {"EA": "A", "EB": "B"}, {"id_EA": "id_A", "id_EB": "id_B"})
    check = is_discrete_fibration(proj)
    assert not check.ok
    assert ("EB", "f", ()) in check.failures


def test_grothendieck_projection_is_always_a_fibration():
    rng = random.Random(7)
    for _ in range(25):
        base, paths = random_base(rng)
        fib = grothendieck(random_presheaf(rng, base, paths))
        assert is_discrete_fibration(fib.proj).ok
        assert validate_category(fib.total) == []
        assert validate_functor(fib.proj) == []


# --- fibre ---------------------------------------------------------------------


def test_fibre_of_identity_fibration():
    lang = arrow_language()
    fib = fibration_from(identity_functor(lang))
    assert fibre(fib, "A") == frozenset(["A"])


def test_fibre_of_empty_total():
    lang = arrow_language()
    empty = discrete_category([])
    proj = CatFunctor(empty, lang, {}, {})
    assert fibre(proj, "A") == frozenset()


def test_grothendieck_fibres_match_values():
    fun = arrow_presheaf()
    fib = grothendieck(fun)
    assert len(fibre(fib, "A")) == 1
    assert len(fibre(fib, "B")) == 2
    # fibres of a discrete fibration contain no non-identity morphisms
    for obj in ("A", "B"):
        for m in fibre_morphisms(fib.proj, obj):
            assert fib.total.is_identity(m)


# --- grothendieck --------------------------------------------------------------


def test_constant_singleton_gives_base_copy():
    lang = arrow_language()
    fun = SetFunctor(
        base=opposite(lang),
        value={o: frozenset(["*"]) for o in lang.objects},
        action={m: {"*": "*"} for m in lang.morphisms},
    )
    fib = grothendieck(fun)
    assert len(fib.total.objects) == len(lang.objects)
    assert len(fib.total.morphisms) == len(lang.morphisms)


def test_grothendieck_over_terminal_is_discrete():
    pt = terminal_category()
    fun = SetFunctor(
        base=opposite(pt),
        value={"pt": frozenset(["a", "b", "c"])},
        action={"id_pt": {"a": "a", "b": "b", "c": "c"}},
    )
    fib = grothendieck(fun)
    assert len(fib.total.objects) == 3
    assert fib.total.morphisms == fib.total.identities()


def test_grothendieck_arrow_example():
    fib = grothendieck(arrow_presheaf())
    assert len(fib.total.objects) == 3
    non_id = fib.total.non_identities()
    assert len(non_id) == 2
    # exactly one lift of the arrow per element over B, with sources over A
    lifts = [m for m in non_id if fib.proj.mmap[m] == "f"]
    assert len(lifts) == 2
    for m in lifts:
        assert fib.proj.omap[fib.total.src[m]] == "A"
        assert fib.proj.omap[fib.total.tgt[m]] == "B"


# --- to_presheaf and the equivalence roundtrip ----------------------------------


def test_roundtrip_presheaf_side():
    fun = arrow_presheaf()
    again = to_presheaf(grothendieck(fun))
    assert natural_iso_check(again, fun) is not None


def test_identity_fibration_presheaf():
    lang = arrow_language()
    fun = to_presheaf(fibration_from(identity_functor(lang)))
    assert fun.value == {"A": frozenset(["A"]), "B": frozenset(["B"])}
    assert fun.action["f"] == {"B": "A"}


def test_roundtrip_fibration_side_random():
    rng = random.Random(11)
    done = 0
    while done < 20:
        base, paths = random_base(rng)
        fib = grothendieck(random_presheaf(rng, base, paths))
        again = grothendieck(to_presheaf(fib))
        wit = iso_over_base(fib, again)
        assert wit is not None
        done += 1


def test_to_presheaf_requires_a_fibration():
    lang = arrow_language()
    dom = discrete_category(["EA", "EB"])
    proj = CatFunctor(dom, lang, {"EA": "A", "EB": "B"}, {"id_EA": "id_A", "id_EB": "id_B"})
    with pytest.raises(NotAFibration):
        fibration_from(proj)


# --- reindexing ------------------------------------------------------------------


def test_reindexing_identity_is_identity():
    fib = grothendieck(arrow_presheaf())
    rmap = reindexing(fib, "id_B")
    assert rmap == {e: e for e in fibre(fib, "B")}


def test_reindexing_of_arrow_matches_action():
    fun = arrow_presheaf()
    fib = grothendieck(fun)
    rmap = reindexing(fib, "f")
    assert rmap == {"b0@B": "a@A", "b1@B": "a@A"}
    # function equality with the stored action, up to pair-naming
    assert {e.split("@")[0]: x.split("@")[0] for e, x in rmap.items()} == fun.action["f"]


def test_reindexing_functorial_on_chains():
    rng = random.Random(3)
    lang = free_category(
        quiver_from_edges(["A", "B", "C"], [("f", "A", "B"), ("g", "B", "C")])
    )
    paths = {"id_A": (), "id_B": (), "id_C": (), "f": ("f",), "g": ("g",), "g∘f": ("f", "g")}
    fun = random_presheaf(rng, lang, paths, allow_empty=False)
    fib = grothendieck(fun)
    two_step = {
        e: reindexing(fib, "f")[reindexing(fib, "g")[e]]
        for e in fibre(fib, "C")
    }
    assert two_step == reindexing(fib, "g∘f")


def test_reindexing_equals_stored_action():
    rng = random.Random(31)
    for _ in range(20):
        base, paths = random_base(rng)
        fun = random_presheaf(rng, base, paths)
        fib = grothendieck(fun)
        for f in base.morphisms:
            rmap = reindexing(fib, f)
            stripped = {
                fib.pairs[e][1]: fib.pairs[x][1] for e, x in rmap.items()
            }
            assert stripped == fun.action[f]


# --- fibration morphisms ----------------------------------------------------------


def test_identity_is_a_fibration_morphism():
    fib = grothendieck(arrow_presheaf())
    assert validate_fibration_morphism(identity_functor(fib.total), fib, fib) == []


def test_collapsing_fibre_elements_is_legal():
    lang = arrow_language()
    fun = arrow_presheaf()
    fib = grothendieck(fun)
    squashed = SetFunctor(
        base=opposite(lang),
        value={"A": frozenset(["a"]), "B": frozenset(["b"])},
        action={"id_A": {"a": "a"}, "id_B": {"b": "b"}, "f": {"b": "a"}},
    )
    other = grothendieck(squashed)
    h = CatFunctor(
        fib.total,
        other.total,
        {"a@A": "a@A", "b0@B": "b@B", "b1@B": "b@B"},
        {m: other.lift_table[("b@B" if fib.total.tgt[m].endswith("@B") else "a@A", fib.proj.mmap[m])]
         for m in fib.total.morphisms},
    )
    assert validate_fibration_morphism(h, fib, other) == []


def test_moving_across_fibres_is_reported():
    fib = grothendieck(arrow_presheaf())
    bad = CatFunctor(
        fib.total,
        fib.total,
        {"a@A": "b0@B", "b0@B": "b0@B", "b1@B": "b1@B"},
        {m: m for m in fib.total.morphisms},
    )
    assert validate_fibration_morphism(bad, fib, fib) != []


# --- comprehensive factorization ---------------------------------------------------


def test_factorization_composite_is_exact():
    rng = random.Random(23)
    for _ in range(10):
        base, paths = random_base(rng)
        fib = grothendieck(random_presheaf(rng, base, paths))
        fact = comprehensive_factorization(fib.proj)
        composite = compose_functors(fact.fibration.proj, fact.first)
        assert composite.omap == fib.proj.omap
        assert composite.mmap == fib.proj.mmap
        assert is_discrete_fibration(fact.fibration.proj).ok


def test_factorizing_a_fibration_gives_an_isomorphic_one():
    fib = grothendieck(arrow_presheaf())
    fact = comprehensive_factorization(fib.proj)
    assert iso_over_base(fib, fact.fibration) is not None
    # first factor hits every component exactly once
    assert len(set(fact.first.omap.values())) == len(fact.first.omap)


def test_functor_to_terminal_factors_through_components():
    dom = free_category(
        quiver_from_edges(["A", "B", "C", "D"], [("f", "A", "B"), ("g", "C", "B")])
    )
    pt = terminal_category()
    fun = CatFunctor(
        dom, pt, {o: "pt" for o in dom.objects}, {m: "id_pt" for m in dom.morphisms}
    )
    fact = comprehensive_factorization(fun)
    blocks = set(connected_components(dom).values())
    assert len(fibre(fact.fibration, "pt")) == len(blocks) == 2


def test_constant_functor_from_discrete_pair():
    lang = discrete_category(["L", "M"])
    dom = discrete_category(["s1", "s2"])
    fun = CatFunctor(
        dom, lang, {"s1": "L", "s2": "L"}, {"id_s1": "id_L", "id_s2": "id_L"}
    )
    fact = comprehensive_factorization(fun)
    assert len(fibre(fact.fibration, "L")) == 2
    assert fibre(fact.fibration, "M") == frozenset()
    assert validate_setfunctor(fact.presheaf) == []


def test_factorization_presheaf_is_always_functorial():
    rng = random.Random(5)
    for _ in range(15):
        dom, _ = random_base(rng)
        cod, _ = random_base(rng)
        fun = random_functor_between(rng, dom, cod)
        assert validate_functor(fun) == []
        fact = comprehensive_factorization(fun)
        assert validate_setfunctor(fact.presheaf) == []
        composite = compose_functors(fact.fibration.proj, fact.first)
        assert composite.omap == fun.omap and composite.mmap == fun.mmap


@pytest.mark.exploratory
def test_first_factor_appears_final():
    """Not a contract: probe whether the first factor is a final functor
    (every comma category under a total object nonempty and connected)."""
    rng = random.Random(41)
    for _ in range(25):
        dom, _ = random_base(rng)
        cod, _ = random_base(rng)
        fun = random_functor_between(rng, dom, cod)
        fact = comprehensive_factorization(fun)
        total = fact.fibration.total
        for e in total.objects:
            under = [
                (d, h)
                for d in fact.first.dom.objects
                for h in hom(total, e, fact.first.omap[d])
            ]
            assert under, f"comma under {e} is empty"
            # connectivity via zigzags of domain morphisms
            parent = {p: p for p in under}

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for m in fact.first.dom.morphisms:
                d1, d2 = fact.first.dom.src[m], fact.first.dom.tgt[m]
                for h in hom(total, e, fact.first.omap[d1]):
                    h2 = total.compose[(fact.first.mmap[m], h)]
                    a, b = find((d1, h)), find((d2, h2))
                    if a != b:
                        parent[a] = b
            assert len({find(p) for p in under}) == 1
