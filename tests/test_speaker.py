import random
import sys
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlib import (
    doubled,
    hom,
    idempotent_functor,
    iso_functor,
    legs,
    perturbed_diagram,
    random_base,
    random_discrete_shape,
    random_free_shape,
    random_functor_between,
    random_presheaf,
)
from reference import restriction_along_embedding, validate_explanation_over_every_path
import fiblex.speaker as speaker_module
from fiblex.collage import free_category
from fiblex.errors import (
    BaseMismatch,
    DiagramOutsideLanguage,
    EmptyExample,
    ExampleNotInTeacherFibre,
    FiblexError,
    FibreNotEmpty,
    IdentifierClash,
    UnforcedActionAtL,
)
from fiblex.fincat import (
    CatFunctor,
    FinCategory,
    SetFunctor,
    discrete_category,
    opposite,
    quiver_from_edges,
    tuple_name,
    validate_functor,
    validate_setfunctor,
)
from fiblex.jsonio import category_from_dict
from fiblex.speaker import (
    Explanation,
    Speaker,
    acquire_by_example,
    acquire_by_example_merged,
    acquire_by_paraphrasis,
    tautological_explanation,
    validate_explanation,
)


def make_speaker(name, lang, fibres, actions=None):
    base = opposite(lang)
    value = {o: frozenset(fibres.get(o, ())) for o in lang.objects}
    action = {}
    for m in lang.morphisms:
        if base.is_identity(m):
            action[m] = {x: x for x in value[base.src[m]]}
        else:
            action[m] = dict((actions or {}).get(m, {}))
    return Speaker(name=name, language=lang, meaning=SetFunctor(base, value, action))


def discrete_speaker(name, fibres):
    return make_speaker(name, discrete_category(fibres.keys()), fibres)


def evilcat_speaker(cat_fibre):
    fibres = {
        "evil": ["e1", "e2"],
        "black": ["b1"],
        "feline": ["f1", "f2"],
        "cat": cat_fibre,
    }
    return discrete_speaker("p", fibres)


def discrete_explanation(lang, target, picks):
    shape = discrete_category(picks.keys())
    diagram = CatFunctor(
        shape,
        lang,
        dict(picks),
        {shape.identity[a]: lang.identity[w] for a, w in picks.items()},
    )
    return Explanation(shape=shape, diagram=diagram, target=target)


def chain():
    """``f: A→B`` and ``g: B→C``, freely, so ``g∘f: A→C``."""
    return free_category(quiver_from_edges(["A", "B", "C"], [("f", "A", "B"), ("g", "B", "C")]))


# --- the public boundary ----------------------------------------------------------


def test_speaker_rejects_a_language_with_a_missing_composite():
    lang = chain()
    broken = FinCategory(
        lang.objects, lang.morphisms, lang.src, lang.tgt, lang.identity,
        {k: v for k, v in lang.compose.items() if k != ("g", "f")},
    )
    with pytest.raises(FiblexError, match="invalid language: no composite for composable pair"):
        make_speaker("p", broken, {})


def test_speaker_rejects_a_meaning_on_the_language_itself():
    lang = chain()
    meaning = SetFunctor(
        base=lang,
        value={o: frozenset() for o in lang.objects},
        action={m: {} for m in lang.morphisms},
    )
    with pytest.raises(BaseMismatch):
        Speaker(name="p", language=lang, meaning=meaning)


def test_speaker_rejects_a_meaning_that_is_no_functor():
    fibres = {"A": ["a1", "a2"], "B": ["b"], "C": ["c"]}
    actions = {"f": {"b": "a1"}, "g": {"c": "b"}, "g∘f": {"c": "a2"}}
    with pytest.raises(FiblexError, match="invalid meaning: action of composite g∘f disagrees"):
        make_speaker("p", chain(), fibres, actions)
    actions["g∘f"] = {"c": "a1"}
    assert make_speaker("p", chain(), fibres, actions).fibre("A") == {"a1", "a2"}


# --- explanations ---------------------------------------------------------------


def test_tautological_explanation_is_valid_and_exact():
    speaker = discrete_speaker("p", {"cat": ["c1", "c2", "c3", "c4", "c5"], "dog": ["d"]})
    check = validate_explanation(speaker, tautological_explanation(speaker, "cat"))
    assert check.valid and check.exact and not check.vacuous
    assert len(check.limit.apex) == 5


def test_tautological_explanation_of_empty_fibre_is_vacuous_but_exact():
    speaker = discrete_speaker("p", {"cat": [], "dog": ["d"]})
    check = validate_explanation(speaker, tautological_explanation(speaker, "cat"))
    assert check.valid and check.exact and check.vacuous


def test_evilcat_explanation_apex_and_exactness():
    speaker = evilcat_speaker(["c11", "c12", "c21", "c22"])
    picks = {"a1": "evil", "a2": "black", "a3": "feline"}
    expl = discrete_explanation(speaker.language, "cat", picks)
    embedding = {
        (e, "b1", f): f"c{e[-1]}{f[-1]}"
        for e in ("e1", "e2")
        for f in ("f1", "f2")
    }
    expl = Explanation(expl.shape, expl.diagram, "cat", embedding)
    check = validate_explanation(speaker, expl)
    assert len(check.limit.apex) == 4  # 2 * 1 * 2
    assert check.valid and check.exact

    bigger = evilcat_speaker(["c11", "c12", "c21", "c22", "extra"])
    check2 = validate_explanation(bigger, Explanation(expl.shape, expl.diagram, "cat", embedding))
    assert check2.valid and not check2.exact


def test_explanation_touching_empty_fibre_is_vacuous_but_valid():
    speaker = discrete_speaker("p", {"evil": [], "cat": ["c"]})
    expl = discrete_explanation(speaker.language, "cat", {"a1": "evil"})
    check = validate_explanation(speaker, expl)
    assert check.vacuous and check.valid
    assert check.limit.apex == frozenset()


def test_explanation_refuses_a_shape_that_is_no_category():
    # one object whose identity has no composite with itself
    shape = FinCategory(objects={"s"}, morphisms={"id_s"}, src={"id_s": "s"},
                        tgt={"id_s": "s"}, identity={"s": "id_s"}, compose={})
    lang = discrete_category(["cat"])
    diagram = CatFunctor(shape, lang, {"s": "cat"}, {"id_s": "id_cat"})
    with pytest.raises(FiblexError) as err:
        Explanation(shape, diagram, "cat")
    assert str(err.value) == "invalid explanation shape: no composite for composable pair (id_s, id_s)"


def test_explanation_outside_language_is_rejected():
    speaker = discrete_speaker("p", {"cat": ["c"]})
    other = discrete_category(["dog"])
    expl = discrete_explanation(other, "dog", {"a1": "dog"})
    with pytest.raises(DiagramOutsideLanguage):
        validate_explanation(speaker, expl)


def test_explanation_diagram_that_is_no_functor_keeps_the_apex_in_its_fibres():
    # h: s -> t is sent to g: D -> B although s goes to A, so the action
    # the limit follows lands in D's fibre, which shares nothing with A's
    lang = free_category(quiver_from_edges(["A", "B", "D"], [("g", "D", "B")]))
    speaker = make_speaker(
        "p", lang, {"A": ["a"], "B": ["b"], "D": ["d"]}, actions={"g": {"b": "d"}}
    )
    shape = free_category(quiver_from_edges(["s", "t"], [("h", "s", "t")]))
    diagram = CatFunctor(
        shape, lang, {"s": "A", "t": "B"}, {"id_s": "id_A", "id_t": "id_B", "h": "g"}
    )
    check = validate_explanation(speaker, Explanation(shape, diagram, "A"))
    assert any("does not preserve endpoints" in p for p in check.problems)
    assert check.limit.apex == frozenset()
    assert check.limit.witness == {"kind": "arrow", "root": "t", "morphism": "h"}


def test_explanation_diagram_off_its_fibres_is_invalid_without_a_limit():
    # h: s -> t goes to g: D -> C although t goes to B, so g acts on C's
    # fibre and not on B's: the limit cannot be evaluated
    lang = free_category(quiver_from_edges(["A", "B", "C", "D"], [("g", "D", "C")]))
    speaker = make_speaker(
        "p", lang, {"A": ["a"], "B": ["b"], "C": ["c"], "D": ["d"]}, actions={"g": {"c": "d"}}
    )
    shape = free_category(quiver_from_edges(["s", "t"], [("h", "s", "t")]))
    diagram = CatFunctor(
        shape, lang, {"s": "A", "t": "B"}, {"id_s": "id_A", "id_t": "id_B", "h": "g"}
    )
    check = validate_explanation(speaker, Explanation(shape, diagram, "A"))
    assert not check.valid and not check.exact
    assert any("does not preserve endpoints" in p for p in check.problems)
    assert check.limit.order == ("s", "t")
    assert check.limit.apex == frozenset()
    assert legs(check.limit) == {"s": {}, "t": {}}


def test_embedding_violations_are_reported():
    speaker = discrete_speaker("p", {"black": ["b1", "b2"], "cat": ["c1"]})
    expl = discrete_explanation(speaker.language, "cat", {"a1": "black"})
    bad = Explanation(expl.shape, expl.diagram, "cat", {("b1",): "c1", ("b2",): "c1"})
    check = validate_explanation(speaker, bad)
    assert not check.valid
    assert any("injective" in p for p in check.problems)


# --- acquisition by example -------------------------------------------------------


def test_look_a_cat():
    alice = discrete_speaker("alice", {"cat": ["felix", "whiskers"], "dog": ["rex"]})
    bob = discrete_speaker("bob", {"cat": [], "dog": ["fido"]})
    bob2, report = acquire_by_example(bob, "cat", ["felix"], teacher=alice, event_id="e1")
    assert bob2.fibre("cat") == frozenset(["felix"])
    assert bob2.fibre("dog") == frozenset(["fido"])
    assert report.outcome == "learned"
    assert report.fibres_before["cat"] == 0 and report.fibres_after["cat"] == 1
    # prior meanings keep their names and actions
    assert bob2.meaning.value["dog"] == bob.meaning.value["dog"]


def test_example_with_two_witnesses():
    bob = discrete_speaker("bob", {"cat": [], "dog": ["fido"]})
    bob2, _ = acquire_by_example(bob, "cat", ["s1", "s2"], event_id="e1")
    assert bob2.fibre("cat") == frozenset(["s1", "s2"])


def test_example_propagates_along_incident_morphisms():
    lang = free_category(quiver_from_edges(["X", "cat"], [("m", "X", "cat")]))
    learner = make_speaker("bob", lang, {"X": ["x0"], "cat": []})
    out, _ = acquire_by_example(learner, "cat", ["s"], event_id="e1")
    assert out.fibre("cat") == frozenset(["s"])
    # one new component per (witness, morphism into the word)
    assert len(out.fibre("X")) == 2
    assert "x0" in out.fibre("X")
    gained = sorted(out.fibre("X") - {"x0"})[0]
    assert gained.startswith("e1:")
    # the action of m reindexes the new witness onto the new component
    assert out.meaning.action["m"]["s"] == gained
    assert validate_setfunctor(out.meaning) == []


def test_example_requires_empty_fibre():
    bob = discrete_speaker("bob", {"cat": ["old"]})
    with pytest.raises(FibreNotEmpty):
        acquire_by_example(bob, "cat", ["felix"])


def test_example_requires_witnesses():
    bob = discrete_speaker("bob", {"cat": []})
    with pytest.raises(EmptyExample):
        acquire_by_example(bob, "cat", [])


def test_example_witnesses_must_come_from_teacher():
    alice = discrete_speaker("alice", {"cat": ["felix"]})
    bob = discrete_speaker("bob", {"cat": []})
    with pytest.raises(ExampleNotInTeacherFibre):
        acquire_by_example(bob, "cat", ["someone"], teacher=alice)


def test_example_learns_a_witness_named_like_an_element_of_the_total_category():
    lang = free_category(quiver_from_edges(["X", "cat"], [("m", "X", "cat")]))
    learner = make_speaker("bob", lang, {"X": ["x0"], "cat": []})
    out, _ = acquire_by_example(learner, "cat", ["x0@X"], event_id="e1")
    assert out.fibre("cat") == frozenset(["x0@X"])
    assert out.fibre("X") == frozenset(["x0", "e1:(x0@X,m)"])
    glued = make_speaker("bob", lang, {"X": ["x0"], "cat": ["y"]}, actions={"m": {"y": "x0"}})
    out, _ = acquire_by_example_merged(glued, "cat", ["x0@X"], glue={"y": "x0@X"})
    assert out.fibre("cat") == frozenset(["x0@X"])
    assert out.meaning.action["m"] == {"x0@X": "x0"}


def test_example_refuses_a_generated_name_already_in_its_fibre():
    lang = free_category(quiver_from_edges(["A", "W"], [("a", "A", "W")]))
    learner = make_speaker("p", lang, {"A": ["a1", "ev:(s,a)"], "W": []})
    with pytest.raises(IdentifierClash) as err:
        acquire_by_example(learner, "W", ["s"], event_id="ev")
    assert "the element ev:(s,a)" in str(err.value)
    assert "the pair (s, a)" in str(err.value)


def test_example_refuses_two_pairs_with_one_generated_name():
    lang = free_category(quiver_from_edges(["A", "W"], [("c", "A", "W"), ("b,c", "A", "W")]))
    learner = make_speaker("p", lang, {"A": ["a1"], "W": []})
    with pytest.raises(IdentifierClash) as err:
        acquire_by_example(learner, "W", ["a,b", "a"], event_id="ev")
    assert "the pair (a, b,c)" in str(err.value)
    assert "the pair (a,b, c)" in str(err.value)


def brute_force_fibres(learner, word, witnesses):
    """Independent oracle: explicit comma categories plus hand-rolled
    union-find over the zigzag graph, at the generator level."""
    lang = learner.language
    fib = learner.fibration
    objects = sorted(fib.total.objects) + sorted(witnesses)
    omap = {t: fib.proj.omap[t] for t in fib.total.objects}
    omap.update({s: word for s in witnesses})
    gens = [
        (fib.total.src[m], fib.total.tgt[m], fib.proj.mmap[m])
        for m in fib.total.non_identities()
    ]
    sizes = {}
    for anchor in sorted(lang.objects):
        pairs = [
            (d, f)
            for d in objects
            for f in hom(lang, anchor, omap[d])
        ]
        parent = {p: p for p in pairs}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for d1, d2, img in gens:
            for f in hom(lang, anchor, omap[d1]):
                union((d1, f), (d2, lang.compose[(img, f)]))
        sizes[anchor] = len({find(p) for p in pairs})
    return sizes


def test_example_agrees_with_brute_force_oracle():
    lang = free_category(
        quiver_from_edges(["X", "Y", "cat"], [("m", "X", "cat"), ("n", "X", "Y")])
    )
    learner = make_speaker(
        "bob",
        lang,
        {"X": ["x0", "x1"], "Y": ["y0"], "cat": []},
        actions={"n": {"y0": "x0"}},
    )
    expected = brute_force_fibres(learner, "cat", ["s1", "s2"])
    out, _ = acquire_by_example(learner, "cat", ["s1", "s2"])
    assert {o: len(out.fibre(o)) for o in sorted(lang.objects)} == expected


# --- merged acquisition -------------------------------------------------------------


def test_merged_with_empty_fibre_matches_plain():
    bob = discrete_speaker("bob", {"cat": [], "dog": ["fido"]})
    plain, _ = acquire_by_example(bob, "cat", ["s"], event_id="e1")
    merged, _ = acquire_by_example_merged(bob, "cat", ["s"], glue={}, event_id="e1")
    assert plain == merged


def test_merged_with_empty_fibre_reports_a_merged_example():
    bob = discrete_speaker("bob", {"cat": [], "dog": ["fido"]})
    _, report = acquire_by_example_merged(bob, "cat", ["s"], glue={}, event_id="e1")
    assert report.kind == "merged-example"
    assert report.new_elements == {"cat": ("s",)}


@pytest.mark.parametrize("fibre, glue, stray", [
    (["x"], {"x": "s", "nonexistent": "s"}, "nonexistent"),
    ([], {"ghost": "s"}, "ghost"),
])
def test_merged_refuses_glue_keys_outside_the_fibre(fibre, glue, stray):
    bob = discrete_speaker("bob", {"cat": fibre})
    with pytest.raises(FiblexError) as err:
        acquire_by_example_merged(bob, "cat", ["s"], glue=glue)
    assert str(err.value) == f"glue map names elements outside the fibre over cat: {stray}"


def test_merged_glues_prior_meaning_onto_witness():
    bob = discrete_speaker("bob", {"cat": ["x"], "dog": ["fido"]})
    out, _ = acquire_by_example_merged(bob, "cat", ["s"], glue={"x": "s"})
    assert out.fibre("cat") == frozenset(["s"])


def test_merged_keeps_unglued_witnesses_separate():
    bob = discrete_speaker("bob", {"cat": ["x"]})
    out, _ = acquire_by_example_merged(bob, "cat", ["s", "t"], glue={"x": "s"})
    assert out.fibre("cat") == frozenset(["s", "t"])


def test_merged_respects_reindexing_along_incident_morphisms():
    lang = free_category(quiver_from_edges(["X", "cat"], [("m", "X", "cat")]))
    bob = make_speaker(
        "bob", lang, {"X": ["a"], "cat": ["x"]}, actions={"m": {"x": "a"}}
    )
    out, _ = acquire_by_example_merged(bob, "cat", ["s"], glue={"x": "s"})
    assert out.fibre("cat") == frozenset(["s"])
    assert out.fibre("X") == frozenset(["a"])
    # the glued witness inherits the old element's reindexing
    assert out.meaning.action["m"] == {"s": "a"}
    assert validate_setfunctor(out.meaning) == []


def test_merged_example_refuses_a_generated_name_already_in_its_fibre():
    lang = free_category(quiver_from_edges(["A", "W"], [("a", "A", "W")]))
    learner = make_speaker(
        "p", lang, {"A": ["a1", "ev:(t,a)"], "W": ["y"]}, actions={"a": {"y": "a1"}}
    )
    with pytest.raises(IdentifierClash) as err:
        acquire_by_example_merged(learner, "W", ["s", "t"], glue={"y": "s"}, event_id="ev")
    assert "the element ev:(t,a)" in str(err.value)
    assert "the pair (t, a)" in str(err.value)


def test_merged_class_is_named_by_its_least_identity_anchor():
    # e is idempotent; gluing p and q onto x joins the classes of r and t,
    # so one class carries the witness anchors a and a+, and a comes first
    lang = FinCategory(
        objects={"W"},
        morphisms={"id_W", "e"},
        src={"id_W": "W", "e": "W"},
        tgt={"id_W": "W", "e": "W"},
        identity={"W": "id_W"},
        compose={
            ("id_W", "id_W"): "id_W", ("e", "id_W"): "e", ("id_W", "e"): "e", ("e", "e"): "e"
        },
    )
    learner = make_speaker(
        "p", lang, {"W": ["p", "q", "r", "t"]},
        actions={"e": {"p": "r", "q": "t", "r": "r", "t": "t"}},
    )
    glue = {"p": "x", "q": "x", "r": "a", "t": "a+"}
    out, _ = acquire_by_example_merged(learner, "W", ["x", "a", "a+"], glue=glue)
    assert out.fibre("W") == frozenset(["x", "a"])
    assert out.meaning.action["e"] == {"x": "a", "a": "a"}


# --- the fibration view ----------------------------------------------------------------


def test_speaker_builds_its_fibration_on_first_read(monkeypatch):
    calls = []
    real = speaker_module.grothendieck
    monkeypatch.setattr(speaker_module, "grothendieck", lambda f: calls.append(f) or real(f))
    bob = discrete_speaker("bob", {"cat": [], "dog": ["fido"]})
    out, _ = acquire_by_example(bob, "cat", ["s"], event_id="e1")
    assert calls == []
    fib = out.fibration
    assert calls == [out.meaning]
    assert out.fibration is fib
    assert len(calls) == 1
    assert fib == real(out.meaning)


def test_speaker_equality_and_repr_leave_the_fibration_out():
    first = discrete_speaker("p", {"cat": ["c"], "dog": []})
    second = discrete_speaker("p", {"cat": ["c"], "dog": []})
    before = repr(first)
    first.fibration
    assert first == second
    assert repr(first) == before == repr(second)
    assert "fibration" not in before
    assert [f.name for f in fields(Speaker)] == ["name", "language", "meaning"]


# --- paraphrasis ---------------------------------------------------------------------


def alice_and_bob():
    lang = discrete_category(["cat", "feline", "black", "cursed"])
    alice = make_speaker(
        "alice",
        lang,
        {"cat": ["cleo"], "feline": ["felix"], "black": ["nero"], "cursed": ["morgana"]},
    )
    bob = make_speaker(
        "bob",
        lang,
        {"cat": [], "feline": ["tiger", "lynx"], "black": ["noir"], "cursed": ["curse"]},
    )
    picks = {"a1": "feline", "a2": "black", "a3": "cursed"}
    expl = discrete_explanation(lang, "cat", picks)
    expl = Explanation(expl.shape, expl.diagram, "cat", {("felix", "nero", "morgana"): "cleo"})
    return alice, bob, expl


def test_paraphrasis_alice_bob():
    alice, bob, expl = alice_and_bob()
    alice_before = Speaker(alice.name, alice.language, alice.meaning)
    out, report = acquire_by_paraphrasis(alice, bob, "cat", expl, event_id="e2")

    assert report.outcome == "learned"
    assert len(out.fibre("cat")) == 2
    assert report.apex == ("(lynx,noir,curse)", "(tiger,noir,curse)")
    assert report.new_morphisms == ("cat→black", "cat→cursed", "cat→feline")
    # other fibres unchanged
    for o in ("feline", "black", "cursed"):
        assert out.fibre(o) == bob.fibre(o)
    # teacher untouched
    assert alice == alice_before

    # each new edge acts by the matching projection leg
    legs = {
        "cat→feline": {"e2:(lynx,noir,curse)": "lynx", "e2:(tiger,noir,curse)": "tiger"},
        "cat→black": {"e2:(lynx,noir,curse)": "noir", "e2:(tiger,noir,curse)": "noir"},
        "cat→cursed": {"e2:(lynx,noir,curse)": "curse", "e2:(tiger,noir,curse)": "curse"},
    }
    for name, graph in legs.items():
        assert out.meaning.action[name] == graph

    # the old language embeds name-for-name and meanings restrict on the nose
    restricted = restriction_along_embedding(out, bob.language)
    for m in bob.language.morphisms:
        if m not in ("id_cat",):
            assert restricted.action[m] == bob.meaning.action[m]
    assert len(out.language.morphisms) == len(bob.language.morphisms) + 3


def test_paraphrasis_no_sense_on_tautological_transfer():
    alice, bob, _ = alice_and_bob()
    carol = make_speaker(
        "carol",
        alice.language,
        {"cat": [], "feline": [], "black": ["noir"], "cursed": []},
    )
    taut = tautological_explanation(alice, "cat")
    out, report = acquire_by_paraphrasis(alice, carol, "cat", taut, event_id="e3")
    assert report.outcome == "no-sense"
    assert out == carol
    assert report.new_morphisms == ()


def test_paraphrasis_requires_shared_language():
    alice, bob, expl = alice_and_bob()
    stranger = discrete_speaker("s", {"cat": ["c"]})
    with pytest.raises(BaseMismatch):
        acquire_by_paraphrasis(stranger, bob, "cat", expl)


def test_paraphrasis_requires_empty_learner_fibre():
    alice, bob, expl = alice_and_bob()
    knowing = make_speaker(
        "bob",
        alice.language,
        {"cat": ["already"], "feline": ["t"], "black": ["n"], "cursed": ["c"]},
    )
    with pytest.raises(FibreNotEmpty):
        acquire_by_paraphrasis(alice, knowing, "cat", expl)


def unforced_setup(with_k=False):
    """``m: X → cat`` points at the word to be learned, and so does no
    other non-identity; ``with_k`` adds ``k: X → feline``, which does not."""
    edges = [("m", "X", "cat")] + ([("k", "X", "feline")] if with_k else [])
    lang = free_category(quiver_from_edges(["X", "cat", "feline"], edges))
    teacher = make_speaker(
        "alice",
        lang,
        {"X": ["ax"], "cat": ["cleo"], "feline": ["felix"]},
        actions={"m": {"cleo": "ax"}, "k": {"felix": "ax"}},
    )
    learner = make_speaker(
        "bob", lang, {"X": ["x0"], "cat": [], "feline": ["tiger"]},
        actions={"k": {"tiger": "x0"}},
    )
    expl = discrete_explanation(lang, "cat", {"a1": "feline"})
    return teacher, learner, Explanation(expl.shape, expl.diagram, "cat", {("felix",): "cleo"})


def test_paraphrasis_unforced_actions_need_overrides():
    teacher, learner, expl = unforced_setup()
    with pytest.raises(UnforcedActionAtL) as err:
        acquire_by_paraphrasis(teacher, learner, "cat", expl)
    assert err.value.morphisms == ("m",)

    out, _ = acquire_by_paraphrasis(
        teacher, learner, "cat", expl, edge_overrides={"m": {"(tiger)": "x0"}}, event_id="e4"
    )
    assert out.meaning.action["m"] == {"e4:(tiger)": "x0"}
    assert validate_setfunctor(out.meaning) == []


def test_paraphrasis_refuses_an_override_outside_the_target_fibre():
    teacher, learner, expl = unforced_setup()
    with pytest.raises(UnforcedActionAtL) as err:
        acquire_by_paraphrasis(
            teacher, learner, "cat", expl, edge_overrides={"m": {"(tiger)": "nope"}}
        )
    assert err.value.morphisms == ("m",)
    assert "(tiger)" in str(err.value) and "nope" in str(err.value)


@pytest.mark.parametrize("stray, named", [
    ({"m": {"(tiger)": "x0", "(nonexistent)": "x0"}}, ("m", "(nonexistent)")),
    ({"id_X": {"x0": "bogus"}}, ("id_X",)),
    ({"id_cat": {"(tiger)": "(tiger)"}}, ("id_cat",)),
    ({"zzz": {}}, ("zzz",)),
    ({"k": {"(tiger)": "x0"}}, ("k",)),
])
def test_paraphrasis_refuses_overrides_it_cannot_install(stray, named):
    # an apex name that is no tuple, an identity (elsewhere or on the
    # word), an unknown morphism, and a non-identity that does not point
    # at the word
    teacher, learner, expl = unforced_setup(with_k=True)
    overrides = {"m": {"(tiger)": "x0"}, **stray}
    with pytest.raises(UnforcedActionAtL) as err:
        acquire_by_paraphrasis(teacher, learner, "cat", expl, edge_overrides=overrides)
    assert err.value.morphisms == named[:1]
    assert all(name in str(err.value) for name in named)


def test_paraphrasis_refuses_overrides_that_break_a_composite():
    # n: Y→X and m: X→cat, so the learned fibre over cat must satisfy
    # (m∘n)(t) = n(m(t)); here n(x0) = y0
    lang = free_category(
        quiver_from_edges(["Y", "X", "cat", "feline"], [("n", "Y", "X"), ("m", "X", "cat")])
    )
    teacher = make_speaker(
        "alice",
        lang,
        {"Y": ["ay"], "X": ["ax"], "cat": ["cleo"], "feline": ["felix"]},
        actions={"m": {"cleo": "ax"}, "n": {"ax": "ay"}, "m∘n": {"cleo": "ay"}},
    )
    learner = make_speaker(
        "bob",
        lang,
        {"Y": ["y0", "y1"], "X": ["x0"], "cat": [], "feline": ["tiger"]},
        actions={"n": {"x0": "y0"}},
    )
    expl = discrete_explanation(lang, "cat", {"a1": "feline"})
    expl = Explanation(expl.shape, expl.diagram, "cat", {("felix",): "cleo"})
    overrides = {"m": {"(tiger)": "x0"}, "m∘n": {"(tiger)": "y1"}}
    with pytest.raises(UnforcedActionAtL) as err:
        acquire_by_paraphrasis(teacher, learner, "cat", expl, edge_overrides=overrides)
    assert err.value.morphisms == ("m", "m∘n")
    assert "m∘n" in str(err.value) and "(tiger)" in str(err.value)

    overrides["m∘n"] = {"(tiger)": "y0"}
    out, _ = acquire_by_paraphrasis(
        teacher, learner, "cat", expl, edge_overrides=overrides, event_id="e6"
    )
    assert out.meaning.action["m∘n"] == {"e6:(tiger)": "y0"}


def test_paraphrasis_duplicate_targets_get_one_edge_per_leg():
    lang = discrete_category(["cat", "feline"])
    teacher = make_speaker("alice", lang, {"cat": ["cleo"], "feline": ["felix"]})
    learner = make_speaker("bob", lang, {"cat": [], "feline": ["tiger"]})
    picks = {"a1": "feline", "a2": "feline"}
    expl = discrete_explanation(lang, "cat", picks)
    expl = Explanation(expl.shape, expl.diagram, "cat", {("felix", "felix"): "cleo"})
    out, report = acquire_by_paraphrasis(teacher, learner, "cat", expl, event_id="e5")
    assert report.new_morphisms == ("cat→feline#a1", "cat→feline#a2")
    assert len(out.fibre("cat")) == 1


def test_paraphrasis_refuses_apex_tuples_with_one_name():
    # ("a,b", "c") and ("a", "b,c") both print as (a,b,c); learning them
    # would give the word one fibre element for two apex tuples
    lang = discrete_category(["p", "q", "e"])
    teacher = make_speaker("alice", lang, {"p": ["x"], "q": ["y"], "e": ["ex"]})
    learner = make_speaker("bob", lang, {"p": ["a,b", "a"], "q": ["c", "b,c"], "e": []})
    expl = discrete_explanation(lang, "e", {"a1": "p", "a2": "q"})
    expl = Explanation(expl.shape, expl.diagram, "e", {("x", "y"): "ex"})
    with pytest.raises(IdentifierClash) as err:
        acquire_by_paraphrasis(teacher, learner, "e", expl, event_id="ev")
    assert "('a', 'b,c')" in str(err.value)
    assert "('a,b', 'c')" in str(err.value)


def test_paraphrasis_work_does_not_grow_with_unrelated_parts_of_the_language(monkeypatch):
    # Composition entries glued, words spelled and opposites computed
    # during one paraphrasis are counted, then counted again with a
    # disconnected chain z0 → … → z5 (and its fifteen composites) added to
    # the language: the counts must not move. No opposite is computed at
    # all: the discrete shape is checked and limited along its (no) edges,
    # and the grown language is built together with its opposite, the
    # meaning's base. Every fibre but the learned word's is the learner's
    # own.
    import fiblex.collage as collage_module
    import fiblex.fincat as fincat_module

    counts = {"glued": 0, "words": 0, "opposites": 0}
    glue, spell = collage_module._glue, collage_module._spell
    opposite_of = fincat_module.opposite

    def counted_glue(cat, spellings, bound):
        compose, compose_op = glue(cat, spellings, bound)
        counts["glued"] += len(compose) - len(cat.compose)  # the entries it writes
        return compose, compose_op

    def counted_spell(cat, quiver, bound):
        words, truncated = spell(cat, quiver, bound)
        counts["words"] += len(words)
        return words, truncated

    def counted_opposite(cat):
        counts["opposites"] += "_opposite" not in cat.__dict__  # a miss of the cache
        return opposite_of(cat)

    def learn(chain_length):
        chain = [f"z{i}" for i in range(chain_length)]
        edges = [("f", "X", "feline"), ("g", "Y", "X")]
        edges += [(f"c{i}", a, b) for i, (a, b) in enumerate(zip(chain, chain[1:]))]
        lang = free_category(quiver_from_edges(["cat", "feline", "X", "Y"] + chain, edges))
        fibres = {"cat": [], "feline": ["tiger", "leo"], "X": ["x0"], "Y": ["y0"]}
        fibres.update({z: [f"{z}e"] for z in chain})
        actions = {}
        for m in lang.non_identities():
            s_obj, t_obj = lang.src[m], lang.tgt[m]
            actions[m] = {x: fibres[s_obj][0] for x in fibres[t_obj]}
        teacher = make_speaker("alice", lang, {**fibres, "cat": ["cleo"]}, actions)
        learner = make_speaker("bob", lang, fibres, actions)
        expl = discrete_explanation(lang, "cat", {"a1": "feline", "a2": "Y"})
        counts.update(glued=0, words=0, opposites=0)
        out, report = acquire_by_paraphrasis(teacher, learner, "cat", expl, event_id="e")
        assert report.outcome == "learned" and len(out.fibre("cat")) == 2
        assert opposite(out.language) is out.meaning.base
        old, new = learner.meaning.value, out.meaning.value
        assert all(new[o] is old[o] for o in lang.objects if o != "cat")
        return dict(counts)

    monkeypatch.setattr(collage_module, "_glue", counted_glue)
    monkeypatch.setattr(collage_module, "_spell", counted_spell)
    for name, module in list(sys.modules.items()):
        if name.startswith("fiblex") and getattr(module, "opposite", None) is opposite_of:
            monkeypatch.setattr(module, "opposite", counted_opposite)
    small = learn(0)
    assert small["glued"] > 0 and small["words"] > 0 and small["opposites"] == 0
    assert learn(6) == small


def test_example_work_does_not_grow_with_unrelated_parts_of_the_language(monkeypatch):
    # A plain and a merged example over W, whose down-set is W, X and Y,
    # are run, then run again with a disconnected chain z0 → … → z5 added
    # to the language: the entries of the rebuilt graphs, the members the
    # class walk reaches and the objects the report inspects must not move,
    # and every chain graph must be the learner's own.
    members, inspected = [], []
    reach = speaker_module._reach
    report = speaker_module._report

    def counted_reach(arcs, start):
        out = reach(arcs, start)
        members.append(len(out))
        return out

    def recorded_report(learner, out, changed, *args, **kwargs):
        inspected.append(sorted(changed))
        return report(learner, out, changed, *args, **kwargs)

    def learn(chain_length):
        chain = [f"z{i}" for i in range(chain_length)]
        edges = [("m", "X", "W"), ("n", "Y", "X"), ("b", "W", "V")]
        edges += [(f"c{i}", a, b) for i, (a, b) in enumerate(zip(chain, chain[1:]))]
        lang = free_category(quiver_from_edges(["W", "X", "Y", "V"] + chain, edges))
        pads = {z: [f"{z}e"] for z in chain}
        pad_actions = {
            g: {x: f"{lang.src[g]}e" for x in pads[lang.tgt[g]]}
            for g in lang.non_identities() if lang.src[g] in pads
        }
        plain = make_speaker("bob", lang, {"X": ["x0"], "Y": ["y0"], **pads},
                             {"n": {"x0": "y0"}, **pad_actions})
        merged = make_speaker(
            "bob", lang, {"W": ["w0", "w1"], "X": ["x0", "x1"], "Y": ["y0"], "V": ["v0"], **pads},
            {"m": {"w0": "x0", "w1": "x1"}, "n": {"x0": "y0", "x1": "y0"},
             "m∘n": {"w0": "y0", "w1": "y0"}, "b": {"v0": "w0"}, "b∘m": {"v0": "x0"},
             "b∘m∘n": {"v0": "y0"}, **pad_actions},
        )
        counts = {}
        for kind, learner, acquire in [
            ("plain", plain, lambda: acquire_by_example(plain, "W", ["s", "t"], event_id="e")),
            ("merged", merged, lambda: acquire_by_example_merged(
                merged, "W", ["s", "t"], {"w0": "s", "w1": "s"}, event_id="e")),
        ]:
            members.clear()
            inspected.clear()
            out, _ = acquire()
            old, new = learner.meaning.action, out.meaning.action
            assert all(new[g] is old[g] for g in lang.morphisms if lang.src[g] in pads)
            rebuilt = sum(len(new[g]) for g in lang.morphisms if new[g] is not old[g])
            counts[kind] = (rebuilt, list(members), list(inspected))
        return counts

    monkeypatch.setattr(speaker_module, "_reach", counted_reach)
    monkeypatch.setattr(speaker_module, "_report", recorded_report)
    small = learn(0)
    assert small["plain"][0] > 0 and small["merged"][0] > 0
    assert small["plain"][1] == [] and small["merged"][1]
    assert small["plain"][2] == small["merged"][2] == [["W", "X", "Y"]]
    assert learn(6) == small


# --- explanations over free shapes ----------------------------------------------------


def commuting_square() -> FinCategory:
    """a → b → d and a → c → d, whose two paths are one morphism ``gf``."""
    arrows = [("f", "a", "b"), ("g", "b", "d"), ("h", "a", "c"), ("k", "c", "d"),
              ("gf", "a", "d")]
    return category_from_dict({
        "objects": ["a", "b", "c", "d"],
        "morphisms": [{"id": m, "src": s, "tgt": t} for m, s, t in arrows],
        "compose": [["g", "f", "gf"], ["k", "h", "gf"]],
    })


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_free_shape_is_checked_and_limited_as_over_every_path(seed):
    # Random free shapes (some cyclic and cut at two edges, some discrete
    # or terminal, some rebuilt from their tables so that they are not
    # known to be free), shapes with relations (an isomorphism or an
    # idempotent, onto themselves with a meaning of their own, and a
    # commuting square), functorial diagrams into random languages, some of
    # them perturbed, and random speakers: the check along the edges agrees
    # with the check and limit over every morphism of the shape. A third of
    # the acyclic free shapes embed into their doubles, where a perturbed
    # path has parallels to go to. A shape that is not taken along its
    # edges is limited over every arrow, which walks the arrows in the
    # oracle's order, so an empty limit has the oracle's witness.
    rng = random.Random(seed)
    pick = rng.random()
    if pick < 0.1:
        meaning = rng.choice([iso_functor, idempotent_functor])(rng)
        shape = lang = opposite(meaning.base)
        diagram = CatFunctor(shape, lang, {o: o for o in shape.objects},
                             {m: m for m in shape.morphisms})
        speaker = Speaker("s", lang, meaning)
    else:
        if pick < 0.2:
            shape = commuting_square()
        else:
            shape = rng.choice([random_free_shape, random_free_shape, random_discrete_shape])(rng)
        if shape.paths is not None and shape.closed and rng.random() < 0.3:
            lang = doubled(shape)
            paths = lang.paths
            diagram = CatFunctor(shape, lang, {o: o for o in shape.objects},
                                 {m: m for m in shape.morphisms})
        else:
            lang, paths = random_base(rng, max_edges=7, max_morphisms=40)
            diagram = random_functor_between(rng, shape, lang)
        speaker = Speaker("s", lang, random_presheaf(rng, lang, paths))
    if rng.random() < 0.1:
        shape = FinCategory(shape.objects, shape.morphisms, shape.src, shape.tgt,
                            shape.identity, shape.compose, shape.closed)
        diagram = CatFunctor(shape, lang, diagram.omap, diagram.mmap)
    if rng.random() < 0.5:
        diagram = perturbed_diagram(rng, diagram)
    target = rng.choice(sorted(lang.objects))
    explanation = Explanation(shape, diagram, target)
    oracle = validate_explanation_over_every_path(speaker, explanation)
    if oracle.limit.apex and rng.random() < 0.5:
        fibre = sorted(speaker.fibre(target))
        embedding = dict(zip(oracle.limit.sorted_apex(), fibre))
        explanation = Explanation(shape, diagram, target, embedding)
        oracle = validate_explanation_over_every_path(speaker, explanation)
    check = validate_explanation(speaker, explanation)
    assert (check.valid, check.exact, check.vacuous, check.problems) == (
        oracle.valid, oracle.exact, oracle.vacuous, oracle.problems)
    assert (check.limit.order, check.limit.apex) == (oracle.limit.order, oracle.limit.apex)
    along_edges = (shape.paths is not None and shape.closed and lang.closed
                   and not validate_functor(diagram))
    if not along_edges:
        assert check.limit.witness == oracle.limit.witness


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_paraphrasis_learns_one_element_per_apex_tuple_and_the_projections_as_legs(seed):
    # Random discrete and free shapes, functorial diagrams into a random
    # language with a fresh word W, and a learner with nothing over W: the
    # learned fibre has one element per tuple of the limit over every
    # path, and the new edge for each shape object acts on it as the
    # projection onto that object's component of the tuples.
    rng = random.Random(seed)
    base, paths = random_base(rng, max_edges=7, max_morphisms=40)
    edges = [(e, base.src[e], base.tgt[e]) for e, path in paths.items() if len(path) == 1]
    lang = free_category(quiver_from_edges(base.objects | {"W"}, edges))
    meaning = random_presheaf(rng, lang, lang.paths)
    teacher = Speaker("t", lang, meaning)
    identity_w = lang.identity["W"]
    learner = Speaker("l", lang, SetFunctor(meaning.base, {**meaning.value, "W": frozenset()},
                                            {**meaning.action, identity_w: {}}))
    shape = rng.choice([random_free_shape, random_discrete_shape])(rng)
    into_base = random_functor_between(rng, shape, base)  # away from W, named as in lang
    diagram = CatFunctor(shape, lang, into_base.omap, into_base.mmap)
    explanation = Explanation(shape, diagram, "W")
    if validate_explanation(teacher, explanation).vacuous:
        return
    cone = validate_explanation_over_every_path(learner, explanation).limit
    out, report = acquire_by_paraphrasis(teacher, learner, "W", explanation, event_id="e")
    assert len(out.fibre("W")) == len(cone.apex)
    assert report.outcome == ("learned" if cone.apex else "no-sense")
    if not cone.apex:
        return
    element = {tup: f"e:{tuple_name(tup)}" for tup in cone.apex}
    assert out.fibre("W") == frozenset(element.values())
    targets = [diagram.omap[a] for a in cone.order]
    for i, (a, target) in enumerate(zip(cone.order, targets)):
        edge = f"W→{target}" + (f"#{a}" if targets.count(target) > 1 else "")
        assert out.meaning.action[edge] == {element[tup]: tup[i] for tup in cone.apex}
