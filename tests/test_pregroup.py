import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import UnknownWord, reduce, replay, sentence_check, type_order_closure
from fiblex.errors import FiblexError, IdentifierClash
from fiblex.fincat import validate_category
from fiblex.pregroup import (
    Lexicon,
    format_type,
    language_category_from_lexicon,
    parse_type,
    type_order,
)

ORDER = type_order(["n", "s"])


@st.composite
def type_relations(draw):
    """Up to six basic types, a chain through some of them, and a few more
    pairs, which may close a cycle or name the type x, never a basic."""
    basics = draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6, unique=True))
    ranked = draw(st.permutations(basics))
    chain = draw(st.integers(0, len(ranked)))
    pairs = list(zip(ranked[: chain - 1], ranked[1:chain]))
    names = st.sampled_from(basics + ["x"])
    pairs += draw(st.lists(st.tuples(names, names), max_size=3))
    return basics, draw(st.permutations(pairs))


@settings(max_examples=300, deadline=None)
@given(type_relations())
def test_type_order_is_the_fixpoint_closure(relation):
    basics, pairs = relation
    try:
        expected = type_order_closure(basics, pairs)
    except FiblexError as err:
        expected = err
    if isinstance(expected, FiblexError):
        with pytest.raises(FiblexError, match="order is not antisymmetric|order mentions unknown"):
            type_order(basics, pairs)
    else:
        assert type_order(basics, pairs) == expected


def test_type_order_closes_a_chain():
    order = type_order(["a", "b", "c", "d", "s"], [("c", "d"), ("a", "b"), ("b", "c")])
    assert {(a, b) for a, b in order.leq if a != b} == {
        ("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")
    }


def test_a_cycle_in_the_type_order_is_refused():
    with pytest.raises(FiblexError, match="order is not antisymmetric: [nps] and [nps] are"):
        type_order(["n", "p", "s"], [("p", "n"), ("n", "s"), ("s", "p")])


def test_a_type_order_pair_outside_the_basics_is_refused():
    with pytest.raises(FiblexError, match="order mentions unknown basic type in \\(p, [np]\\)"):
        type_order(["n", "s"], [("p", "n")])


def test_parse_and_format_roundtrip():
    for text in ("n", "n^r s", "n^r s n^l", "s^ll n"):
        assert format_type(parse_type(text)) == text


def test_parse_rejects_mixed_adjoints_and_deep_orders():
    with pytest.raises(FiblexError):
        parse_type("n^rl")
    with pytest.raises(FiblexError):
        parse_type("n^rrr")  # exceeds default z_max


def test_intransitive_sentence_reduces():
    t = parse_type("n n^r s")
    derivation = reduce(t, parse_type("s"), ORDER)
    assert derivation is not None
    assert len(derivation) == 1
    assert replay(t, derivation) == parse_type("s")


def test_transitive_sentence_reduces_in_two_contractions():
    t = parse_type("n n^r s n^l n")
    derivation = reduce(t, parse_type("s"), ORDER)
    assert derivation is not None
    assert len(derivation) == 2
    assert replay(t, derivation) == parse_type("s")


def test_two_nouns_do_not_reduce_to_a_sentence():
    assert reduce(parse_type("n n"), parse_type("s"), ORDER) is None


def test_reduce_to_itself_is_empty():
    t = parse_type("n^r s")
    assert reduce(t, t, ORDER) == ()


def test_induced_step_uses_the_order():
    order = type_order(["n", "p", "s"], [("p", "n")])  # proper nouns are nouns
    t = parse_type("p n^r s")
    derivation = reduce(t, parse_type("s"), order)
    assert derivation is not None
    assert replay(t, derivation) == parse_type("s")


def test_every_returned_derivation_replays():
    order = type_order(["n", "p", "s"], [("p", "n")])
    goals = ["s", "n", "p n^r s"]
    starts = ["p n^r s", "n n^r s", "p", "n n", "s s^r s"]
    for a in starts:
        for b in goals:
            derivation = reduce(parse_type(a), parse_type(b), order)
            if derivation is not None:
                assert replay(parse_type(a), derivation) == parse_type(b)


# --- sentence_check -------------------------------------------------------------


def toy_lexicon():
    return Lexicon(
        order=ORDER,
        entries={
            "dogs": (parse_type("n"),),
            "cats": (parse_type("n"),),
            "sleep": (parse_type("n^r s"),),
            "chase": (parse_type("n^r s n^l"),),
            "bark": (parse_type("n^r s"), parse_type("n")),
        },
        sentence=parse_type("s"),
    )


def test_noun_plus_intransitive_is_a_sentence():
    check = sentence_check(toy_lexicon(), ["dogs", "sleep"])
    assert check.ok
    assert replay(
        tuple(x for t in check.assignment for x in t), check.derivation
    ) == parse_type("s")


def test_bare_noun_is_not_a_sentence():
    assert not sentence_check(toy_lexicon(), ["dogs"]).ok


def test_ambiguous_word_succeeds_through_the_right_type():
    check = sentence_check(toy_lexicon(), ["dogs", "bark"])
    assert check.ok
    assert check.assignment[1] == parse_type("n^r s")


def test_unknown_word_is_an_error():
    with pytest.raises(UnknownWord):
        sentence_check(toy_lexicon(), ["dogs", "fly"])


# --- reduction categories ----------------------------------------------------------


def test_single_phrase_category_is_terminal():
    cat = language_category_from_lexicon(toy_lexicon(), ["n"])
    assert len(cat.objects) == 1
    assert len(cat.morphisms) == 1


def test_single_contraction_edge():
    cat = language_category_from_lexicon(toy_lexicon(), ["n n^r s", "s"])
    assert len(cat.objects) == 2
    assert cat.hom("n n^r s", "s") == ["n n^r s→s"]
    assert cat.hom("s", "n n^r s") == []
    assert validate_category(cat) == []


def test_no_morphisms_between_distinct_atomic_nouns():
    lex = Lexicon(
        order=type_order(["cat", "feline", "s"]),
        entries={"cat": (parse_type("cat"),), "feline": (parse_type("feline"),)},
        sentence=parse_type("s"),
    )
    cat = language_category_from_lexicon(lex, ["cat", "feline"])
    assert cat.hom("cat", "feline") == []
    assert cat.hom("feline", "cat") == []


def test_reduction_category_is_acyclic_and_valid():
    cat = language_category_from_lexicon(
        toy_lexicon(), ["n n^r s n^l n", "n n^r s", "s", "n"]
    )
    assert validate_category(cat) == []
    ids = cat.identities()
    for m in cat.morphisms:
        if m in ids:
            continue
        assert cat.src[m] != cat.tgt[m]
        assert cat.hom(cat.tgt[m], cat.src[m]) == []


def bare_lexicon(basics):
    return Lexicon(order=type_order(basics), entries={}, sentence=parse_type(basics[0]))


def test_a_basic_type_named_like_the_empty_type_is_refused():
    with pytest.raises(IdentifierClash, match="the basic type 1 share the object name 1"):
        language_category_from_lexicon(bare_lexicon(["1", "n"]), ["1", "n n^r"])


def test_a_reduction_named_like_an_identity_is_refused():
    # "id_x p^l p" reduces to "id_x", and that morphism's name is the
    # identity's of the irreducible type "x p^l p→id_x" (basic "p→id_x")
    lex = bare_lexicon(["id_x", "x", "p", "p→id_x"])
    with pytest.raises(IdentifierClash, match="two morphisms share the name id_x p\\^l p→id_x"):
        language_category_from_lexicon(lex, ["id_x p^l p", "x p^l p→id_x"])


def test_unknown_basic_types_are_refused_in_phrases_and_the_sentence():
    lex = bare_lexicon(["n", "s"])
    with pytest.raises(FiblexError, match="phrase 'x x\\^r' uses unknown basic type 'x'"):
        language_category_from_lexicon(lex, ["x x^r"])
    with pytest.raises(FiblexError, match="phrase 'cat' uses unknown basic type 'cat'"):
        language_category_from_lexicon(lex, ["n", "cat"])
    with pytest.raises(FiblexError, match="the sentence type uses unknown basic type 'q'"):
        Lexicon(order=ORDER, entries={}, sentence=parse_type("q"))


def test_language_category_agrees_with_the_reduction_search():
    # with no order between distinct basics only contractions apply, so
    # t -> u is a morphism exactly when the search derives u from t
    rng = random.Random(5)
    marks = ["^ll", "^l", "", "^r", "^rr"]
    morphisms = absent = 0
    for _ in range(300):
        basics = ["n", "s", "o"][: rng.randint(1, 3)]
        order = type_order(basics)
        lex = Lexicon(order=order, entries={"-": (parse_type("n"),)}, sentence=parse_type("n"))
        phrases = [
            " ".join(rng.choice(basics) + rng.choice(marks) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(1, 3))
        ]
        cat = language_category_from_lexicon(lex, phrases)
        types = {o: () if o == "1" else parse_type(o) for o in cat.objects}
        for t, u in itertools.product(sorted(cat.objects), repeat=2):
            derived = reduce(types[t], types[u], order) is not None
            assert bool(cat.hom(t, u)) == derived, (phrases, t, u)
            if t != u:
                morphisms += derived
                absent += not derived
    assert morphisms > 100 and absent > 100


def test_paraphrasis_enriches_a_pregroup_language_beyond_reductions():
    # reductions alone leave distinct nouns unrelated; learning a word by
    # paraphrasis adds semantic morphisms that no contraction produces
    from fiblex.fincat import SetFunctor, opposite
    from fiblex.speaker import Explanation, Speaker, acquire_by_paraphrasis
    from fiblex.fincat import CatFunctor, discrete_category

    lex = Lexicon(
        order=type_order(["cat", "feline", "black", "s"]),
        entries={
            "cat": (parse_type("cat"),),
            "feline": (parse_type("feline"),),
            "black": (parse_type("black"),),
        },
        sentence=parse_type("s"),
    )
    lang = language_category_from_lexicon(lex, ["cat", "feline", "black"])
    assert lang.hom("cat", "feline") == []

    def speaker(name, fibres):
        base = opposite(lang)
        value = {o: frozenset(fibres.get(o, ())) for o in lang.objects}
        action = {m: {x: x for x in value[base.src[m]]} for m in lang.morphisms}
        return Speaker(name=name, language=lang, meaning=SetFunctor(base, value, action))

    teacher = speaker("p", {"cat": ["c"], "feline": ["f"], "black": ["b"]})
    learner = speaker("q", {"feline": ["tiger"], "black": ["noir"]})
    shape = discrete_category(["a1", "a2"])
    diagram = CatFunctor(
        shape,
        lang,
        {"a1": "feline", "a2": "black"},
        {"id_a1": lang.identity["feline"], "id_a2": lang.identity["black"]},
    )
    expl = Explanation(shape, diagram, "cat", {("f", "b"): "c"})
    out, report = acquire_by_paraphrasis(teacher, learner, "cat", expl, event_id="e1")
    assert report.new_morphisms == ("cat→black", "cat→feline")
    for m in report.new_morphisms:
        assert m not in lang.morphisms  # not a reduction: freshly adjoined
    assert len(out.fibre("cat")) == 1
