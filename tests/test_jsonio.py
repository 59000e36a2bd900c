import json
import random

import pytest

from genlib import random_base, random_presheaf
from fiblex.errors import FiblexError, NotAFibration
from fiblex.collage import fp_collage, free_category
from fiblex.fincat import (
    SetFunctor,
    discrete_category,
    identity_functor,
    quiver_from_edges,
    set_limit,
    underlying_quiver,
)
from fiblex.fibration import grothendieck
from fiblex.jsonio import (
    canonical_dumps,
    category_from_dict,
    category_to_dict,
    explanation_from_dict,
    explanation_to_dict,
    fibration_from_dict,
    fibration_to_dict,
    functor_from_dict,
    functor_to_dict,
    limit_cone_from_dict,
    limit_cone_to_dict,
    quiver_from_dict,
    quiver_to_dict,
    setfunctor_from_dict,
    setfunctor_to_dict,
    speaker_from_dict,
    speaker_to_dict,
    word_from_dict,
    word_to_dict,
)
from fiblex.speaker import tautological_explanation


def chain():
    return free_category(
        quiver_from_edges(["A", "B", "C"], [("f", "A", "B"), ("g", "B", "C")])
    )


def roundtrip(doc_fn, parse_fn, value):
    doc = doc_fn(value)
    text = canonical_dumps(doc)
    loaded = parse_fn(json.loads(text))
    assert loaded == value
    assert canonical_dumps(doc_fn(loaded)) == text
    return loaded


def test_category_roundtrip():
    roundtrip(category_to_dict, category_from_dict, chain())
    truncated = free_category(quiver_from_edges(["A"], [("e", "A", "A")]), bound=2)
    roundtrip(category_to_dict, category_from_dict, truncated)


def test_quiver_roundtrip():
    roundtrip(quiver_to_dict, quiver_from_dict, underlying_quiver(chain()))


def test_functor_roundtrip():
    roundtrip(functor_to_dict, functor_from_dict, identity_functor(chain()))


def test_setfunctor_roundtrip():
    rng = random.Random(2)
    base, paths = random_base(rng)
    roundtrip(setfunctor_to_dict, setfunctor_from_dict, random_presheaf(rng, base, paths))


def test_limit_cone_roundtrip():
    rng = random.Random(3)
    base, paths = random_base(rng)
    cone = set_limit(random_presheaf(rng, base, paths))
    roundtrip(limit_cone_to_dict, limit_cone_from_dict, cone)


def comma_element_cone():
    # Paraphrasis names fresh fibre elements "<event>:(<tuple>)", so apex
    # components can contain commas and parentheses.
    base = discrete_category(["X", "Y"])
    value = {"X": frozenset({"ev:(a,b)", "c"}), "Y": frozenset({"d"})}
    action = {base.identity[o]: {x: x for x in value[o]} for o in value}
    return set_limit(SetFunctor(base=base, value=value, action=action))


def test_limit_cone_roundtrip_with_commas_in_elements():
    cone = comma_element_cone()
    assert ("ev:(a,b)", "d") in cone.apex
    roundtrip(limit_cone_to_dict, limit_cone_from_dict, cone)


def test_empty_limit_cone_roundtrip_leaves_the_witness_out():
    base = discrete_category(["X", "Y"])
    value = {"X": frozenset({"x"}), "Y": frozenset()}
    action = {base.identity[o]: {x: x for x in value[o]} for o in value}
    cone = set_limit(SetFunctor(base=base, value=value, action=action))
    assert cone.witness == {"kind": "empty-fibre", "object": "Y"}
    doc = limit_cone_to_dict(cone)
    assert doc == {"order": ["X", "Y"], "apex": [], "legs": {"X": {}, "Y": {}}}
    roundtrip(limit_cone_to_dict, limit_cone_from_dict, cone)


def test_limit_cone_rejects_leg_key_outside_apex():
    doc = limit_cone_to_dict(comma_element_cone())
    doc["legs"]["X"]["(ev:(a,b))"] = "c"
    with pytest.raises(FiblexError):
        limit_cone_from_dict(doc)


def test_fibration_serializes_as_projection_and_reverifies():
    rng = random.Random(4)
    base, paths = random_base(rng)
    fib = grothendieck(random_presheaf(rng, base, paths))
    doc = fibration_to_dict(fib)
    loaded = fibration_from_dict(json.loads(canonical_dumps(doc)))
    assert loaded.proj == fib.proj
    assert loaded.lift_table == fib.lift_table


def test_broken_projection_fails_verification_on_load():
    lang = chain()
    total = discrete_category(["EA"])
    doc = functor_to_dict(identity_functor(total))
    doc["cod"] = category_to_dict(lang)
    doc["omap"] = {"EA": "B"}
    doc["mmap"] = {"id_EA": "id_B"}
    with pytest.raises(NotAFibration):
        fibration_from_dict(doc)


def test_word_roundtrip():
    cat = chain()
    q = quiver_from_edges(["A", "B", "C"], [("q", "A", "C"), ("r", "C", "B")])
    col = fp_collage(cat, q, bound=2)
    for word in col.words.values():
        assert word_from_dict(json.loads(canonical_dumps(word_to_dict(word)))) == word


def test_speaker_roundtrip_and_tautology_survives():
    lang = discrete_category(["cat", "dog"])
    doc = {
        "name": "p",
        "language": category_to_dict(lang),
        "fibres": {"cat": ["c1", "c2"], "dog": []},
        "actions": {},
    }
    speaker = speaker_from_dict(doc)
    again = speaker_from_dict(json.loads(canonical_dumps(speaker_to_dict(speaker))))
    assert again == speaker
    expl = tautological_explanation(speaker, "cat")
    expl2 = explanation_from_dict(
        json.loads(canonical_dumps(explanation_to_dict(expl))), speaker.language
    )
    assert expl2 == expl


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


def test_speaker_from_dict_checks_language_and_meaning():
    doc = {
        "name": "p",
        "language": category_to_dict(chain()),
        "fibres": {"A": ["a"], "B": ["b"], "C": ["c"]},
        "actions": {"f": {"b": "a"}, "g": {"c": "b"}, "g∘f": {"c": "a"}},
    }
    assert speaker_from_dict(doc).fibre("A") == {"a"}
    with pytest.raises(FiblexError, match="speaker p: invalid meaning: action of g leaves"):
        speaker_from_dict({**doc, "actions": {**doc["actions"], "g": {"c": "zz"}}})
    broken = dict(doc["language"])
    broken["compose"] = [t for t in broken["compose"] if t[:2] != ["g", "f"]]
    with pytest.raises(FiblexError, match="speaker p: invalid language: no composite"):
        speaker_from_dict({**doc, "language": broken})
