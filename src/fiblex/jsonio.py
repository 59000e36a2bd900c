"""JSON (de)serialization for every engine value.

Serialized forms are canonical: dictionaries sort their keys, list-like
data is sorted, and dumping a loaded document reproduces it byte for
byte. Composition tables are explicit ``[g, f, gf]`` triples; functor
actions are explicit graphs. Fibrations serialize as their projection
functor alone; lift tables are recomputed and verified on load.
"""

from __future__ import annotations

import json
from typing import Any

from .collage import Word
from .errors import FiblexError
from .fibration import Fibration, fibration_from
from .fincat import (
    CatFunctor,
    FinCategory,
    LimitCone,
    Quiver,
    SetFunctor,
    opposite,
    parse_tuple_name,
    tuple_name,
    validate_category,
    validate_setfunctor,
)
from .speaker import Explanation, Speaker, _derived_speaker


def canonical_dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# --- categories -------------------------------------------------------------


def category_to_dict(cat: FinCategory) -> dict:
    return {
        "objects": sorted(cat.objects),
        "morphisms": [
            {"id": m, "src": cat.src[m], "tgt": cat.tgt[m]} for m in sorted(cat.morphisms)
        ],
        "identity": dict(sorted(cat.identity.items())),
        "compose": sorted([g, f, gf] for (g, f), gf in cat.compose.items()),
        "closed": cat.closed,
    }


def category_from_dict(doc: dict) -> FinCategory:
    """Decode a category and check its axioms.

    ``identity`` defaults to ``id_<object>``; identities may be left out
    of ``morphisms``, and composites with an identity out of ``compose``.
    A violated axiom raises ``FiblexError`` with the first problem found.
    """
    identity = dict(doc.get("identity") or {o: f"id_{o}" for o in doc["objects"]})
    src = {i: o for o, i in identity.items()}
    tgt = dict(src)
    for m in doc.get("morphisms", []):
        src[m["id"]] = m["src"]
        tgt[m["id"]] = m["tgt"]
    compose = {(g, f): gf for g, f, gf in doc.get("compose", [])}
    for m in src:
        if src[m] in identity and tgt[m] in identity:
            compose.setdefault((m, identity[src[m]]), m)
            compose.setdefault((identity[tgt[m]], m), m)
    cat = FinCategory(
        objects=frozenset(doc["objects"]),
        morphisms=frozenset(src),
        src=src,
        tgt=tgt,
        identity=identity,
        compose=compose,
        closed=doc.get("closed", True),
    )
    problems = validate_category(cat)
    if problems:
        raise FiblexError(problems[0])
    return cat


def quiver_to_dict(q: Quiver) -> dict:
    return {
        "vertices": sorted(q.vertices),
        "edges": [
            {"id": e, "src": q.esrc[e], "tgt": q.etgt[e]} for e in sorted(q.edges)
        ],
    }


def quiver_from_dict(doc: dict) -> Quiver:
    esrc = {e["id"]: e["src"] for e in doc["edges"]}
    etgt = {e["id"]: e["tgt"] for e in doc["edges"]}
    return Quiver(frozenset(doc["vertices"]), frozenset(esrc), esrc, etgt)


# --- functors ---------------------------------------------------------------


def functor_to_dict(fun: CatFunctor) -> dict:
    return {
        "dom": category_to_dict(fun.dom),
        "cod": category_to_dict(fun.cod),
        "omap": dict(sorted(fun.omap.items())),
        "mmap": dict(sorted(fun.mmap.items())),
    }


def functor_from_dict(doc: dict) -> CatFunctor:
    return CatFunctor(
        dom=category_from_dict(doc["dom"]),
        cod=category_from_dict(doc["cod"]),
        omap=dict(doc["omap"]),
        mmap=dict(doc["mmap"]),
    )


def setfunctor_to_dict(fun: SetFunctor) -> dict:
    return {
        "base": category_to_dict(fun.base),
        "value": {o: sorted(v) for o, v in sorted(fun.value.items())},
        "action": {m: dict(sorted(g.items())) for m, g in sorted(fun.action.items())},
    }


def setfunctor_from_dict(doc: dict) -> SetFunctor:
    return SetFunctor(
        base=category_from_dict(doc["base"]),
        value={o: frozenset(v) for o, v in doc["value"].items()},
        action={m: dict(g) for m, g in doc["action"].items()},
    )


def limit_cone_to_dict(cone: LimitCone) -> dict:
    return {
        "order": list(cone.order),
        "apex": [list(t) for t in cone.sorted_apex()],
        "legs": {
            o: {tuple_name(t): x for t, x in sorted(graph.items())}
            for o, graph in sorted(cone.legs.items())
        },
    }


def limit_cone_from_dict(doc: dict) -> LimitCone:
    order = tuple(doc["order"])
    apex = frozenset(tuple(t) for t in doc["apex"])
    by_name = {tuple_name(t): t for t in apex}
    legs: dict[str, dict[tuple[str, ...], str]] = {}
    for o, graph in doc["legs"].items():
        legs[o] = {}
        for name, x in graph.items():
            if name not in by_name:
                raise FiblexError(f"limit cone leg {o}: {name!r} names no apex tuple")
            legs[o][by_name[name]] = x
    return LimitCone(order=order, apex=apex, legs=legs)


# --- fibrations, words, speakers ---------------------------------------------


def fibration_to_dict(fib: Fibration) -> dict:
    return functor_to_dict(fib.proj)


def fibration_from_dict(doc: dict) -> Fibration:
    return fibration_from(functor_from_dict(doc))


def word_to_dict(word: Word) -> dict:
    return {"parts": [[kind, i] for kind, i in word.parts()], "src": word.src, "tgt": word.tgt}


def word_from_dict(doc: dict) -> Word:
    bases = [i for kind, i in doc["parts"] if kind == "base"]
    edges = [i for kind, i in doc["parts"] if kind == "edge"]
    return Word(bases=tuple(bases), edges=tuple(edges), src=doc["src"], tgt=doc["tgt"])


def speaker_to_dict(speaker: Speaker) -> dict:
    return {
        "name": speaker.name,
        "language": category_to_dict(speaker.language),
        "fibres": {o: sorted(v) for o, v in sorted(speaker.meaning.value.items())},
        "actions": {
            m: dict(sorted(g.items()))
            for m, g in sorted(speaker.meaning.action.items())
            if not speaker.meaning.base.is_identity(m)
        },
    }


def speaker_from_dict(doc: dict) -> Speaker:
    try:
        language = category_from_dict(doc["language"])
    except FiblexError as err:
        raise FiblexError(f"speaker {doc['name']}: invalid language: {err}") from err
    return _declared_speaker(doc["name"], language, doc["fibres"], doc["actions"])


def _declared_speaker(name: str, language: FinCategory, fibres: dict, actions: dict) -> Speaker:
    """The speaker with the declared fibres and non-identity actions over
    a language whose axioms the caller has checked; the meaning is
    checked here."""
    base = opposite(language)
    value = {o: frozenset(fibres.get(o, ())) for o in language.objects}
    action: dict[str, dict[str, str]] = {}
    for m in language.morphisms:
        if base.is_identity(m):
            action[m] = {x: x for x in value[base.src[m]]}
        else:
            if m not in actions:
                raise FiblexError(f"speaker {name}: no action table for {m}")
            action[m] = dict(actions[m])
    meaning = SetFunctor(base=base, value=value, action=action)
    problems = validate_setfunctor(meaning)
    if problems:
        raise FiblexError(f"speaker {name}: invalid meaning: {problems[0]}")
    return _derived_speaker(name, language, meaning)


def explanation_to_dict(expl: Explanation) -> dict:
    doc = {
        "shape": category_to_dict(expl.shape),
        "diagram": {
            "objects": dict(sorted(expl.diagram.omap.items())),
            "morphisms": dict(sorted(expl.diagram.mmap.items())),
        },
        "target": expl.target,
    }
    if expl.embedding is not None:
        doc["embedding"] = {
            tuple_name(t): x for t, x in sorted(expl.embedding.items())
        }
    return doc


def explanation_from_dict(doc: dict, language: FinCategory) -> Explanation:
    shape = category_from_dict(doc["shape"])
    diagram = CatFunctor(
        dom=shape,
        cod=language,
        omap=dict(doc["diagram"]["objects"]),
        mmap=dict(doc["diagram"]["morphisms"]),
    )
    embedding = None
    if "embedding" in doc:
        embedding = {}
        for name, x in doc["embedding"].items():
            tup = parse_tuple_name(name)
            if tup is None:
                raise FiblexError(f"embedding key {name!r} is not a tuple name")
            embedding[tup] = x
    return Explanation(shape=shape, diagram=diagram, target=doc["target"], embedding=embedding)
