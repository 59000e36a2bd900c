"""Canonical JSON and the decoder of explicit category tables.

``canonical_dumps`` writes every report and every key of a scenario's
shapes: keys sorted, non-ASCII text kept, no whitespace between tokens.
``category_from_dict`` decodes a scenario's ``explicit`` categories.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import FiblexError, IdentifierClash
from .fincat import FinCategory, validate_category

_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def canonical_dumps(doc: Any) -> str:
    """``doc`` as one line of canonical JSON and a newline, the text of
    ``json.dumps(doc, sort_keys=True, ensure_ascii=False, separators=(",", ":"))``:
    two values give the same text exactly when they hold the same JSON
    types and values, whatever the order of their keys."""
    return _ENCODER.encode(doc) + "\n"


def category_from_dict(doc: dict) -> FinCategory:
    """Decode a category and check its axioms.

    ``identity`` defaults to ``id_<object>``; identities may be left out
    of ``morphisms``, and composites with an identity out of ``compose``.
    A morphism id or a ``compose`` pair listed twice raises
    ``IdentifierClash``, and a violated axiom ``FiblexError`` with the
    first problem found.
    """
    identity = dict(doc.get("identity") or {o: f"id_{o}" for o in doc["objects"]})
    src = {i: o for o, i in identity.items()}
    tgt = dict(src)
    listed = set()
    for m in doc.get("morphisms", []):
        if m["id"] in listed:
            raise IdentifierClash(f"morphism id {m['id']} is listed twice")
        listed.add(m["id"])
        src[m["id"]] = m["src"]
        tgt[m["id"]] = m["tgt"]
    compose = {}
    for g, f, gf in doc.get("compose", []):
        if (g, f) in compose:
            raise IdentifierClash(f"compose entry for ({g}, {f}) is listed twice")
        compose[g, f] = gf
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
