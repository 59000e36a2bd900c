"""Canonical JSON and the decoder of explicit category tables.

``canonical_dumps`` writes every report the engine produces: keys are
sorted, non-ASCII text is kept, and the same value always gives the same
bytes. ``category_from_dict`` decodes the ``explicit`` kind of a
scenario's category declaration.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import FiblexError
from .fincat import FinCategory, validate_category


def canonical_dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


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
