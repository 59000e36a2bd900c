"""Canonical JSON and the decoder of explicit category tables.

``canonical_dumps`` writes every report the engine produces: keys are
sorted, non-ASCII text is kept, and the same value always gives the same
bytes, those of ``json.dumps`` with ``indent=2``. That call falls back to
the pure-Python encoder for the whole document; here only the containers
that hold other containers are walked in Python, and each container of
scalars goes to the C encoder, which writes its members in one call with
the separators for its depth. ``canonical_key`` names a JSON value
through the same encoder, and ``category_from_dict`` decodes the
``explicit`` kind of a scenario's category declaration.
"""

from __future__ import annotations

import json
from functools import cache
from json.encoder import c_make_encoder, encode_basestring
from typing import Any, Callable

from .errors import FiblexError, IdentifierClash
from .fincat import FinCategory, validate_category


def canonical_dumps(doc: Any) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)``
    and a newline, byte for byte (a document that contains itself is
    refused by ``RecursionError``)."""
    if c_make_encoder is None:  # an interpreter without the C accelerator
        return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    out: list[str] = []
    _encode(doc, 0, out)
    out.append("\n")
    return "".join(out)


def canonical_key(value: Any) -> str:
    """A name of a JSON value that another value shares exactly when it
    holds the same JSON types and values, whatever the order of its keys:
    its text with sorted keys, in one call of the C encoder."""
    if c_make_encoder is None:
        return json.dumps(value, sort_keys=True)
    return "".join(_flat_encoder(0)(value, 0))


_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset({str, int, float, bool, type(None)})


@cache
def _flat_encoder(depth: int) -> Callable:
    """The C encoder of a container of scalars whose members sit at
    ``depth`` levels of indentation. It writes the separators ``indent``
    puts between members, but not the line breaks after the opening
    bracket and before the closing one. It returns a list of strings,
    to be joined: a long container comes back in several pieces."""
    return c_make_encoder(None, json.JSONEncoder().default, encode_basestring, None,
                          ": ", ",\n" + "  " * depth, True, False, True)


def _encode(value: Any, depth: int, out: list[str]) -> None:
    """Append the text of ``value``, indented ``depth`` levels, to ``out``.

    A container whose members are all scalars is written by the C
    encoder in one call; the others are walked here, member by member."""
    if isinstance(value, str):
        out.append(encode_basestring(value))
        return
    if not isinstance(value, _CONTAINERS):
        out.append("".join(_flat_encoder(0)(value, 0)))
        return
    if not value:
        out.append("{}" if isinstance(value, dict) else "[]")
        return
    pad, close = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    members = value.values() if isinstance(value, dict) else value
    if _SCALARS.issuperset(map(type, members)):
        text = "".join(_flat_encoder(depth + 1)(value, 0))
        out += (text[0], pad, text[1:-1], close, text[-1])
        return
    sep = pad
    if isinstance(value, dict):
        out.append("{")
        for key in sorted(value):
            out += (sep, _key(key), ": ")
            _encode(value[key], depth + 1, out)
            sep = "," + pad
        out += (close, "}")
    else:
        out.append("[")
        for member in value:
            out.append(sep)
            _encode(member, depth + 1, out)
            sep = "," + pad
        out += (close, "]")


def _key(key: Any) -> str:
    """A dict key as written; the C encoder turns a key that is not a
    string into one (``1`` into ``"1"``) as ``json.dumps`` does."""
    if isinstance(key, str):
        return encode_basestring(key)
    return "".join(_flat_encoder(0)({key: 0}, 0))[1:-len(": 0}")]


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
