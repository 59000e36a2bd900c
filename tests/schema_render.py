"""``scenarios/schema.json`` as a rendering of the loader's rule table.

The rule table in ``fiblex.scenario`` is the one source of what a scenario
document may hold: the loader's key and type checks are compiled from
it, and this module renders it as a JSON Schema (draft-07). A declaration
with kinds becomes one ``if``/``then`` row per kind. After the table
changes, write the file again with

    PYTHONPATH=src python tests/schema_render.py > scenarios/schema.json

and ``test_load_rules.py`` checks that the two agree.
"""

import json

from fiblex import scenario

# the rule table's integers take a float with no fractional part, as "integer" does
_NAMES = {str: "string", int: "integer", float: "integer", bool: "boolean", type(None): "null",
          list: "array", dict: "object"}


def render(t) -> dict:
    """The JSON Schema of the rule table's type ``t``."""
    if isinstance(t, scenario._Decl):
        return _declaration(t)
    names = sorted({_NAMES[kind] for kind in t.types})
    out = {"type": names[0] if len(names) == 1 else names}
    if t.of is not None:
        out["additionalProperties" if dict in t.types else "items"] = render(t.of)
    if t.size:
        out["minItems"] = out["maxItems"] = t.size
    return out


def _row(required: dict, optional: dict) -> dict:
    out = {"required": list(required)} if required else {}
    out["properties"] = {k: render(t) for k, t in {**required, **optional}.items()}
    return out


def _declaration(decl) -> dict:
    if decl.key is None:
        return {"type": "object", **_row(*decl.rows[None])}
    out = {"type": "object", "properties": {decl.key: {"enum": list(decl.rows)}}}
    if decl.default is None:
        out["required"] = [decl.key]
    out["allOf"] = [
        {"if": {"properties": {decl.key: {"const": kind}},
                **({} if kind == decl.default else {"required": [decl.key]})},
         "then": _row(*row)}
        for kind, row in decl.rows.items()
    ]
    return out


def schema() -> dict:
    return {"$schema": "http://json-schema.org/draft-07/schema#", "title": "Scenario file",
            **render(scenario._DOCUMENT)}


def schema_text() -> str:
    """The text of ``scenarios/schema.json``."""
    return json.dumps(schema(), indent=2) + "\n"


if __name__ == "__main__":
    print(schema_text(), end="")
