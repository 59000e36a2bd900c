"""DOT export of finite categories.

Identities are omitted from the drawing; morphisms flagged as adjoined
edges (collage words that use a quiver edge) render dashed, everything
else solid. Output is deterministic: nodes and arrows are sorted.
"""

from __future__ import annotations

from typing import Collection

from .fincat import FinCategory


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def category_dot(
    cat: FinCategory,
    name: str = "C",
    dashed: Collection[str] = (),
) -> str:
    dashed = set(dashed)
    lines = [f"digraph {_quote(name)} {{", "  rankdir=LR;", "  node [shape=ellipse];"]
    for o in sorted(cat.objects):
        lines.append(f"  {_quote(o)};")
    for m in sorted(cat.morphisms):
        if cat.is_identity(m):
            continue
        style = ', style=dashed' if m in dashed else ""
        lines.append(
            f"  {_quote(cat.src[m])} -> {_quote(cat.tgt[m])} [label={_quote(m)}{style}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
