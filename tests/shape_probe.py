"""How the cost of an explanation's shape grows with its legs.

For k legs, three free shapes are built the way a ``kind: free``
declaration builds them:

* ``span``: a centre ``c`` with k edges ``s{i}: c → a{i}``;
* ``cospan``: k edges ``s{i}: a{i} → c``;
* ``chain``: k edges ``s{i}: a{i} → a{i+1}``, so k + 1 objects and a
  path between every two of them.

A limit over a free shape is planned over its edge base, the opposite of
its edges (``speaker._restrict``): a span's edge base has a root per
leg, joined at the centre, a cospan's one root with k arrows out of it,
and a chain's one root at the end of a k-arrow walk. Run it from the
root of the repository:

    PYTHONPATH=src python tests/shape_probe.py 2 8 32 128

It prints, per k, the milliseconds to build each shape and to plan the
limit over its edge base, each the best of N runs.
"""

from __future__ import annotations

import sys
from time import perf_counter

from fiblex.collage import free_category
from fiblex.fincat import (
    CatFunctor,
    FinCategory,
    SetFunctor,
    _derived,
    _plan_limit,
    opposite,
    quiver_from_edges,
)
from fiblex.speaker import Speaker, _restrict

KINDS = ("span", "cospan", "chain")
N = 25


def shape(kind: str, k: int) -> FinCategory:
    """The free ``kind`` shape with ``k`` legs."""
    if kind == "chain":
        vertices = [f"a{i}" for i in range(k + 1)]
        edges = [(f"s{i}", f"a{i}", f"a{i + 1}") for i in range(k)]
    else:
        vertices = ["c"] + [f"a{i}" for i in range(k)]
        edges = [(f"s{i}", "c", f"a{i}") if kind == "span" else (f"s{i}", f"a{i}", "c")
                 for i in range(k)]
    return free_category(quiver_from_edges(vertices, edges))


def edge_base(shape: FinCategory) -> FinCategory:
    """The base that a limit over the free ``shape`` is planned on, as the
    identity diagram of a speaker with no elements restricts it."""
    speaker = _derived(Speaker, name="probe", language=shape,
                       meaning=_derived(SetFunctor, base=opposite(shape), value={}, action={}))
    diagram = _derived(CatFunctor, dom=shape, cod=shape, omap={o: o for o in shape.objects},
                       mmap={m: m for m in shape.morphisms})
    return _restrict(speaker, diagram, edges=True).base


def best_ms(run) -> float:
    best = float("inf")
    for _ in range(N):
        start = perf_counter()
        run()
        best = min(best, perf_counter() - start)
    return best * 1000


def main(argv: list[str]) -> None:
    legs = [int(a) for a in argv] or [2, 8, 32, 128]
    columns = [f"{kind}:{step}" for kind in KINDS for step in ("build", "plan")]
    print(f"{'k':>5} " + " ".join(f"{c:>12}" for c in columns))
    for k in legs:
        row = []
        for kind in KINDS:
            base = edge_base(shape(kind, k))
            row += [best_ms(lambda: shape(kind, k)), best_ms(lambda: _plan_limit(base))]
        print(f"{k:>5} " + " ".join(f"{x:>12.3f}" for x in row))


if __name__ == "__main__":
    main(sys.argv[1:])
