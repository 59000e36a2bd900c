"""How the cost of loading a speaker grows with the parts of its language
that it does not know.

S speakers, each with one 2-element fibre over the word ``w``, are
declared on a language padded with K objects ``z0 … z{K-1}``, of one of
two kinds:

* ``discrete``: the discrete category on ``w`` and the padding;
* ``free``: the free category on them with K/2 edges
  ``c{i}: z{2i} → z{2i+1}``, for each of which every speaker writes the
  action table ``{}``, since a document must give one for every
  non-identity morphism.

Each document is loaded with ``load_scenario``, best of 15 runs, each
after a collection, as the benchmark times its set-up. A
speaker that costs what it knows costs the same at every K, whatever
the language itself costs to build. Run it from the root of the
repository:

    PYTHONPATH=src python tests/setup_probe.py 0 400 3200

It prints, per K and kind, the milliseconds to load the document with
S = 1 and with S = 20 speakers, and what each speaker after the first
adds: the difference over 19. The last column is the free language's
added speaker less the discrete one's, which is what its ``{}`` tables
cost to check and pass over.
"""

from __future__ import annotations

import gc
import sys
from time import perf_counter

from fiblex.scenario import load_scenario

KINDS = ("discrete", "free")
SPEAKERS = (1, 20)
REPEATS = 15


def document(kind: str, k: int, speakers: int) -> dict:
    """The scenario declaring ``speakers`` speakers on the ``kind`` language
    padded with ``k`` objects."""
    objects = ["w"] + [f"z{i}" for i in range(k)]
    if kind == "discrete":
        language, actions = {"kind": "discrete", "objects": objects}, {}
    else:
        edges = [{"id": f"c{i}", "src": f"z{2 * i}", "tgt": f"z{2 * i + 1}"}
                 for i in range(k // 2)]
        language = {"kind": "free", "vertices": objects, "edges": edges}
        actions = {e["id"]: {} for e in edges}
    return {
        "name": f"setup-{kind}-{k}",
        "categories": {"lang": language},
        "speakers": {f"s{j}": {"language": "lang", "fibres": {"w": [f"a{j}", f"b{j}"]},
                               "actions": actions}
                     for j in range(speakers)},
    }


def load_ms(doc: dict) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        gc.collect()
        start = perf_counter()
        load_scenario(doc)
        best = min(best, perf_counter() - start)
    return best * 1000


def main(argv: list[str]) -> None:
    sizes = [int(a) for a in argv] or [0, 400, 3200]
    columns = [f"{kind}:S={s}" for kind in KINDS for s in SPEAKERS]
    columns += [f"{kind}:added" for kind in KINDS] + ["tables"]
    print(f"{'K':>6} " + " ".join(f"{c:>12}" for c in columns))
    for k in sizes:
        ms = {(kind, s): load_ms(document(kind, k, s)) for kind in KINDS for s in SPEAKERS}
        added = {kind: (ms[kind, SPEAKERS[1]] - ms[kind, SPEAKERS[0]]) / (SPEAKERS[1] - 1)
                 for kind in KINDS}
        row = [ms[kind, s] for kind in KINDS for s in SPEAKERS]
        row += [added[kind] for kind in KINDS] + [added["free"] - added["discrete"]]
        print(f"{k:>6} " + " ".join(f"{x:>12.3f}" for x in row))


if __name__ == "__main__":
    main(sys.argv[1:])
