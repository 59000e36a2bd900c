"""How the cost of one acquisition grows with unrelated parts of the language.

The README's alice/bob speakers are placed on a free language padded with
K unrelated objects ``z0 … z{K-1}``, joined in pairs by K/2 edges
``c{i}: z{2i} → z{2i+1}``, each with two elements. One event of each kind
is then timed, best of 15 runs:

* ``example``: bob learns ``cat`` from alice's witness ``cleo``;
* ``merged``: alice learns ``cat`` again, gluing ``cleo`` onto ``tom``;
* ``paraphrasis``: bob learns ``cat`` from alice's explanation of it by
  ``feline`` and ``black``;
* ``paraphrasis+read``: the same paraphrasis, then the first read of the
  composition table of bob's grown language, which a later paraphrasis
  by that learner reads.

None of these events touches a padding object, so an event that costs
what it writes takes the same time at every K. Run it from the root of
the repository:

    PYTHONPATH=src python tests/padding_probe.py 0 400 3200

It prints the per-event milliseconds for each K.
"""

from __future__ import annotations

import sys
from time import perf_counter

from fiblex import (
    CatFunctor,
    Explanation,
    SetFunctor,
    Speaker,
    acquire_by_example,
    acquire_by_paraphrasis,
    discrete_category,
    free_category,
    opposite,
    quiver_from_edges,
)
from fiblex.speaker import acquire_by_example_merged

WORDS = ["cat", "feline", "black"]
REPEATS = 15


def padded_speakers(k: int) -> tuple[Speaker, Speaker]:
    """alice and bob on the README's language padded with ``k`` objects."""
    pads = [f"z{i}" for i in range(k)]
    edges = [(f"c{i}", pads[2 * i], pads[2 * i + 1]) for i in range(k // 2)]
    lang = free_category(quiver_from_edges(WORDS + pads, edges))
    base = opposite(lang)
    padding = {z: [f"{z}a", f"{z}b"] for z in pads}

    def speaker(name: str, fibres: dict) -> Speaker:
        value = {o: frozenset(fibres.get(o, padding.get(o, ()))) for o in lang.objects}
        # the meaning is contravariant: an edge sends each element over its
        # target to the element over its source with the same last letter
        action = {
            m: {x: x if base.is_identity(m) else lang.src[m] + x[-1] for x in value[lang.tgt[m]]}
            for m in lang.morphisms
        }
        return Speaker(name, lang, SetFunctor(base, value, action))

    alice = speaker("alice", {"cat": ["cleo"], "feline": ["felix"], "black": ["nero"]})
    bob = speaker("bob", {"feline": ["tiger", "lynx"], "black": ["noir"]})
    return alice, bob


def explanation(lang) -> Explanation:
    """alice's explanation of ``cat`` by ``feline`` and ``black``."""
    shape = discrete_category(["a1", "a2"])
    diagram = CatFunctor(shape, lang, {"a1": "feline", "a2": "black"},
                         {"id_a1": "id_feline", "id_a2": "id_black"})
    return Explanation(shape, diagram, "cat", {("felix", "nero"): "cleo"})


def events(k: int) -> dict:
    """Each probed event at padding ``k``, as a function that runs it once."""
    alice, bob = padded_speakers(k)
    expl = explanation(alice.language)
    return {
        "example": lambda: acquire_by_example(bob, "cat", ["cleo"], teacher=alice, event_id="e"),
        "merged": lambda: acquire_by_example_merged(alice, "cat", ["tom"], {"cleo": "tom"},
                                                    event_id="e"),
        "paraphrasis": lambda: acquire_by_paraphrasis(alice, bob, "cat", expl, event_id="e"),
        "paraphrasis+read": lambda: acquire_by_paraphrasis(
            alice, bob, "cat", expl, event_id="e")[0].language.compose,
    }


def best_ms(run) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        run()
        best = min(best, perf_counter() - start)
    return best * 1000


def main(argv: list[str]) -> None:
    sizes = [int(a) for a in argv] or [0, 400, 3200]
    widths = {name: max(12, len(name)) for name in events(0)}
    print(f"{'K':>6} " + " ".join(f"{name:>{w}}" for name, w in widths.items()))
    for k in sizes:
        runs = events(k)
        print(f"{k:>6} " + " ".join(f"{best_ms(runs[name]):>{w}.3f}" for name, w in widths.items()))


if __name__ == "__main__":
    main(sys.argv[1:])
