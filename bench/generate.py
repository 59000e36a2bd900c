"""Seeded scenario documents for the fiblex benchmark.

``generate(workload, seed)`` returns a scenario document (plain JSON data,
the only thing the engine sees) together with the sizes that describe it.
Speakers are functorial by construction: actions are chosen on generating
edges and extended along paths. Every event carries scenario assertions
for its expected outcome, target-fibre size and apex size; those values
are worked out here from the generated data alone, without the engine.

Each workload has a fixed event schedule (the mix of shapes, legs and
fibre sizes is the same for every seed); the seed chooses the languages,
the actions, the diagram images and the order of events. Costs per event
therefore repeat across seeds while the inputs do not.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("explain-limits", "learn-paraphrasis", "learn-example")


# ---------------------------------------------------------------------------
# free categories on acyclic quivers


class FreeLanguage:
    """A free category on an acyclic quiver, named the way the engine's
    ``kind: free`` declarations name it: an edge path ``(e1, e2)`` is the
    morphism ``e2∘e1`` and the empty path at ``v`` is ``id_v``."""

    def __init__(self, vertices: list[str], edges: list[tuple[str, str, str]]):
        self.vertices = vertices
        self.edges = edges
        self.paths: list[tuple[str, str, tuple[str, ...]]] = []  # (src, tgt, edge path)
        frontier = [(v, v, ()) for v in vertices]
        while frontier:
            nxt = []
            for s, t, path in frontier:
                for e, es, et in edges:
                    if es == t:
                        nxt.append((s, et, path + (e,)))
            self.paths.extend(nxt)
            frontier = nxt

    @staticmethod
    def name(src: str, path: tuple[str, ...]) -> str:
        return "∘".join(reversed(path)) if path else f"id_{src}"

    def decl(self) -> dict:
        return {
            "kind": "free",
            "vertices": list(self.vertices),
            "edges": [{"id": e, "src": s, "tgt": t} for e, s, t in self.edges],
        }

    def morphism_count(self) -> int:
        return len(self.vertices) + len(self.paths)

    def out_of(self, v: str) -> list[tuple[str, tuple[str, ...]]]:
        """Morphisms out of ``v`` as ``(tgt, path)``, identity first."""
        return [(v, ())] + [(t, p) for s, t, p in self.paths if s == v]

    def into(self, v: str) -> list[tuple[str, tuple[str, ...]]]:
        """Morphisms into ``v`` as ``(src, path)``, identity first."""
        return [(v, ())] + [(s, p) for s, t, p in self.paths if t == v]

    def hom_count(self, x: str, y: str) -> int:
        return int(x == y) + sum(1 for s, t, _ in self.paths if s == x and t == y)


def chain_language(n: int) -> FreeLanguage:
    vertices = [f"C{i}" for i in range(n)]
    return FreeLanguage(vertices, [(f"c{i}", vertices[i], vertices[i + 1]) for i in range(n - 1)])


def dag_language(rng: random.Random, n: int, morphisms: int, sinks: int) -> FreeLanguage:
    """A free category on a random acyclic quiver with exactly ``n``
    objects, ``morphisms`` morphisms and at least ``sinks`` objects with no
    outgoing edge; edges only go up the vertex order."""
    vertices = [f"L{i}" for i in range(n)]
    while True:
        pairs = set()
        for _ in range(rng.randint(n - 2, 2 * n)):
            i, j = sorted(rng.sample(range(n), 2))
            pairs.add((i, j))
        edges = [(f"e{k}", vertices[i], vertices[j]) for k, (i, j) in enumerate(sorted(pairs))]
        lang = FreeLanguage(vertices, edges)
        if lang.morphism_count() == morphisms and len(sink_objects(lang)) >= sinks:
            return lang


def sink_objects(lang: FreeLanguage) -> list[str]:
    sources = {s for _, s, _ in lang.edges}
    return [v for v in lang.vertices if v not in sources]


def speaker_decl(rng: random.Random, lang_name: str, lang: FreeLanguage,
                 fibres: dict[str, list[str]]) -> tuple[dict, dict]:
    """A speaker over a free language with random edge actions, extended
    along paths. Returns the declaration and the action of every
    morphism, keyed by ``(src, path)`` (a map from the fibre over the
    morphism's target to the fibre over its source)."""
    edge_act = {}
    for e, s, t in lang.edges:
        cod = fibres[s]
        edge_act[e] = {x: rng.choice(cod) for x in fibres[t]}
    action = {}
    for s, t, path in lang.paths:
        graph = {}
        for x in fibres[t]:
            y = x
            for e in reversed(path):
                y = edge_act[e][y]
            graph[x] = y
        action[(s, path)] = graph
    decl = {
        "language": lang_name,
        "fibres": {o: sorted(v) for o, v in fibres.items() if v},
        "actions": {lang.name(s, p): dict(sorted(g.items())) for (s, p), g in action.items()},
    }
    return decl, action


# ---------------------------------------------------------------------------
# explain-limits: validate-explanation reads


# (shape, legs, fibre size) per event: 12 cheap limits, a middle block of
# 12 that holds the median and a top block of 6 that holds the 90th
# percentile, so that both percentiles fall inside a block of equally
# sized limits.
LIMIT_SCHEDULE = (
    [("chain", 2, 2), ("span", 3, 2), ("cospan", 4, 2), ("chain", 3, 3),
     ("span", 2, 3), ("cospan", 4, 3), ("chain", 4, 2), ("span", 4, 3),
     ("cospan", 2, 2), ("chain", 4, 3), ("span", 3, 3), ("cospan", 3, 2)]
    + [(shape, 5, 5) for shape in ("chain", "span", "cospan")] * 4
    + [(shape, 8, 4) for shape in ("chain", "span", "cospan")] * 2
)
LIMIT_FIBRE_SIZES = (2, 3, 4, 5)


def _explain_limits(rng: random.Random) -> tuple[dict, dict]:
    languages = {"chain": chain_language(10), "dag": dag_language(rng, 10, 40, 1)}
    doc = {"name": "explain-limits", "categories": {}, "speakers": {},
           "explanations": {}, "events": [], "assertions": []}
    actions = {}
    for lname, lang in languages.items():
        doc["categories"][lname] = lang.decl()
        for n in LIMIT_FIBRE_SIZES:
            fibres = {o: [f"{o}x{i}" for i in range(n)] for o in lang.vertices}
            sname = f"{lname}-{n}"
            doc["speakers"][sname], actions[sname] = speaker_decl(rng, lname, lang, fibres)

    schedule = list(LIMIT_SCHEDULE)
    rng.shuffle(schedule)
    candidates = apex_total = 0
    for i, (shape, k, n) in enumerate(schedule):
        lname = rng.choice(sorted(languages))
        lang, sname = languages[lname], f"{lname}-{n}"
        decl, apex = _limit_explanation(rng, lang, lname, shape, k, actions[sname], n)
        eid, xname = f"ev{i:03d}", f"x{i:03d}"
        doc["explanations"][xname] = decl
        doc["events"].append({"event": "validate-explanation", "id": eid,
                              "speaker": sname, "explanation": xname})
        doc["assertions"] += [
            {"assert": "explanation", "name": f"{eid}:explanation", "event": eid,
             "valid": True, "exact": apex == n, "vacuous": apex == 0, "apex-size": apex},
            {"assert": "fibre-size", "name": f"{eid}:target-fibre", "speaker": sname,
             "object": decl["target"], "equals": n},
        ]
        candidates += n ** k
        apex_total += apex
    sizes = {
        "events": len(schedule),
        "speakers": len(doc["speakers"]),
        "objects": sum(len(lang.vertices) for lang in languages.values()),
        "morphisms": sum(lang.morphism_count() for lang in languages.values()),
        "candidates": candidates,
        "apex": apex_total,
    }
    return doc, sizes


def _limit_explanation(rng, lang: FreeLanguage, lname: str, shape: str, k: int,
                       action: dict, n: int) -> tuple[dict, int]:
    """A ``shape`` diagram with ``k`` objects into ``lang`` and the size
    of its limit against a speaker with ``n`` elements in every fibre.

    In the limit the element at a shape arrow's target determines the
    one at its source (meanings are contravariant), so a chain is fixed
    by its last object and a cospan by its apex: both have ``n`` tuples.
    A span's legs must agree at its centre: the apex counts, for each
    centre element, the product of its preimage sizes.
    """
    vertices = lang.vertices
    if shape == "chain":
        objs = [f"a{i}" for i in range(k)]
        arrows = [(f"s{i}", objs[i], objs[i + 1]) for i in range(k - 1)]
        images = {}
        omap = {objs[0]: rng.choice(vertices)}
        for s, a, b in arrows:
            omap[b], path = rng.choice(lang.out_of(omap[a]))
            images[s] = (omap[a], path)
        apex = n
    elif shape == "cospan":
        centre = rng.choice(vertices)
        objs = ["c"] + [f"a{i}" for i in range(1, k)]
        omap, images, arrows = {"c": centre}, {}, []
        for a in objs[1:]:
            omap[a], path = rng.choice(lang.into(centre))
            images[f"s{a[1:]}"] = (omap[a], path)
            arrows.append((f"s{a[1:]}", a, "c"))
        apex = n
    else:
        # redraw until the apex is at most 2n, so that every span keeps
        # candidates far above apex and no report lists thousands of tuples
        apex = 2 * n + 1
        while apex > 2 * n:
            centre = rng.choice(vertices)
            objs = ["c"] + [f"a{i}" for i in range(1, k)]
            omap, images, arrows = {"c": centre}, {}, []
            for a in objs[1:]:
                omap[a], path = rng.choice(lang.out_of(centre))
                images[f"s{a[1:]}"] = (centre, path)
                arrows.append((f"s{a[1:]}", "c", a))
            apex = 0
            for z in range(n):
                count = 1
                for s, _, a in arrows:
                    path = images[s][1]
                    image = [action[(centre, path)][x] if path else x
                             for x in (f"{omap[a]}x{i}" for i in range(n))]
                    count *= image.count(f"{centre}x{z}")
                apex += count

    # composites of shape arrows (only chains have any) map to concatenated paths
    mmap = {}
    for i, (s, _, _) in enumerate(arrows):
        src, path = images[s]
        run = [s]
        mmap[s] = lang.name(src, path)
        if shape != "chain":
            continue
        for s2, _, _ in arrows[i + 1:]:
            run.append(s2)
            path = path + images[s2][1]
            mmap["∘".join(reversed(run))] = lang.name(src, path)
    decl = {
        "language": lname,
        "target": rng.choice(vertices),
        "shape": {"kind": "free", "vertices": objs,
                  "edges": [{"id": s, "src": a, "tgt": b} for s, a, b in arrows]},
        "diagram": omap,
        "diagram_morphisms": mmap,
    }
    return decl, apex


# ---------------------------------------------------------------------------
# learn-paraphrasis: paraphrasis writes over a pregroup language


NOUNS = [f"n{i}" for i in range(12)]
SENTENCE_PHRASES = 16
# (legs, learner fibre size, learns anything): median in the middle block,
# 90th percentile in the top block.
PARAPHRASIS_SCHEDULE = (
    [(2, 2, False), (5, 2, False), (2, 2, True), (3, 2, True),
     (2, 2, True), (3, 2, True), (2, 2, True), (3, 2, True)]
    + [(3, 3, True)] * 9
    + [(4, 3, True)] * 3
)
# transitive sentences share reduced types when they share a noun; the
# draw is repeated until the language has exactly this many objects
PREGROUP_OBJECTS = 48


def _pregroup_language(rng: random.Random) -> tuple[dict, list[str], list[str]]:
    """A pregroup declaration whose phrases are the bare nouns plus
    transitive sentences ``n_i n_i^r s n_j^l n_j``. Returns it with its
    objects and non-identity morphisms, named as reduction categories
    name them: a sentence reduces by contracting either end, then to ``s``."""
    while True:
        pairs = set()
        while len(pairs) < SENTENCE_PHRASES:
            pairs.add(tuple(rng.sample(NOUNS, 2)))
        subjects, complements = {i for i, _ in pairs}, {j for _, j in pairs}
        if len(NOUNS) + 1 + len(pairs) + len(subjects) + len(complements) == PREGROUP_OBJECTS:
            break
    objects, arrows = set(NOUNS) | {"s"}, set()
    lexicon = {f"thing-{n}": [n] for n in NOUNS}
    phrases = list(NOUNS)
    for i, j in sorted(pairs):
        whole, left, right = f"{i} {i}^r s {j}^l {j}", f"s {j}^l {j}", f"{i} {i}^r s"
        phrases.append(whole)
        lexicon[f"verb-{i}-{j}"] = [f"{i}^r s {j}^l"]
        objects |= {whole, left, right}
        arrows |= {(whole, left), (whole, right), (whole, "s"), (left, "s"), (right, "s")}
    decl = {"kind": "pregroup", "basics": NOUNS + ["s"], "sentence": "s",
            "lexicon": lexicon, "phrases": phrases}
    return decl, sorted(objects), sorted(f"{t}→{u}" for t, u in arrows)


def _learn_paraphrasis(rng: random.Random) -> tuple[dict, dict]:
    lang_decl, objects, arrows = _pregroup_language(rng)
    no_action = {m: {} for m in arrows}  # only nouns carry meaning
    doc = {"name": "learn-paraphrasis", "categories": {"lang": lang_decl},
           "speakers": {"teacher": {"language": "lang", "actions": no_action,
                                    "fibres": {n: [f"{n}t{i}" for i in range(2)] for n in NOUNS}}},
           "explanations": {}, "events": [], "assertions": []}
    morphisms = len(objects) + len(arrows)
    schedule = list(PARAPHRASIS_SCHEDULE)
    rng.shuffle(schedule)
    candidates = apex_total = 0
    for i, (k, n, learns) in enumerate(schedule):
        word, *legs = rng.sample(NOUNS, k + 1)
        learner, eid, xname = f"learner{i:02d}", f"ev{i:03d}", f"x{i:03d}"
        fibres = {o: [f"{o}x{j}" for j in range(n)] for o in NOUNS if o != word}
        if not learns:
            fibres[rng.choice(legs)] = []
        doc["speakers"][learner] = {"language": "lang", "actions": no_action, "fibres": fibres}
        doc["explanations"][xname] = {
            "language": "lang",
            "target": word,
            "shape": {"kind": "discrete", "objects": [f"a{j}" for j in range(k)]},
            "diagram": {f"a{j}": leg for j, leg in enumerate(legs)},
        }
        doc["events"].append({"event": "paraphrasis", "id": eid, "teacher": "teacher",
                              "learner": learner, "word": word, "explanation": xname})
        # a discrete shape's limit is the whole product of the leg fibres
        apex = math.prod(len(fibres[leg]) for leg in legs)
        gained = k if apex else 0
        doc["assertions"] += [
            {"assert": "outcome", "name": f"{eid}:outcome", "event": eid,
             "equals": "learned" if apex else "no-sense"},
            {"assert": "fibre-size", "name": f"{eid}:target-fibre", "speaker": learner,
             "object": word, "equals": apex},
            {"assert": "new-morphisms", "name": f"{eid}:legs", "event": eid, "count": gained},
            {"assert": "morphism-count", "name": f"{eid}:language", "speaker": learner,
             "equals": morphisms + gained},
        ]
        candidates += 2 ** k + apex  # the teacher's check plus the learner's limit
        apex_total += 2 ** k + apex
    sizes = {
        "events": len(schedule),
        "speakers": len(doc["speakers"]),
        "objects": len(objects),
        "morphisms": morphisms,
        "candidates": candidates,
        "apex": apex_total,
    }
    return doc, sizes


# ---------------------------------------------------------------------------
# learn-example: example then merged-example writes on sink words


# Per document: examples with few witnesses (the middle block, which
# holds the median), examples with twice as many (the top block, which
# holds the 90th percentile) and merged examples by learners of the
# middle block (the cheap block).
SMALL_EXAMPLES, LARGE_EXAMPLES, MERGED_EXAMPLES = 8, 3, 4
WITNESSES = [f"w{i}" for i in range(6)]
SMALL_WITNESSES = 3
MERGED_WITNESSES = [f"v{i}" for i in range(2)]
MAX_FIBRE = 6
# Morphisms of a learner's category of elements before and after an
# example with SMALL_WITNESSES witnesses, each within SLACK. They set the
# cost of the two grothendieck calls of every event.
LEARNER_TOTAL, GROWN_TOTAL, SLACK = 145, 310, 5


def _elements_total(lang: FreeLanguage, sizes: dict[str, int]) -> int:
    """Morphisms of the category of elements: one per language morphism
    and element over its target."""
    return sum(sizes.values()) + sum(sizes[t] for _, t, _ in lang.paths)


def _example_language(rng: random.Random):
    """A 12-object language, the sink learned by example, the sink learned
    by merged example and the learners' fibre sizes, drawn until the
    learners' categories of elements have the sizes set above."""
    while True:
        lang = dag_language(rng, 12, 60, 2)
        # the two sinks with the most morphisms into them carry the events
        word, merged_word = sorted(sink_objects(lang), key=lambda v: (-len(lang.into(v)), v))[:2]
        for _ in range(50):
            sizes = {o: rng.randint(1, MAX_FIBRE) for o in lang.vertices}
            sizes[word] = 0
            # an example over a sink adds one element per witness and
            # morphism into the sink
            grown = {o: sizes[o] + SMALL_WITNESSES * lang.hom_count(o, word)
                     for o in lang.vertices}
            if (abs(_elements_total(lang, sizes) - LEARNER_TOTAL) <= SLACK
                    and abs(_elements_total(lang, grown) - GROWN_TOTAL) <= SLACK):
                return lang, word, merged_word, sizes


def _learn_example(rng: random.Random) -> tuple[dict, dict]:
    lang, word, merged_word, sizes_of = _example_language(rng)
    teacher_fibres = {o: ["t"] for o in lang.vertices}
    teacher_fibres[word] = list(WITNESSES)
    teacher_fibres[merged_word] = list(MERGED_WITNESSES)
    teacher, _ = speaker_decl(rng, "lang", lang, teacher_fibres)
    doc = {"name": "learn-example", "categories": {"lang": lang.decl()},
           "speakers": {"teacher": teacher}, "events": [], "assertions": []}

    learners = [f"learner{i:02d}" for i in range(SMALL_EXAMPLES + LARGE_EXAMPLES)]
    for learner in learners:
        fibres = {o: [f"{o}x{j}" for j in range(sizes_of[o])] for o in lang.vertices}
        doc["speakers"][learner], _ = speaker_decl(rng, "lang", lang, fibres)

    # After an example over a sink its fibre is exactly the witnesses. A
    # merged example over a sink glues the old fibre onto the witnesses,
    # which again become the whole fibre.
    small = learners[:SMALL_EXAMPLES]
    events = [(learner, "example", word, WITNESSES[:SMALL_WITNESSES]) for learner in small]
    events += [(learner, "example", word, WITNESSES) for learner in learners[SMALL_EXAMPLES:]]
    events += [(learner, "merged-example", merged_word, MERGED_WITNESSES)
               for learner in sorted(rng.sample(small, MERGED_EXAMPLES))]
    for i, (learner, kind, target, witnesses) in enumerate(events):
        eid = f"ev{i:03d}"
        event = {"event": kind, "id": eid, "learner": learner, "teacher": "teacher",
                 "word": target, "witnesses": list(witnesses)}
        if kind == "merged-example":
            event["glue"] = {x: rng.choice(witnesses)
                             for x in doc["speakers"][learner]["fibres"][target]}
        doc["events"].append(event)
        doc["assertions"] += [
            {"assert": "outcome", "name": f"{eid}:outcome", "event": eid, "equals": "learned"},
            {"assert": "fibre-size", "name": f"{eid}:target-fibre", "speaker": learner,
             "object": target, "equals": len(witnesses)},
        ]
    doc["assertions"].append({"assert": "unchanged", "name": "teacher", "speaker": "teacher"})

    def grown_by(witnesses: int) -> int:
        return _elements_total(lang, {o: sizes_of[o] + witnesses * lang.hom_count(o, word)
                                      for o in lang.vertices})

    sizes = {
        "events": len(events),
        "speakers": len(doc["speakers"]),
        "objects": len(lang.vertices),
        "morphisms": lang.morphism_count(),
        "learner_total_morphisms": _elements_total(lang, sizes_of),
        "after_small_example": grown_by(SMALL_WITNESSES),
        "after_large_example": grown_by(len(WITNESSES)),
    }
    return doc, sizes


def generate(workload: str, seed: int) -> tuple[dict, dict]:
    """The scenario document for ``workload`` under ``seed``, and its sizes."""
    build = {
        "explain-limits": _explain_limits,
        "learn-paraphrasis": _learn_paraphrasis,
        "learn-example": _learn_example,
    }
    if workload not in build:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return build[workload](random.Random(f"{workload}:{seed}"))
