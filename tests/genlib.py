"""Seeded random instance generators shared across the test suite.

Base categories are free categories on random acyclic quivers (plus the
occasional discrete category), so functoriality of generated data is
guaranteed by construction: actions are chosen freely on edges and
extended along path decompositions. Two small categories with relations,
one with an idempotent and one with an isomorphism, carry random
functors built to respect them.
"""

import random

from fiblex.collage import free_category
from fiblex.fincat import (
    FinCategory,
    SetFunctor,
    compose_table,
    discrete_category,
    opposite,
    quiver_from_edges,
    terminal_category,
)


def opposite_from_tables(cat):
    """The opposite category built from the raw tables, bypassing the
    opposite that ``fiblex.fincat.opposite`` caches with each category."""
    return FinCategory(
        objects=cat.objects,
        morphisms=cat.morphisms,
        src=cat.tgt,
        tgt=cat.src,
        identity=cat.identity,
        compose={(g, f): x for (f, g), x in cat.compose.items()},
        closed=cat.closed,
    )


def random_base(
    rng: random.Random,
    max_vertices: int = 4,
    max_edges: int = 5,
    max_morphisms: int | None = None,
):
    """A random small category plus the edge decomposition of each morphism."""
    while True:
        n = rng.randint(1, max_vertices)
        vertices = [f"L{i}" for i in range(n)]
        if rng.random() < 0.15:
            cat = discrete_category(vertices)
            return cat, {m: () for m in cat.morphisms}
        edges = []
        budget = rng.randint(0, max_edges)
        k = 0
        for _ in range(budget):
            i = rng.randrange(n)
            j = rng.randrange(n)
            if i == j:
                continue
            if i > j:
                i, j = j, i  # edges go up the vertex order: acyclic
            edges.append((f"e{k}", vertices[i], vertices[j]))
            k += 1
        cat = free_category(quiver_from_edges(vertices, edges))
        if max_morphisms is None or len(cat.morphisms) <= max_morphisms:
            return cat, cat.paths


def free_category_by_paths(q, bound: int | None = None):
    """Free category on a quiver by direct path enumeration, plus the edge
    path behind each morphism: an oracle independent of the collage.

    Paths are found breadth first and composed by concatenation; the
    path ``(e1, e2)`` is named ``e2∘e1``. Paths longer than ``bound``
    are cut off, and then the category is closed only when none were.
    The quiver must be acyclic when no bound is given.
    """
    paths: dict[str, tuple[str, ...]] = {}
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    for v in sorted(q.vertices):
        paths[f"id_{v}"] = ()
        src[f"id_{v}"] = tgt[f"id_{v}"] = v
    frontier = [((), v, v) for v in sorted(q.vertices)]
    nxt: list = []
    length = 0
    while frontier:
        nxt = []
        for path, s, t in frontier:
            for e in sorted(q.edges):
                if q.esrc[e] == t:
                    nxt.append((path + (e,), s, q.etgt[e]))
        length += 1
        if bound is not None and length > bound:
            break
        for path, s, t in nxt:
            pid = "∘".join(reversed(path))
            paths[pid] = path
            src[pid] = s
            tgt[pid] = t
        frontier = nxt

    by_path = {(src[m], path): m for m, path in paths.items()}
    compose = {}
    for f, fpath in paths.items():
        for g, gpath in paths.items():
            if tgt[f] == src[g] and (src[f], fpath + gpath) in by_path:
                compose[(g, f)] = by_path[(src[f], fpath + gpath)]
    cat = FinCategory(
        objects=q.vertices,
        morphisms=frozenset(paths),
        src=src,
        tgt=tgt,
        identity={v: f"id_{v}" for v in q.vertices},
        compose=compose,
        closed=not nxt,
    )
    return cat, paths


def functor_on_free(quiver, value, edge_action):
    """The Set-valued functor on the free category of ``quiver`` with the
    given fibres and edge actions; composites act along their paths."""
    cat = free_category(quiver)
    action = {}
    for m, path in cat.paths.items():
        graph = {x: x for x in value[cat.src[m]]}
        for e in path:
            graph = {x: edge_action[e][y] for x, y in graph.items()}
        action[m] = graph
    return SetFunctor(base=cat, value=value, action=action)


def random_presheaf(
    rng: random.Random,
    base: FinCategory,
    paths: dict,
    max_elements: int = 3,
    allow_empty: bool = True,
) -> SetFunctor:
    """A random Set-valued functor on ``opposite(base)``.

    Emptiness must propagate forward along the base's arrows (a function
    into an empty set forces an empty source fibre), so the empty region
    is closed under reachability before actions are drawn.
    """
    forward: dict[str, set[str]] = {o: set() for o in base.objects}
    edge_ends: dict[str, tuple[str, str]] = {}
    for m, path in paths.items():
        if len(path) == 1:
            edge_ends[path[0]] = (base.src[m], base.tgt[m])
            forward[base.src[m]].add(base.tgt[m])

    empty: set[str] = set()
    if allow_empty:
        seeds = [o for o in sorted(base.objects) if rng.random() < 0.2]
        stack = list(seeds)
        while stack:
            o = stack.pop()
            if o in empty:
                continue
            empty.add(o)
            stack.extend(forward[o])

    value = {}
    for o in sorted(base.objects):
        value[o] = frozenset() if o in empty else frozenset(
            f"{o}x{i}" for i in range(rng.randint(1, max_elements))
        )

    edge_act: dict[str, dict[str, str]] = {}
    for e, (u, v) in edge_ends.items():
        dom = sorted(value[v])  # contravariant: action runs against the arrow
        cod = sorted(value[u])
        edge_act[e] = {x: rng.choice(cod) for x in dom} if dom else {}

    action: dict[str, dict[str, str]] = {}
    for m, path in paths.items():
        if not path:
            o = base.src[m]
            action[m] = {x: x for x in value[o]}
            continue
        graph = {}
        for x in value[base.tgt[m]]:
            out = x
            for e in reversed(path):
                out = edge_act[e][out]
            graph[x] = out
        action[m] = graph
    return SetFunctor(base=opposite(base), value=value, action=action)


def hom(cat: FinCategory, x: str, y: str) -> list[str]:
    """The morphisms from ``x`` to ``y``, sorted."""
    return sorted(m for m in cat.morphisms if cat.src[m] == x and cat.tgt[m] == y)


def generators_of(cat: FinCategory) -> list[str]:
    """Morphisms that are not composites of two non-identities."""
    composites = set()
    for (g, f), gf in cat.compose.items():
        if not cat.is_identity(g) and not cat.is_identity(f):
            composites.add(gf)
    return [m for m in cat.non_identities() if m not in composites]


def random_functor_between(rng: random.Random, dom: FinCategory, cod: FinCategory):
    """A random functor out of a freely presented category.

    Object images are resampled until every generator has a nonempty hom
    set to land in; the constant functor is the fallback. Generator
    images are free, composites follow by closure.
    """
    gens = generators_of(dom)
    omap = None
    for _ in range(30):
        candidate = {o: rng.choice(sorted(cod.objects)) for o in sorted(dom.objects)}
        if all(hom(cod, candidate[dom.src[m]], candidate[dom.tgt[m]]) for m in gens):
            omap = candidate
            break
    if omap is None:
        anchor = sorted(cod.objects)[0]
        omap = {o: anchor for o in dom.objects}

    mmap = {}
    for o in dom.objects:
        mmap[dom.identity[o]] = cod.identity[omap[o]]
    for m in gens:
        mmap[m] = rng.choice(hom(cod, omap[dom.src[m]], omap[dom.tgt[m]]))
    changed = True
    while changed:
        changed = False
        for (g, f), gf in dom.compose.items():
            if gf not in mmap and g in mmap and f in mmap:
                mmap[gf] = cod.compose[(mmap[g], mmap[f])]
                changed = True
    from fiblex.fincat import CatFunctor

    return CatFunctor(dom, cod, omap, mmap)


def legs(cone) -> dict:
    """The legs of a limit cone: onto each object of its ``order``, the
    projection of every apex tuple onto that object's component, as a graph."""
    return {o: {tup: tup[i] for tup in cone.apex} for i, o in enumerate(cone.order)}


def random_free_shape(rng: random.Random) -> FinCategory:
    """An explanation shape: the free category on a random quiver of 1-4
    vertices and 0-4 edges, half of them strung on a chain first. Mostly
    acyclic; now and then the edges are drawn freely, loops included, and
    the paths are cut at two edges."""
    n = rng.randint(1, 4)
    vertices = [f"a{i}" for i in range(n)]
    cyclic = rng.random() < 0.15
    edges = []
    if rng.random() < 0.5:
        edges = [(f"c{i}", vertices[i], vertices[i + 1]) for i in range(n - 1)]
    for k in range(rng.randint(0, 4 - len(edges))):
        i, j = rng.randrange(n), rng.randrange(n)
        if not cyclic:
            if i == j:
                continue
            i, j = min(i, j), max(i, j)
        edges.append((f"s{k}", vertices[i], vertices[j]))
    return free_category(quiver_from_edges(vertices, edges), bound=2 if cyclic else None)


def random_discrete_shape(rng: random.Random) -> FinCategory:
    """An explanation shape with no edges: the terminal category, or the
    discrete category on 2-4 objects."""
    if rng.random() < 0.3:
        return terminal_category("pt")
    return discrete_category(f"a{i}" for i in range(rng.randint(2, 4)))


def doubled(shape: FinCategory) -> FinCategory:
    """The free category on the quiver of a free shape with every edge
    ``e`` doubled by a parallel ``e'``, into which the shape embeds name
    for name; every path of two or more edges then has parallels."""
    edges = [(e, shape.src[e], shape.tgt[e]) for e, path in shape.paths.items() if len(path) == 1]
    return free_category(quiver_from_edges(shape.objects, edges + [
        (f"{e}'", s, t) for e, s, t in edges]))


def perturbed_diagram(rng: random.Random, diagram):
    """The diagram with one of its maps changed at random: a morphism sent
    to another morphism with the same endpoints (a composite of two or more
    edges of a free shape, when one has a choice of images), to any
    morphism or to nothing, or an object sent elsewhere. The result may
    still be a functor."""
    from fiblex.fincat import CatFunctor

    dom, cod = diagram.dom, diagram.cod
    omap, mmap = dict(diagram.omap), dict(diagram.mmap)
    how = rng.choice(["parallel", "parallel", "parallel", "any", "unmapped", "object"])
    m = rng.choice(sorted(dom.morphisms))
    if how == "parallel":
        homs = {a: hom(cod, omap[dom.src[a]], omap[dom.tgt[a]]) for a in sorted(dom.morphisms)}
        choices = [a for a, arrows in homs.items() if len(arrows) > 1]
        composites = [a for a in choices if len((dom.paths or {}).get(a, ())) > 1]
        m = rng.choice(composites or choices or sorted(homs))
        mmap[m] = rng.choice([f for f in homs[m] if f != mmap[m]] or homs[m])
    elif how == "any":
        mmap[m] = rng.choice(sorted(cod.morphisms))
    elif how == "unmapped":
        del mmap[m]
    else:
        omap[rng.choice(sorted(dom.objects))] = rng.choice(sorted(cod.objects) + ["nowhere"])
    return CatFunctor(dom, cod, omap, mmap)


def random_truncated_base(rng: random.Random):
    """A free category on a random quiver of 1-3 vertices whose edges are
    drawn freely, loops included, with its paths cut at 1-3 edges, plus
    the edge path of each morphism. The result is not closed whenever a
    cycle reaches past the bound."""
    n = rng.randint(1, 3)
    vertices = [f"L{i}" for i in range(n)]
    edges = [(f"e{k}", rng.choice(vertices), rng.choice(vertices))
             for k in range(rng.randint(1, 3))]
    cat = free_category(quiver_from_edges(vertices, edges), bound=rng.randint(1, 3))
    return cat, cat.paths


def broken_meaning(rng: random.Random, fun: SetFunctor) -> SetFunctor:
    """``fun`` with 1-3 random breaks: an element sent to another element
    of the target set or to a foreign one, an element or a whole action
    dropped, an object's value set dropped, or an extra element put into
    a value set. The result may still be a meaning."""
    value = dict(fun.value)
    action = {m: dict(graph) for m, graph in fun.action.items()}
    for _ in range(rng.randint(1, 3)):
        how = rng.choice(["image", "foreign", "drop-element", "drop-action", "drop-value",
                          "extra-element"])
        filled = [m for m in sorted(action) if action[m]]
        if how in ("image", "foreign", "drop-element") and filled:
            m = rng.choice(filled)
            x = rng.choice(sorted(action[m]))
            if how == "drop-element":
                del action[m][x]
            elif how == "foreign":
                action[m][x] = "foreign"
            else:
                action[m][x] = rng.choice(sorted(value.get(fun.base.tgt[m], ())) or ["foreign"])
        elif how == "drop-action" and action:
            del action[rng.choice(sorted(action))]
        elif how == "drop-value" and value:
            del value[rng.choice(sorted(value))]
        elif value:
            o = rng.choice(sorted(value))
            value[o] = value[o] | {f"{o}+"}
    return SetFunctor(base=fun.base, value=value, action=action)


def broken_at_a_composite(rng: random.Random, fun: SetFunctor, paths: dict) -> SetFunctor:
    """``fun``, a meaning on the opposite of a free language with the edge
    path of each morphism in ``paths``, with one element of one path of
    two or more edges sent to another element of its target set. Every
    action stays total and every identity the identity, so only a check
    of the composites can see the break; ``fun`` itself when no such
    path has a choice of image."""
    choices = [(m, x) for m, path in sorted(paths.items()) if len(path) >= 2
               for x in sorted(fun.action[m]) if len(fun.value[fun.base.tgt[m]]) > 1]
    if not choices:
        return fun
    m, x = rng.choice(choices)
    others = sorted(fun.value[fun.base.tgt[m]] - {fun.action[m][x]})
    action = {**fun.action, m: {**fun.action[m], x: rng.choice(others)}}
    return SetFunctor(base=fun.base, value=fun.value, action=action)


def random_speaker_data(rng: random.Random, fresh_object: bool = False):
    """Language, paths, and a presheaf; optionally guarantees an object
    with an empty fibre and no incident non-identity arrows."""
    base, paths = random_base(rng)
    fun = random_presheaf(rng, base, paths)
    if not fresh_object:
        return base, paths, fun
    isolated = [
        o
        for o in sorted(base.objects)
        if all(base.is_identity(m) or o not in (base.src[m], base.tgt[m]) for m in base.morphisms)
    ]
    if not isolated:
        return None
    word = rng.choice(isolated)
    value = dict(fun.value)
    value[word] = frozenset()
    action = {m: dict(g) for m, g in fun.action.items()}
    action[base.identity[word]] = {}
    return base, paths, SetFunctor(base=fun.base, value=value, action=action), word


def random_fibres(rng, objects, arrows):
    """Fibres of 1-3 elements, some emptied; emptiness is pushed back
    along ``(src, tgt)`` arrows, since nothing maps into an empty set."""
    empty = {o for o in objects if rng.random() < 0.1}
    while True:
        more = {s for s, t in arrows if t in empty} - empty
        if not more:
            break
        empty |= more
    return {
        o: frozenset() if o in empty else frozenset(f"{o}x{i}" for i in range(rng.randint(1, 3)))
        for o in objects
    }


def with_identities(src, tgt, after):
    """A composition table: identities compose trivially, and ``after``
    gives every other composite."""

    def glue(g, f):
        if g.startswith("id_"):
            return f
        return g if f.startswith("id_") else after[(g, f)]

    return compose_table(src, tgt, glue)


def idempotent_functor(rng):
    """An object with a non-identity idempotent e, and f: o -> t with f∘e."""
    src = {"id_o": "o", "id_t": "t", "e": "o", "f": "o", "fe": "o"}
    tgt = {"id_o": "o", "id_t": "t", "e": "o", "f": "t", "fe": "t"}
    after = {("e", "e"): "e", ("f", "e"): "fe", ("fe", "e"): "fe"}
    cat = FinCategory(
        objects={"o", "t"},
        morphisms=src,
        src=src,
        tgt=tgt,
        identity={"o": "id_o", "t": "id_t"},
        compose=with_identities(src, tgt, after),
    )
    value = random_fibres(rng, ["o", "t"], [("o", "t")])
    elems = sorted(value["o"])
    image = rng.sample(elems, rng.randint(1, len(elems))) if elems else []
    e = {x: x if x in image else rng.choice(image) for x in elems}
    f = {x: rng.choice(sorted(value["t"])) for x in elems}
    action = {"id_o": {x: x for x in elems}, "id_t": {y: y for y in value["t"]},
              "e": e, "f": f, "fe": {x: f[e[x]] for x in elems}}
    return SetFunctor(base=cat, value=value, action=action)


def iso_functor(rng):
    """A source component of two isomorphic objects a ⇄ b, with w: b -> c."""
    src = {"id_a": "a", "id_b": "b", "id_c": "c", "u": "a", "v": "b", "w": "b", "wu": "a"}
    tgt = {"id_a": "a", "id_b": "b", "id_c": "c", "u": "b", "v": "a", "w": "c", "wu": "c"}
    after = {("v", "u"): "id_a", ("u", "v"): "id_b", ("w", "u"): "wu", ("wu", "v"): "w"}
    cat = FinCategory(
        objects={"a", "b", "c"},
        morphisms=src,
        src=src,
        tgt=tgt,
        identity={"a": "id_a", "b": "id_b", "c": "id_c"},
        compose=with_identities(src, tgt, after),
    )
    value = random_fibres(rng, ["a", "c"], [("a", "c")])
    elems = sorted(value["a"])
    twins = [f"b{x}" for x in elems]
    rng.shuffle(twins)
    value["b"] = frozenset(twins)
    u = dict(zip(elems, twins))
    w = {y: rng.choice(sorted(value["c"])) for y in twins}
    action = {"id_a": {x: x for x in elems}, "id_b": {y: y for y in twins},
              "id_c": {z: z for z in value["c"]}, "u": u, "v": {y: x for x, y in u.items()},
              "w": w, "wu": {x: w[u[x]] for x in elems}}
    return SetFunctor(base=cat, value=value, action=action)
