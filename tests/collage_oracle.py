"""Full-enumeration collage and extension: the oracle for the delta path.

``full_collage`` enumerates every normal-form word, the base morphisms as
0-edge words included, and glues every composable pair of words;
``full_extension`` computes the action of every word, base words
included, along its parts. ``fiblex.collage`` builds only the words with
edges and glues only the pairs that involve one; the two must agree on
every name, table, action and error.
"""

from typing import Callable, Optional

from fiblex.collage import Word
from fiblex.errors import IdentifierClash, MissingEdgeAction, UnboundedHomSet, VertexMismatch
from fiblex.fincat import FinCategory, Quiver, SetFunctor, compose_table


def full_collage_is_finite(cat: FinCategory, quiver: Quiver) -> bool:
    if quiver.vertices != cat.objects:
        raise VertexMismatch("quiver must share the category's objects")
    arcs: dict[str, set[str]] = {v: set() for v in cat.objects}
    for m in cat.non_identities():
        arcs[cat.src[m]].add(cat.tgt[m])
    for e in quiver.edges:
        arcs[quiver.esrc[e]].add(quiver.etgt[e])

    def reaches(start: str, goal: str) -> bool:
        seen, stack = set(), [start]
        while stack:
            v = stack.pop()
            if v == goal:
                return True
            if v in seen:
                continue
            seen.add(v)
            stack.extend(arcs[v])
        return False

    return not any(reaches(quiver.etgt[e], quiver.esrc[e]) for e in quiver.edges)


def full_collage(
    cat: FinCategory, quiver: Quiver, bound: Optional[int], name: Callable[[Word], str]
) -> tuple[dict[str, Word], FinCategory]:
    """Every word of the collage, by name, and the collage category."""
    if not full_collage_is_finite(cat, quiver) and bound is None:
        raise UnboundedHomSet("collage has unboundedly long words; an edge bound is required")

    out_edges: dict[str, list[str]] = {v: [] for v in cat.objects}
    for q in sorted(quiver.edges):
        out_edges[quiver.esrc[q]].append(q)
    out_bases: dict[str, list[str]] = {o: [] for o in cat.objects}
    for c in sorted(cat.morphisms):
        out_bases[cat.src[c]].append(c)

    words: dict[str, Word] = {}
    by_key: dict[tuple[tuple[str, ...], tuple[str, ...]], str] = {}

    def add(w: Word) -> None:
        wid = name(w)
        if wid in words:
            raise IdentifierClash(f"word name collision at {wid}")
        words[wid] = w
        by_key[(w.bases, w.edges)] = wid

    level = [
        Word(bases=(m,), edges=(), src=cat.src[m], tgt=cat.tgt[m]) for m in sorted(cat.morphisms)
    ]
    for w in level:
        add(w)
    edge_count = 0
    truncated = False
    while level:
        nxt = [
            Word(bases=w.bases + (c,), edges=w.edges + (q,), src=w.src, tgt=cat.tgt[c])
            for w in level
            for q in out_edges[w.tgt]
            for c in out_bases[quiver.etgt[q]]
        ]
        if not nxt:
            break
        edge_count += 1
        if bound is not None and edge_count > bound:
            truncated = True
            break
        for w in nxt:
            add(w)
        level = nxt

    src = {wid: w.src for wid, w in words.items()}
    tgt = {wid: w.tgt for wid, w in words.items()}

    def glue(g_id: str, f_id: str) -> Optional[str]:
        f, g = words[f_id], words[g_id]
        if bound is not None and len(f.edges) + len(g.edges) > bound:
            return None
        junction = cat.compose_pair(g.bases[0], f.bases[-1])
        return by_key[(f.bases[:-1] + (junction,) + g.bases[1:], f.edges + g.edges)]

    category = FinCategory(
        objects=cat.objects,
        morphisms=frozenset(words),
        src=src,
        tgt=tgt,
        identity={o: cat.identity[o] for o in cat.objects},
        compose=compose_table(src, tgt, glue),
        closed=not truncated,
    )
    return words, category


def full_extension(
    fun: SetFunctor,
    quiver: Quiver,
    words: dict[str, Word],
    category: FinCategory,
    edge_actions,
) -> SetFunctor:
    """The functor on the collage that acts by each word's parts in order."""
    missing = sorted(set(quiver.edges) - set(edge_actions))
    if missing:
        raise MissingEdgeAction(f"no action for edges: {', '.join(missing)}")
    action: dict[str, dict[str, str]] = {}
    for wid, word in words.items():
        graph = {x: x for x in fun.value[fun.base.src[word.bases[0]]]}
        for kind, ident in word.parts():
            step = fun.action[ident] if kind == "base" else edge_actions[ident]
            graph = {x: step[y] for x, y in graph.items()}
        action[wid] = graph
    return SetFunctor(base=category, value=dict(fun.value), action=action)
