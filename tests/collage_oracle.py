"""Full-enumeration collage and extension: the oracle for the delta path.

``full_collage`` enumerates every normal-form word, the base morphisms as
0-edge words included, and glues every composable pair of words;
``full_extension`` computes the action of every word, base words
included, along its parts. ``fiblex.collage`` builds only the words with
edges and glues only the pairs that involve one; the two must agree on
every name, table, action and error. ``collage_is_finite_per_edge``
decides finiteness by one search per edge, which ``fp_collage`` decides
while it spells the words, refusing one that uses an edge twice;
``full_words`` lets the tests decide it without a
search, by the pigeonhole principle: with ``n`` edges, a word of ``n + 1``
edges uses some edge twice, and so runs round a cycle.

``glue_pair_by_pair`` is the composition-table glue that
``fiblex.collage`` used before it glued in three flat loops: one call per
pair, each rebuilding both spellings and composing the junction with
``compose_pair``; the two must write the same tables.

``normalize_word`` folds a raw alternating sequence of base morphisms and
edges into normal form, ``word_parts`` spells a word as such a sequence,
and ``canonical_functor`` is the embedding of the base into its collage;
the tests check the collage laws with them.
"""

from typing import Callable, Optional, Sequence

from fiblex.collage import CollageCategory, Word
from fiblex.errors import (
    BaseMismatch,
    IdentifierClash,
    MissingEdgeAction,
    NotComposable,
    UnboundedHomSet,
    VertexMismatch,
)
from fiblex.fincat import (
    CatFunctor,
    FinCategory,
    Quiver,
    SetFunctor,
    compose_table,
)


def collage_is_finite_per_edge(cat: FinCategory, quiver: Quiver) -> bool:
    """Finiteness by one depth-first search per edge, from the edge's
    target back to its source, along base morphisms and edges."""
    if quiver.vertices != cat.objects:
        raise VertexMismatch("quiver must share the category's objects")
    for e in sorted(quiver.edges):
        if quiver.esrc[e] not in cat.objects or quiver.etgt[e] not in cat.objects:
            raise VertexMismatch(
                f"quiver edge {e} runs from {quiver.esrc[e]} to {quiver.etgt[e]}, "
                "which are not both vertices"
            )
    out_edges: dict[str, list[str]] = {}
    for q in sorted(quiver.edges):
        out_edges.setdefault(quiver.esrc[q], []).append(q)

    def reaches(start: str, goal: str) -> bool:
        # identities and other endomorphisms are loops, which reach nothing new
        seen, stack = set(), [start]
        while stack:
            v = stack.pop()
            if v == goal:
                return True
            if v in seen:
                continue
            seen.add(v)
            stack.extend(cat.tgt[m] for m in cat.by_src.get(v, ()))
            stack.extend(quiver.etgt[e] for e in out_edges.get(v, ()))
        return False

    return not any(reaches(quiver.etgt[e], quiver.esrc[e]) for e in quiver.edges)


def full_collage(
    cat: FinCategory, quiver: Quiver, bound: Optional[int], name: Callable[[Word], str]
) -> tuple[dict[str, Word], FinCategory]:
    """Every word of the collage, by name, and the collage category.

    A quiver off the category's objects is refused first, then a truncated
    base (at its first missing composite), then an infinite collage
    without a bound."""
    finite = collage_is_finite_per_edge(cat, quiver)
    if not cat.closed:
        for g, f in cat.composable_pairs():
            cat.compose_pair(g, f)
    if not finite and bound is None:
        raise UnboundedHomSet("collage has unboundedly long words; an edge bound is required")
    words, truncated = full_words(cat, quiver, bound, name)
    by_key = {(w.bases, w.edges): wid for wid, w in words.items()}
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


def glue_pair_by_pair(
    cat: FinCategory, spellings: dict, bound: Optional[int]
) -> tuple[dict[tuple[str, str], str], dict[tuple[str, str], str]]:
    """The composition tables of a collage of ``cat`` with the words
    ``spellings`` and of its opposite, glued one pair at a time: copies
    of the base's tables, plus every pair in which one side is a word
    with edges, unless the two together have more than ``bound`` edges.
    The opposite's table starts as the base's table reversed, built here."""
    out_bases, into_bases = cat.by_src, cat.by_tgt
    by_key = {spelling: wid for wid, spelling in spellings.items()}
    new_out: dict[str, list[str]] = {}
    for wid, (bases, _) in spellings.items():
        new_out.setdefault(cat.src[bases[0]], []).append(wid)
    compose = dict(cat.compose)
    compose_op = {(g, f): x for (f, g), x in cat.compose.items()}

    def glue(g_id: str, f_id: str) -> None:
        f_bases, f_edges = spellings.get(f_id) or ((f_id,), ())
        g_bases, g_edges = spellings.get(g_id) or ((g_id,), ())
        if bound is not None and len(f_edges) + len(g_edges) > bound:
            return  # outside the truncation
        junction = cat.compose_pair(g_bases[0], f_bases[-1])
        gf = by_key[(f_bases[:-1] + (junction,) + g_bases[1:], f_edges + g_edges)]
        compose[(g_id, f_id)] = compose_op[(f_id, g_id)] = gf

    for f_id, (bases, _) in spellings.items():
        t = cat.tgt[bases[-1]]
        for g_id in out_bases.get(t, ()):
            glue(g_id, f_id)
        for g_id in new_out.get(t, ()):
            glue(g_id, f_id)
    for g_id, (bases, _) in spellings.items():
        for f_id in into_bases.get(cat.src[bases[0]], ()):
            glue(g_id, f_id)
    return compose, compose_op


def full_words(
    cat: FinCategory, quiver: Quiver, bound: Optional[int], name: Callable[[Word], str]
) -> tuple[dict[str, Word], bool]:
    """Every normal-form word of up to ``bound`` edges (all of them when
    ``bound`` is None, which must then be finitely many), by name, and
    whether a longer word was cut off."""
    out_edges: dict[str, list[str]] = {v: [] for v in cat.objects}
    for q in sorted(quiver.edges):
        out_edges[quiver.esrc[q]].append(q)
    out_bases: dict[str, list[str]] = {o: [] for o in cat.objects}
    for c in sorted(cat.morphisms):
        out_bases[cat.src[c]].append(c)

    words: dict[str, Word] = {}

    def add(w: Word) -> None:
        wid = name(w)
        if wid in words:
            raise IdentifierClash(f"word name collision at {wid}")
        words[wid] = w

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
    return words, truncated


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
        graph = {x: x for x in fun.fibre(fun.base.src[word.bases[0]])}
        for kind, ident in word_parts(word):
            step = fun.action.get(ident, {}) if kind == "base" else edge_actions[ident]
            graph = {x: step[y] for x, y in graph.items()}
        action[wid] = graph
    return SetFunctor(base=category, value=dict(fun.value), action=action)


def word_parts(word: Word) -> list[tuple[str, str]]:
    """The word as ``(kind, id)`` pairs, kinds alternating base/edge."""
    out: list[tuple[str, str]] = [("base", word.bases[0])]
    for q, c in zip(word.edges, word.bases[1:]):
        out.append(("edge", q))
        out.append(("base", c))
    return out


def canonical_functor(cat: FinCategory, collage: CollageCategory) -> CatFunctor:
    """The identity-on-objects embedding of the base into its collage."""
    if collage.base != cat:
        raise BaseMismatch("collage was not built from this category")
    return CatFunctor(
        dom=cat,
        cod=collage.category,
        omap={o: o for o in cat.objects},
        mmap={m: m for m in cat.morphisms},
    )


def normalize_word(
    cat: FinCategory,
    quiver: Quiver,
    parts: Sequence[tuple[str, str]],
    at: Optional[str] = None,
) -> Word:
    """Fold a raw alternating sequence of ``("base", id)`` and
    ``("edge", id)`` parts into normal form: adjacent base morphisms are
    composed and identities are inserted around edges where no base
    morphism was given. The empty sequence needs an anchor object."""
    if not parts:
        if at is None:
            raise NotComposable("empty word needs an anchor object")
        ident = cat.identity[at]
        return Word(bases=(ident,), edges=(), src=at, tgt=at)

    first_kind, first_id = parts[0]
    if first_kind == "base":
        here = cat.src[first_id]
    else:
        here = quiver.esrc[first_id]
    start = here

    bases: list[str] = []
    edges: list[str] = []
    acc = cat.identity[here]
    for kind, ident in parts:
        if kind == "base":
            if cat.src[ident] != here:
                raise NotComposable(f"base morphism {ident} does not start at {here}")
            acc = cat.compose_pair(ident, acc)
            here = cat.tgt[ident]
        elif kind == "edge":
            if quiver.esrc[ident] != here:
                raise NotComposable(f"edge {ident} does not start at {here}")
            bases.append(acc)
            edges.append(ident)
            here = quiver.etgt[ident]
            acc = cat.identity[here]
        else:
            raise NotComposable(f"unknown word part kind {kind!r}")
    bases.append(acc)
    return Word(bases=tuple(bases), edges=tuple(edges), src=start, tgt=here)
