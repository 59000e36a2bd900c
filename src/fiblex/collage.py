"""Freely adjoining quiver edges to a finite category.

The result glues the category and the free category on the quiver over a
shared object set, then collapses runs of composable base morphisms back
into single ones. Morphisms are therefore normalized alternating words

    c0 q1 c1 q2 ... qn cn        (n >= 0)

with exactly one base morphism (identities allowed) between and around
consecutive quiver edges; the 0-edge words are the base morphisms
themselves. Composition is concatenation followed by folding the two
base morphisms that meet at the junction. The free category on a quiver
is the collage of the discrete category on its vertices.

The collage is built from the delta, as in semi-naive evaluation: the
base's tables are copied as they stand, only the words with at least one
edge are enumerated, and only the pairs in which at least one side is
such a new word are glued. Its opposite is built alongside, from the
base's opposite table (copied from the cached opposite when there is
one) and the glued pairs reversed, so the grown category and its
opposite are each other's cached opposites. An extended functor likewise
keeps the base's values and actions and computes only the new words'
actions. Finiteness is decided by one walk per edge, from its target
back towards its source. Apart from the C-level copies of the base's
tables, the cost of adjoining grows with the new words and the base
morphisms that meet them, not with the size of the base.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Optional

from .errors import (
    BaseMismatch,
    IdentifierClash,
    MissingEdgeAction,
    NotComposable,
    UnboundedHomSet,
    VertexMismatch,
)
from .fincat import (
    FinCategory,
    Quiver,
    SetFunctor,
    _derived,
    _opposite_compose,
    _pair_opposites,
    _reach,
    discrete_category,
    tuple_name,
)


@dataclass(frozen=True)
class Word:
    """A normal-form alternating word: ``bases`` has one entry more than
    ``edges`` and the whole sequence is endpoint-composable."""

    bases: tuple[str, ...]
    edges: tuple[str, ...]
    src: str
    tgt: str

    def __post_init__(self):
        if len(self.bases) != len(self.edges) + 1:
            raise NotComposable("alternating word needs exactly one more base than edges")

    def parts(self) -> list[tuple[str, str]]:
        """The word as ``(kind, id)`` pairs, kinds alternating base/edge."""
        out: list[tuple[str, str]] = [("base", self.bases[0])]
        for q, c in zip(self.edges, self.bases[1:]):
            out.append(("edge", q))
            out.append(("base", c))
        return out


def word_id(cat: FinCategory, word: Word) -> str:
    """Canonical name of a word.

    0-edge words keep their base morphism's name, so the base category
    embeds name-for-name. Identity bases are elided from longer words
    (the normal form pins them down), so the generator word of an edge
    is named by the edge itself.
    """
    if not word.edges:
        return word.bases[0]
    shown = [i for kind, i in word.parts() if kind == "edge" or not cat.is_identity(i)]
    if len(shown) == 1:
        return shown[0]
    return tuple_name(shown)


@dataclass(frozen=True)
class CollageCategory:
    """A finite category together with the collage data it was built from.

    ``category`` contains every normal-form word as a morphism.
    ``new_words`` maps the morphisms that use at least one quiver edge to
    their words, and ``words`` maps every morphism to its word; its 0-edge
    words, one per base morphism, are built on first read. A non-closed
    collage was truncated at an edge-count bound and refuses out-of-bound
    composition.
    """

    base: FinCategory
    quiver: Quiver
    new_words: dict[str, Word]
    category: FinCategory
    closed: bool

    @cached_property
    def words(self) -> dict[str, Word]:
        base = self.base
        out = {m: Word(bases=(m,), edges=(), src=base.src[m], tgt=base.tgt[m])
               for m in sorted(base.morphisms)}
        out.update(self.new_words)
        return out

    def edge_words(self) -> list[str]:
        """Morphisms that use at least one quiver edge, sorted."""
        return sorted(self.new_words)


def collage_is_finite(cat: FinCategory, quiver: Quiver) -> bool:
    """Whether adjoining the quiver yields finitely many words.

    Words can grow without bound exactly when some quiver edge can reach
    back to its own source through other quiver edges and non-identity
    base morphisms (a loop edge included), so there is one walk per edge,
    from its target along base arrows and edges, over only the part of
    the graph that the walk reaches. A quiver whose vertices differ from
    the objects, or with an edge between non-vertices, raises
    ``VertexMismatch``.
    """
    if quiver.vertices != cat.objects:
        raise VertexMismatch("quiver must share the category's objects")
    for e in sorted(quiver.edges):
        if quiver.esrc[e] not in cat.objects or quiver.etgt[e] not in cat.objects:
            raise VertexMismatch(
                f"quiver edge {e} runs from {quiver.esrc[e]} to {quiver.etgt[e]}, "
                "which are not both vertices"
            )
    out_edges = _edges_by_src(quiver)

    def arcs(v: str) -> list[str]:
        # identities and other endomorphisms are loops, which reach nothing new
        return ([cat.tgt[m] for m in cat.by_src.get(v, ())]
                + [quiver.etgt[e] for e in out_edges.get(v, ())])

    return not any(quiver.esrc[e] in _reach(arcs, quiver.etgt[e]) for e in quiver.edges)


def fp_collage(cat: FinCategory, quiver: Quiver, bound: Optional[int] = None) -> CollageCategory:
    """Adjoin the quiver's edges to the category as free morphisms.

    The words are all normal-form words when the collage is finite, else
    those of up to ``bound`` edges. The base morphisms keep their names
    and composites, so only the words that use an edge are enumerated and
    only the pairs that involve such a word are glued; the composition
    table is nonetheless that of the whole collage. Matches the
    pushout-then-free-then-fold pipeline by construction. Words are named
    by ``word_id``. A base that is itself truncated raises
    ``BoundExceeded`` at its first missing composite.
    """
    return _adjoin(cat, quiver, bound, lambda word: word_id(cat, word))


def free_category_with_paths(
    q: Quiver, bound: Optional[int] = None
) -> tuple[FinCategory, dict[str, tuple[str, ...]]]:
    """Free category on a quiver, plus the edge sequence behind each morphism.

    This is the collage of the discrete category on the vertices with the
    quiver. The empty path at ``v`` is named ``id_v`` and the path
    ``(e1, e2)`` is named ``e2∘e1``. A cyclic quiver has infinitely many
    paths, so a ``bound`` on path length is then required and the result
    is flagged non-closed whenever paths were actually cut off.
    """
    collage = _adjoin(discrete_category(q.vertices), q, bound, _path_name)
    return collage.category, {m: word.edges for m, word in collage.words.items()}


def _path_name(word: Word) -> str:
    return "∘".join(reversed(word.edges)) if word.edges else word.bases[0]


def _edges_by_src(quiver: Quiver) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for q in sorted(quiver.edges):
        out.setdefault(quiver.esrc[q], []).append(q)
    return out


def _adjoin(
    cat: FinCategory, quiver: Quiver, bound: Optional[int], name: Callable[[Word], str]
) -> CollageCategory:
    """The collage of ``cat`` and ``quiver`` with each word named by
    ``name``; a word named like a base morphism or like another word
    raises IdentifierClash.

    The 0-edge words are the base morphisms under their own names, so
    ``src``, ``tgt`` and ``compose`` start as copies of the base tables.
    Words with edges are enumerated level by level, each level extending
    the last by an edge and a base morphism; a pair is glued only when at
    least one side is such a word. The collage's opposite is built with
    it, each glued pair written reversed into a copy of the base's
    opposite table, and the two are cached as each other's opposites;
    both share the endpoint tables, swapped."""
    finite = collage_is_finite(cat, quiver)
    if not finite and bound is None:
        raise UnboundedHomSet("collage has unboundedly long words; an edge bound is required")

    out_edges = _edges_by_src(quiver)
    out_bases, into_bases = cat.by_src, cat.by_tgt
    words: dict[str, Word] = {}
    by_key: dict[tuple[tuple[str, ...], tuple[str, ...]], str] = {}
    nxt = [
        Word(bases=(c0, c1), edges=(q,), src=cat.src[c0], tgt=cat.tgt[c1])
        for q in sorted(quiver.edges)
        for c0 in into_bases.get(quiver.esrc[q], ())
        for c1 in out_bases.get(quiver.etgt[q], ())
    ]
    edge_count = 0
    truncated = False
    while nxt:
        edge_count += 1
        if bound is not None and edge_count > bound:
            truncated = True
            break
        for w in nxt:
            wid = name(w)
            if wid in words or wid in cat.morphisms:
                raise IdentifierClash(f"word name collision at {wid}")
            words[wid] = w
            by_key[(w.bases, w.edges)] = wid
        nxt = [
            Word(bases=w.bases + (c,), edges=w.edges + (q,), src=w.src, tgt=cat.tgt[c])
            for w in nxt
            for q in out_edges.get(w.tgt, ())
            for c in out_bases.get(quiver.etgt[q], ())
        ]
    if not cat.closed:
        for g, f in cat.composable_pairs():
            cat.compose_pair(g, f)  # raises at the first composite the base lacks

    src, tgt = dict(cat.src), dict(cat.tgt)
    new_out: dict[str, list[str]] = {}
    for wid, w in words.items():
        src[wid] = w.src
        tgt[wid] = w.tgt
        new_out.setdefault(w.src, []).append(wid)

    compose, compose_op = dict(cat.compose), _opposite_compose(cat)

    def glue(g_id: str, f_id: str) -> None:
        f, g = words.get(f_id), words.get(g_id)
        f_bases, f_edges = (f.bases, f.edges) if f else ((f_id,), ())
        g_bases, g_edges = (g.bases, g.edges) if g else ((g_id,), ())
        if bound is not None and len(f_edges) + len(g_edges) > bound:
            return  # outside the truncation
        junction = cat.compose_pair(g_bases[0], f_bases[-1])
        gf = by_key[(f_bases[:-1] + (junction,) + g_bases[1:], f_edges + g_edges)]
        compose[(g_id, f_id)] = compose_op[(f_id, g_id)] = gf

    for f_id, f in words.items():
        for g_id in out_bases.get(f.tgt, ()):
            glue(g_id, f_id)
        for g_id in new_out.get(f.tgt, ()):
            glue(g_id, f_id)
    for g_id, g in words.items():
        for f_id in into_bases.get(g.src, ()):
            glue(g_id, f_id)

    closed = not truncated
    morphisms = cat.morphisms.union(words)
    category = _derived(FinCategory, objects=cat.objects, morphisms=morphisms, src=src, tgt=tgt,
                        identity=cat.identity, compose=compose, closed=closed)
    _pair_opposites(category, _derived(
        FinCategory, objects=cat.objects, morphisms=morphisms, src=tgt, tgt=src,
        identity=cat.identity, compose=compose_op, closed=closed))
    return CollageCategory(base=cat, quiver=quiver, new_words=words, category=category,
                           closed=closed)


def free_category(q: Quiver, bound: Optional[int] = None) -> FinCategory:
    return _adjoin(discrete_category(q.vertices), q, bound, _path_name).category


def extend_set_functor(
    fun: SetFunctor,
    collage: CollageCategory,
    edge_actions: Mapping[str, Mapping[str, str]],
) -> SetFunctor:
    """Extend a Set-valued functor on the base along the collage.

    Values are unchanged, and so is the action of each base morphism: the
    value table and each such graph are shared, not copied. The action of
    a word with edges is the composite of the base actions and edge
    actions in sequence order. Well defined since the adjoined edges
    satisfy no relations.
    """
    if fun.base != collage.base:
        raise BaseMismatch("functor base differs from the collage base")
    missing = sorted(set(collage.quiver.edges) - set(edge_actions))
    if missing:
        raise MissingEdgeAction(f"no action for edges: {', '.join(missing)}")

    action = dict(fun.action)
    for wid, word in collage.new_words.items():
        graph = fun.action[word.bases[0]]
        for q, c in zip(word.edges, word.bases[1:]):
            along, then = edge_actions[q], fun.action[c]
            graph = {x: then[along[y]] for x, y in graph.items()}
        action[wid] = graph
    return _derived(SetFunctor, base=collage.category, value=fun.value, action=action)
