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

The collage is built from the delta, as in semi-naive evaluation. Only
the words with at least one edge are enumerated, as plain tuples and
level by level, and they are named, checked for clashes and given their
endpoints at once. The composition table is glued on its first read:
the base's table is copied, and only the pairs in which at least one
side is a new word are glued. Its opposite is glued in the same pass,
from the base's opposite table (copied from the cached opposite when
there is one) and the glued pairs reversed, and the grown category and
its opposite are each other's cached opposites. A collage that is only
walked, such as an explanation's free shape whose diagram is checked and
limited along its edges, never glues. An extended functor keeps the
base's values and actions and computes only the new words' actions.
Finiteness needs no walk of its own: a collage is infinite exactly when
some word uses an edge twice, which the enumeration sees. Apart from the
C-level copies of the base's tables, the cost of adjoining grows with
the new words and the base morphisms that meet them, not with the size
of the base.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
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
    discrete_category,
    tuple_name,
)

# a word with edges as its base morphisms and its edges, ``len(bases) == len(edges) + 1``
Spelling = tuple[tuple[str, ...], tuple[str, ...]]


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
    return _word_id(cat, word.bases, word.edges)


def _word_id(cat: FinCategory, bases: tuple[str, ...], edges: tuple[str, ...]) -> str:
    """``word_id`` of the word with these base morphisms and edges."""
    if not edges:
        return bases[0]
    shown = [] if cat.is_identity(bases[0]) else [bases[0]]
    for q, c in zip(edges, bases[1:]):
        shown.append(q)
        if not cat.is_identity(c):
            shown.append(c)
    return shown[0] if len(shown) == 1 else tuple_name(shown)


@dataclass(frozen=True)
class CollageCategory:
    """A finite category together with the collage data it was built from.

    ``category`` contains every normal-form word as a morphism.
    ``spellings`` maps the morphisms that use at least one quiver edge to
    their base morphisms and edges. ``words`` maps every morphism to its
    word, the 0-edge words one per base morphism, and is built on first
    read. A non-closed collage was truncated at an edge-count bound and
    refuses out-of-bound composition.
    """

    base: FinCategory
    quiver: Quiver
    spellings: dict[str, Spelling]
    category: FinCategory
    closed: bool

    @cached_property
    def words(self) -> dict[str, Word]:
        src, tgt = self.base.src, self.base.tgt
        out = {m: Word(bases=(m,), edges=(), src=src[m], tgt=tgt[m])
               for m in sorted(self.base.morphisms)}
        out.update((m, Word(bases=bases, edges=edges, src=src[bases[0]], tgt=tgt[bases[-1]]))
                   for m, (bases, edges) in self.spellings.items())
        return out

    def edge_words(self) -> list[str]:
        """Morphisms that use at least one quiver edge, sorted."""
        return sorted(self.spellings)


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
    return _adjoin(cat, quiver, bound, lambda bases, edges: _word_id(cat, bases, edges))


def free_category(q: Quiver, bound: Optional[int] = None) -> FinCategory:
    """The free category on a quiver, the collage of the discrete category
    on its vertices with the quiver.

    The empty path at ``v`` is named ``id_v`` and the path ``(e1, e2)``
    ``e2∘e1``; the category's ``paths`` give the edge sequence behind each
    morphism. A cyclic quiver has infinitely many paths, so a ``bound`` on
    path length is then required and the result is flagged non-closed
    whenever paths were actually cut off.
    """
    base = discrete_category(q.vertices)
    collage = _adjoin(base, q, bound, _path_name)
    # the base is this collage's own, so its paths become the free
    # category's, and no second table is left to the collector
    paths = base.paths
    object.__delattr__(base, "_paths")
    for m, (_, edges) in collage.spellings.items():
        paths[m] = edges
    object.__setattr__(collage.category, "_paths", paths)
    return collage.category


def _path_name(bases: tuple[str, ...], edges: tuple[str, ...]) -> str:
    return "∘".join(reversed(edges))


def _spell(cat: FinCategory, quiver: Quiver, bound: Optional[int]) -> tuple[list[Spelling], bool]:
    """The words of the collage that use an edge, fewest edges first, and
    whether some were cut off at ``bound`` edges.

    Each level extends the last by an edge and a base morphism. Without a
    bound, a word that would use an edge twice raises ``UnboundedHomSet``:
    that edge runs round a cycle. Otherwise every word uses each edge at
    most once, so the enumeration ends. The quiver's edges must run
    between objects of the category."""
    esrc, etgt = quiver.esrc, quiver.etgt
    edges = sorted(quiver.edges)
    out_edges: dict[str, list[str]] = {}
    for e in edges:
        out_edges.setdefault(esrc[e], []).append(e)
    out_bases, base_tgt = cat.by_src, cat.tgt
    level = [
        ((c0, c1), (q,))
        for q in edges
        for c0 in cat.by_tgt.get(esrc[q], ())
        for c1 in out_bases.get(etgt[q], ())
    ]
    words: list[Spelling] = []
    edge_count = 0
    while level:
        edge_count += 1
        if bound is not None and edge_count > bound:
            return words, True
        words += level
        nxt = []
        for bases, used in level:
            for q in out_edges.get(base_tgt[bases[-1]], ()):
                if bound is None and q in used:
                    raise UnboundedHomSet(
                        "collage has unboundedly long words; an edge bound is required"
                    )
                longer = used + (q,)
                nxt += [(bases + (c,), longer) for c in out_bases.get(etgt[q], ())]
        level = nxt
    return words, False


def _adjoin(
    cat: FinCategory,
    quiver: Quiver,
    bound: Optional[int],
    name: Callable[[tuple[str, ...], tuple[str, ...]], str],
) -> CollageCategory:
    """The collage of ``cat`` and ``quiver`` with each word named by
    ``name(bases, edges)``; a word named like a base morphism or like
    another word raises IdentifierClash, and a word that uses an edge twice,
    without a bound, ``UnboundedHomSet``: this is where finiteness is
    decided. Before any word is spelled, a quiver whose vertices are not
    the objects, or with an edge between non-vertices, raises
    ``VertexMismatch``, then a truncated base, which always lacks some
    junction's composite, ``BoundExceeded``.

    The 0-edge words are the base morphisms under their own names, so
    ``src`` and ``tgt`` start as copies of the base tables and only the
    words with edges are added. The collage and its opposite share the
    endpoint tables, swapped, and are cached as each other's opposites;
    their composition tables are glued together by ``_glue`` on the first
    read of either."""
    if quiver.vertices != cat.objects:
        raise VertexMismatch("quiver must share the category's objects")
    esrc, etgt, objects = quiver.esrc, quiver.etgt, cat.objects
    off = [e for e in quiver.edges if esrc[e] not in objects or etgt[e] not in objects]
    if off:
        e = min(off)
        raise VertexMismatch(f"quiver edge {e} runs from {esrc[e]} to {etgt[e]}, "
                             "which are not both vertices")
    if not cat.closed:
        for g, f in cat.composable_pairs():
            cat.compose_pair(g, f)  # raises at the first composite the base lacks
    spelled, truncated = _spell(cat, quiver, bound)
    spellings: dict[str, Spelling] = {}
    for bases, edges in spelled:
        wid = name(bases, edges)
        if wid in spellings or wid in cat.morphisms:
            raise IdentifierClash(f"word name collision at {wid}")
        spellings[wid] = (bases, edges)

    src, tgt = dict(cat.src), dict(cat.tgt)
    base_src, base_tgt = cat.src, cat.tgt
    for wid, (bases, _) in spellings.items():
        src[wid] = base_src[bases[0]]
        tgt[wid] = base_tgt[bases[-1]]
    closed = not truncated
    morphisms = cat.morphisms.union(spellings)
    category = _derived(FinCategory, objects=cat.objects, morphisms=morphisms, src=src, tgt=tgt,
                        identity=cat.identity, closed=closed)
    op = _derived(FinCategory, objects=cat.objects, morphisms=morphisms, src=tgt, tgt=src,
                  identity=cat.identity, closed=closed)
    _pair_opposites(category, op, partial(_glue, cat, spellings, bound))
    return _derived(CollageCategory, base=cat, quiver=quiver, spellings=spellings,
                    category=category, closed=closed)


def _glue(
    cat: FinCategory, spellings: dict[str, Spelling], bound: Optional[int]
) -> tuple[dict[tuple[str, str], str], dict[tuple[str, str], str]]:
    """The composition tables of a collage of ``cat`` and of its opposite.

    Both start as copies of the base's tables; a pair is glued, into both,
    only when at least one side is a word with edges, and left out when
    the two together have more than ``bound`` edges. The pairs are glued
    in three flat loops (a word after a base morphism, a word after a
    word, a base morphism after a word), each word's spelling is split
    once, outside the inner loop, and the base morphism at the junction
    is read straight from the base's table, which ``_adjoin`` has checked
    has every junction."""
    base_compose, src, tgt = cat.compose, cat.src, cat.tgt
    into_bases, out_bases = cat.by_tgt, cat.by_src
    compose, compose_op = dict(base_compose), _opposite_compose(cat)
    by_key = {spelling: wid for wid, spelling in spellings.items()}
    # each word out of an object: its name, first base morphism, the rest and its edges
    new_out: dict[str, list[tuple[str, str, tuple[str, ...], tuple[str, ...]]]] = {}
    for g, (bases, edges) in spellings.items():
        new_out.setdefault(src[bases[0]], []).append((g, bases[0], bases[1:], edges))

    for o, words in new_out.items():  # a word after a base morphism
        for f in into_bases.get(o, ()):
            for g, first, rest, edges in words:
                compose[g, f] = compose_op[f, g] = by_key[(base_compose[first, f],) + rest, edges]
    for f, (bases, edges) in spellings.items():  # a word after a word
        head, last = bases[:-1], bases[-1]
        for g, first, rest, g_edges in new_out.get(tgt[last], ()):
            if bound is not None and len(edges) + len(g_edges) > bound:
                continue  # outside the truncation
            gf = by_key[head + (base_compose[first, last],) + rest, edges + g_edges]
            compose[g, f] = compose_op[f, g] = gf
    for f, (bases, edges) in spellings.items():  # a base morphism after a word
        head, last = bases[:-1], bases[-1]
        for g in out_bases.get(tgt[last], ()):
            compose[g, f] = compose_op[f, g] = by_key[head + (base_compose[g, last],), edges]
    return compose, compose_op


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
    for wid, (bases, edges) in collage.spellings.items():
        graph = fun.action[bases[0]]
        for q, c in zip(edges, bases[1:]):
            along, then = edge_actions[q], fun.action[c]
            graph = {x: then[along[y]] for x, y in graph.items()}
        action[wid] = graph
    return _derived(SetFunctor, base=collage.category, value=fun.value, action=action)
