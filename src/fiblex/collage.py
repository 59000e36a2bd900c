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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from .errors import (
    BaseMismatch,
    IdentifierClash,
    MissingEdgeAction,
    NotComposable,
    UnboundedHomSet,
    VertexMismatch,
)
from .fincat import CatFunctor, FinCategory, Quiver, SetFunctor, compose_table, discrete_category


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
    return "(" + ",".join(shown) + ")"


@dataclass(frozen=True)
class CollageCategory:
    """A finite category together with the collage data it was built from.

    ``category`` contains every normal-form word as a morphism; ``words``
    maps morphism ids back to words. A non-closed collage was truncated
    at an edge-count bound and refuses out-of-bound composition.
    """

    base: FinCategory
    quiver: Quiver
    words: dict[str, Word]
    category: FinCategory
    closed: bool

    def __post_init__(self):
        object.__setattr__(self, "words", dict(self.words))

    def edge_words(self) -> list[str]:
        """Morphisms that use at least one quiver edge, sorted."""
        return sorted(w for w, word in self.words.items() if word.edges)


def collage_is_finite(cat: FinCategory, quiver: Quiver) -> bool:
    """Whether adjoining the quiver yields finitely many words.

    Words can grow without bound exactly when some quiver edge can reach
    back to its own source through other quiver edges and non-identity
    base morphisms.
    """
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


def fp_collage(cat: FinCategory, quiver: Quiver, bound: Optional[int] = None) -> CollageCategory:
    """Adjoin the quiver's edges to the category as free morphisms.

    Enumerates all normal-form words (all of them when the collage is
    finite, else up to ``bound`` edges per word) and assembles the full
    composition table. Matches the pushout-then-free-then-fold pipeline
    by construction. Words are named by ``word_id``.
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


def _adjoin(
    cat: FinCategory, quiver: Quiver, bound: Optional[int], name: Callable[[Word], str]
) -> CollageCategory:
    """The collage of ``cat`` and ``quiver`` with each word named by
    ``name``; two words with one name raise IdentifierClash."""
    finite = collage_is_finite(cat, quiver)
    if not finite and bound is None:
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
            return None  # outside the truncation
        junction = cat.compose_pair(g.bases[0], f.bases[-1])
        return by_key[(f.bases[:-1] + (junction,) + g.bases[1:], f.edges + g.edges)]

    closed = not truncated
    category = FinCategory(
        objects=cat.objects,
        morphisms=frozenset(words),
        src=src,
        tgt=tgt,
        identity={o: cat.identity[o] for o in cat.objects},
        compose=compose_table(src, tgt, glue),
        closed=closed,
    )
    return CollageCategory(base=cat, quiver=quiver, words=words, category=category, closed=closed)


def free_category(q: Quiver, bound: Optional[int] = None) -> FinCategory:
    return free_category_with_paths(q, bound)[0]


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


def extend_set_functor(
    fun: SetFunctor,
    collage: CollageCategory,
    edge_actions: Mapping[str, Mapping[str, str]],
) -> SetFunctor:
    """Extend a Set-valued functor on the base along the collage.

    Values are unchanged; the action of a word is the composite of the
    base actions and edge actions in sequence order. Well defined since
    the adjoined edges satisfy no relations.
    """
    if fun.base != collage.base:
        raise BaseMismatch("functor base differs from the collage base")
    missing = sorted(set(collage.quiver.edges) - set(edge_actions))
    if missing:
        raise MissingEdgeAction(f"no action for edges: {', '.join(missing)}")

    action: dict[str, dict[str, str]] = {}
    for wid, word in collage.words.items():
        graph = {x: x for x in fun.value[collage.base.src[word.bases[0]]]}
        step: Mapping[str, str]
        for kind, ident in word.parts():
            step = fun.action[ident] if kind == "base" else edge_actions[ident]
            graph = {x: step[y] for x, y in graph.items()}
        action[wid] = graph
    return SetFunctor(base=collage.category, value=dict(fun.value), action=action)
