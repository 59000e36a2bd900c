"""Finite categories, quivers, Set-valued functors, and the small-scale
universal constructions everything else consumes.

All structure is explicit finite data over opaque string identifiers:
source/target tables, composition tables, functor graphs. Every
operation is a pure function and never mutates its inputs, so values and
the tables inside them are shared freely: a grown category starts from
copies of its parent's tables, and a grown functor keeps its parent's
value table and action graphs. A category also caches what it derives
from its tables, on first read and per instance: its morphisms by source
and by target, shared with its opposite, and its opposite. A category
that a collage built (see ``fiblex.collage``) also glues its composition
table, and its opposite's, on the first read of either; every reader,
``==`` included, sees the whole table. The dataclasses are frozen but
the dicts inside them are not, so tables must never be mutated once they
are handed over.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

from .errors import BaseMismatch, BoundExceeded, IdentifierClash, NotComposable

_T = TypeVar("_T")


# ---------------------------------------------------------------------------
# core types


@dataclass(frozen=True)
class FinCategory:
    """A finite category given by explicit tables.

    ``compose`` maps a pair ``(g, f)`` with ``tgt(f) == src(g)`` to the
    composite ``g after f``. When ``closed`` is False the category is a
    truncation of a larger one: composable pairs whose composite fell
    outside the truncation bound are absent from the table, and only
    bound-aware consumers may use the value.

    ``by_src``, ``by_tgt`` and ``opposite(cat)`` are derived from the
    tables on first read and cached with the instance; they take no part
    in equality, hashing or ``repr``. A hash reads only the object and
    morphism sets and ``closed``, which equal categories share. A
    category built by a collage may hold its ``compose`` table unglued
    until the first read (``_pair_opposites``), and one built by
    ``free_category`` or ``discrete_category`` knows the edge sequence
    behind each morphism (``paths``).
    """

    objects: frozenset[str]
    morphisms: frozenset[str]
    src: dict[str, str]
    tgt: dict[str, str]
    identity: dict[str, str]
    compose: dict[tuple[str, str], str]
    closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "objects", frozenset(self.objects))
        object.__setattr__(self, "morphisms", frozenset(self.morphisms))
        object.__setattr__(self, "src", dict(self.src))
        object.__setattr__(self, "tgt", dict(self.tgt))
        object.__setattr__(self, "identity", dict(self.identity))
        object.__setattr__(self, "compose", dict(self.compose))

    def __hash__(self) -> int:
        return hash((self.objects, self.morphisms, self.closed))

    @property
    def paths(self) -> Optional[dict[str, tuple[str, ...]]]:
        """The edge sequence behind each morphism, identities as ``()``, when
        ``free_category`` or ``discrete_category`` (the free category on no
        edges) built the category; None for any other category. Read with
        ``getattr``: reading ``__dict__`` would build a dict that lives as
        long as the category."""
        return getattr(self, "_paths", None)

    def is_identity(self, m: str) -> bool:
        return self.identity.get(self.src.get(m)) == m and self.src[m] == self.tgt[m]

    def identities(self) -> frozenset[str]:
        return frozenset(self.identity.values())

    def non_identities(self) -> list[str]:
        ids = self.identities()
        return sorted(m for m in self.morphisms if m not in ids)

    @cached_property
    def by_src(self) -> dict[str, list[str]]:
        """The morphisms out of each object that has any, sorted."""
        return _index(self, self.src, "by_tgt")

    @cached_property
    def by_tgt(self) -> dict[str, list[str]]:
        """The morphisms into each object that has any, sorted."""
        return _index(self, self.tgt, "by_src")

    def compose_pair(self, g: str, f: str) -> str:
        """Composite of ``f`` followed by ``g``."""
        if self.tgt[f] != self.src[g]:
            raise NotComposable(f"{g} after {f}: target {self.tgt[f]} != source {self.src[g]}")
        try:
            return self.compose[(g, f)]
        except KeyError:
            if not self.closed:
                raise BoundExceeded(f"composite of ({g}, {f}) exceeds the truncation bound")
            raise NotComposable(f"composition table has no entry for ({g}, {f})")

    def composable_pairs(self) -> Iterator[tuple[str, str]]:
        """All pairs ``(g, f)`` with ``tgt(f) == src(g)``."""
        for f in sorted(self.morphisms):
            for g in self.by_src.get(self.tgt[f], ()):
                yield g, f


class _GluedOnRead:
    """``FinCategory.compose`` where the instance holds no table yet: the
    table its pending glue (see ``_pair_opposites``) sets on first read.
    A table in the instance dict is found before this descriptor, so a
    category that holds its table reads it at full speed."""

    def __get__(self, cat, owner=None):
        if cat is None:
            return self
        pending = cat.__dict__.get("_glue")
        if pending is None:
            raise AttributeError("compose")
        first, second, glue = pending
        for c, table in zip((first, second), glue()):
            object.__setattr__(c, "compose", table)
            del c.__dict__["_glue"]
        return cat.__dict__["compose"]


FinCategory.compose = _GluedOnRead()  # set after the dataclass, so that no field default is seen


def _index(cat: FinCategory, end: Mapping[str, str], mirror: str) -> dict[str, list[str]]:
    """The morphisms of ``cat`` by ``end`` (its source or target table),
    sorted. The same index is the cached opposite's ``mirror``, so it is
    taken from there when the opposite has it, and handed to it otherwise;
    an opposite paired later finds it here."""
    op = cat.__dict__.get("_opposite")
    if op is not None and mirror in op.__dict__:
        return op.__dict__[mirror]
    out: dict[str, list[str]] = {}
    for m in sorted(cat.morphisms):
        out.setdefault(end[m], []).append(m)
    if op is not None:
        op.__dict__[mirror] = out
    return out


@dataclass(frozen=True)
class Quiver:
    vertices: frozenset[str]
    edges: frozenset[str]
    esrc: dict[str, str]
    etgt: dict[str, str]

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        object.__setattr__(self, "edges", frozenset(self.edges))
        object.__setattr__(self, "esrc", dict(self.esrc))
        object.__setattr__(self, "etgt", dict(self.etgt))


@dataclass(frozen=True)
class CatFunctor:
    """A functor between finite categories, as explicit object/morphism maps."""

    dom: FinCategory
    cod: FinCategory
    omap: dict[str, str]
    mmap: dict[str, str]

    def __post_init__(self):
        object.__setattr__(self, "omap", dict(self.omap))
        object.__setattr__(self, "mmap", dict(self.mmap))


@dataclass(frozen=True)
class SetFunctor:
    """A covariant functor from a finite category to finite sets.

    ``value`` assigns each object a finite set of element identifiers and
    ``action`` assigns each morphism a total function, stored as an
    explicit graph from ``value[src]`` to ``value[tgt]``. Contravariant
    assignments are represented by taking ``base`` to be the opposite of
    the category of interest. The tables are copied, the graphs inside
    ``action`` are kept as given and shared.
    """

    base: FinCategory
    value: dict[str, frozenset[str]]
    action: dict[str, dict[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "value", {o: frozenset(v) for o, v in self.value.items()})
        object.__setattr__(self, "action", dict(self.action))


@dataclass(frozen=True)
class LimitCone:
    """The limit of a Set-valued functor on a finite category.

    Apex elements are tuples with one component per base object, in the
    fixed order ``order`` (sorted object identifiers), so that limit
    elements have reproducible canonical names. The cone's leg onto the
    ``i``-th object of ``order`` is the projection of each tuple onto its
    ``i``-th component: a column of the apex.

    ``witness`` says why an apex computed by ``set_limit`` is empty, as
    the first place where its pass emptied: ``{"kind": "empty-fibre",
    "object": o}`` for a root with an empty fibre, ``{"kind": "arrow",
    "root": r, "morphism": m}`` for the arrow inside a root's reach that
    rejected every row, or ``{"kind": "join", "root": r, "shared": [...]}``
    for the join step and shared objects where no rows matched. It is
    diagnostic only: cones compare and serialize without it.
    """

    order: tuple[str, ...]
    apex: frozenset[tuple[str, ...]]
    witness: Optional[dict] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "apex", frozenset(self.apex))

    def sorted_apex(self) -> list[tuple[str, ...]]:
        return sorted(self.apex)


def _derived(cls, **fields):
    """A frozen ``cls`` value the engine derived from checked data, built
    without ``cls.__post_init__``, whose checks and copies the fields must
    already pass: the tables are the value's own and never written again,
    a category's object and morphism sets and a meaning's fibres are
    frozensets, and a speaker's meaning is a Set-valued functor on its
    opposite language."""
    out = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out


def tuple_name(tup: Sequence[str]) -> str:
    """Canonical printable name of a limit apex tuple."""
    return "(" + ",".join(tup) + ")"


def parse_tuple_name(name: str) -> Optional[tuple[str, ...]]:
    """The tuple a ``tuple_name`` stands for, or None when ``name`` is not
    parenthesized."""
    if not (name.startswith("(") and name.endswith(")")):
        return None
    inner = name[1:-1]
    return tuple(inner.split(",")) if inner else ()


# ---------------------------------------------------------------------------
# constructors


def compose_table(
    src: Mapping[str, str],
    tgt: Mapping[str, str],
    glue: Callable[[str, str], Optional[str]],
) -> dict[tuple[str, str], str]:
    """The composition table of the morphisms with the given endpoints.

    Morphisms are indexed by source, so only composable pairs are
    visited: ``glue(g, f)`` names the composite of ``f`` followed by
    ``g``, or returns None to leave the pair out of the table.
    """
    by_src: dict[str, list[str]] = {}
    for m, s in src.items():
        by_src.setdefault(s, []).append(m)
    compose: dict[tuple[str, str], str] = {}
    for f, t in tgt.items():
        for g in by_src.get(t, ()):
            gf = glue(g, f)
            if gf is not None:
                compose[(g, f)] = gf
    return compose


def discrete_category(objects: Iterable[str]) -> FinCategory:
    """The category with the given objects and only identity morphisms, built
    with its indexes and its ``paths``: it is free on the quiver with no edges."""
    objs = frozenset(objects)
    identity = {o: f"id_{o}" for o in sorted(objs)}
    src = {i: o for o, i in identity.items()}
    by_end = {o: [i] for o, i in identity.items()}
    return _derived(FinCategory, objects=objs, morphisms=frozenset(src), src=src, tgt=src,
                    identity=identity, compose={(i, i): i for i in src}, closed=True,
                    by_src=by_end, by_tgt=by_end, _paths=dict.fromkeys(src, ()))


def terminal_category(obj: str = "pt") -> FinCategory:
    return discrete_category([obj])


def quiver_from_edges(vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]) -> Quiver:
    """Build a quiver from ``(edge_id, src, tgt)`` triples; an id given
    twice raises ``IdentifierClash``."""
    esrc, etgt = {}, {}
    for e, s, t in edges:
        if e in esrc:
            raise IdentifierClash(f"edge id {e} is given twice")
        esrc[e] = s
        etgt[e] = t
    return _derived(Quiver, vertices=frozenset(vertices), edges=frozenset(esrc), esrc=esrc,
                    etgt=etgt)


# ---------------------------------------------------------------------------
# validation


def validate_category(cat: FinCategory) -> list[str]:
    """Exhaustive check of the category axioms; returns violations as data.

    On a non-closed (truncated) category, composable pairs and triples
    whose composites are missing from the table are skipped.
    """
    report: list[str] = []
    for m in sorted(cat.morphisms):
        if cat.src.get(m) not in cat.objects or cat.tgt.get(m) not in cat.objects:
            report.append(f"morphism {m} has src/tgt outside the object set")
    for o in sorted(cat.objects):
        i = cat.identity.get(o)
        if i is None or i not in cat.morphisms:
            report.append(f"object {o} has no identity morphism")
            continue
        if cat.src.get(i) != o or cat.tgt.get(i) != o:
            report.append(f"identity {i} of {o} is not an endomorphism of {o}")

    for (g, f), gf in sorted(cat.compose.items()):
        if g not in cat.morphisms or f not in cat.morphisms or gf not in cat.morphisms:
            report.append(f"composition entry ({g}, {f}) -> {gf} mentions unknown morphisms")
            continue
        if cat.tgt[f] != cat.src[g]:
            report.append(f"composition entry ({g}, {f}) is not composable")
        elif cat.src.get(gf) != cat.src[f] or cat.tgt.get(gf) != cat.tgt[g]:
            report.append(f"composite {gf} of ({g}, {f}) has wrong endpoints")

    ids = cat.identities()
    for g, f in cat.composable_pairs():
        if (g, f) not in cat.compose:
            if cat.closed:
                report.append(f"no composite for composable pair ({g}, {f})")
            continue
        gf = cat.compose[(g, f)]
        if f in ids and gf != g:
            report.append(f"right identity law fails: {g} after {f} = {gf}")
        if g in ids and gf != f:
            report.append(f"left identity law fails: {g} after {f} = {gf}")

    for f in sorted(cat.morphisms):
        for g in cat.by_src.get(cat.tgt[f], ()):
            if (g, f) not in cat.compose:
                continue
            for h in cat.by_src.get(cat.tgt[g], ()):
                if (h, g) not in cat.compose:
                    continue
                left = cat.compose.get((h, cat.compose[(g, f)]))
                right = cat.compose.get((cat.compose[(h, g)], f))
                if left is None or right is None:
                    if cat.closed:
                        report.append(f"missing composite in triple ({h}, {g}, {f})")
                    continue
                if left != right:
                    report.append(f"associativity fails on ({h}, {g}, {f}): {left} != {right}")
    return report


def validate_functor(fun: CatFunctor) -> list[str]:
    """Check totality and preservation of endpoints, identities, composition."""
    report: list[str] = []
    dom, cod = fun.dom, fun.cod
    for o in sorted(dom.objects):
        if fun.omap.get(o) not in cod.objects:
            report.append(f"object {o} is not mapped into the codomain")
    for m in sorted(dom.morphisms):
        fm = fun.mmap.get(m)
        if fm not in cod.morphisms:
            report.append(f"morphism {m} is not mapped into the codomain")
            continue
        if cod.src[fm] != fun.omap.get(dom.src[m]) or cod.tgt[fm] != fun.omap.get(dom.tgt[m]):
            report.append(f"morphism {m} does not preserve endpoints")
    for o in sorted(dom.objects):
        i = dom.identity[o]
        if fun.mmap.get(i) != cod.identity.get(fun.omap.get(o)):
            report.append(f"identity of {o} is not preserved")
    for (g, f), gf in sorted(dom.compose.items()):
        img = cod.compose.get((fun.mmap.get(g), fun.mmap.get(f)))
        if img is None or img != fun.mmap.get(gf):
            report.append(f"composition of ({g}, {f}) is not preserved")
    return report


def validate_setfunctor(fun: SetFunctor) -> list[str]:
    """Check that the actions are total functions and functorial.

    Problems come in sorted order: objects without a value set; per
    morphism, a missing action, or one not total on its source set and
    one leaving its target set; identities not acting as identities, by
    object; composites whose action disagrees, by composable pair, at the
    least disagreeing element. The walk sorts nothing, and only the
    problems found are sorted after it. Identities and compose entries
    are read only out of objects with a non-empty value set, through the
    base's index by source. The base must be a category.

    When the base is the opposite of a language that ``free_category``
    built (so its cached opposite has ``paths``) and the checks before
    the compose entries found nothing, the meaning is functorial exactly
    when each composite ``p∘e`` of an edge ``e`` and a non-identity
    morphism ``p`` acts as ``e``'s action after ``p``'s (by induction on
    path length), so only those composites are read, through the
    language's ``compose``; one over an empty value set, or one that a
    truncated language lacks, is skipped. Only when one disagrees are the
    compose entries walked, for the problem list.
    """
    base, value, action = fun.base, fun.value, fun.action
    # each problem after its sort key: the check, what it names, its place
    found: list[tuple] = [(0, o, 0, f"object {o} has no value set")
                          for o in base.objects.difference(value)]
    empty: frozenset[str] = frozenset()
    src, tgt = base.src, base.tgt
    for m in base.morphisms:
        act = action.get(m)
        if act is None:
            found.append((1, m, 0, f"morphism {m} has no action"))
            continue
        if act.keys() != value.get(src[m], empty):
            found.append((1, m, 1, f"action of {m} is not total on the source value set"))
        if not value.get(tgt[m], empty).issuperset(act.values()):
            found.append((1, m, 2, f"action of {m} leaves the target value set"))
    no_graph: dict[str, str] = {}
    filled = [(o, fibre) for o, fibre in value.items() if fibre and o in base.objects]
    for o, fibre in filled:
        i = base.identity[o]
        ident = action.get(i, no_graph)
        if any(ident.get(x) != x for x in fibre):
            found.append((2, o, 0, f"action of identity {i} is not the identity function"))
    language = base.__dict__.get("_opposite")
    if not found and language is not None and language.paths is not None:
        if _acts_along_paths(fun, language):
            return []
    compose, by_src = base.compose, base.by_src
    for o, fibre in filled:
        for f in by_src.get(o, ()):
            af = action.get(f, no_graph)
            for g in by_src.get(tgt[f], ()):
                gf = compose.get((g, f))
                if gf is None:  # beyond the bound of a truncated base
                    continue
                ag, agf = action.get(g, no_graph), action.get(gf, no_graph)
                bad = [x for x in fibre if agf.get(x) != ag.get(af.get(x))]
                if bad:
                    found.append((3, (g, f), 0, f"action of composite {gf} disagrees with the "
                                                f"composite action at {min(bad)}"))
    found.sort()
    return [problem for *_, problem in found]


def _acts_along_paths(fun: SetFunctor, language: FinCategory) -> bool:
    """Whether a meaning on the opposite of a free language, with total
    actions and identities, acts on each composite ``p∘e`` of an edge
    ``e`` and a non-identity ``p`` as ``e``'s action after ``p``'s, over a
    non-empty value set and where the language has the composite."""
    value, action, paths = fun.value, fun.action, language.paths
    compose, out_of, tgt = language.compose, language.by_src, language.tgt
    for e, path in paths.items():
        if len(path) != 1:
            continue
        act_e = action[e]
        for p in out_of.get(tgt[e], ()):
            if not paths[p] or not value[tgt[p]]:
                continue
            pe = compose.get((p, e))
            if pe is None:  # beyond the bound of a truncated language
                continue
            if action[pe] != {x: act_e[y] for x, y in action[p].items()}:
                return False
    return True


# ---------------------------------------------------------------------------
# duality


def opposite(cat: FinCategory) -> FinCategory:
    """Reverse every morphism. Identifiers are preserved, so the operation
    is an involution on the nose: the opposite is built once per category
    (a collage's together with the collage) and cached with it, and
    ``opposite(opposite(cat)) is cat``. The two share their endpoint and
    identity tables, the endpoints swapped."""
    op = cat.__dict__.get("_opposite")
    if op is None:
        op = _derived(FinCategory, objects=cat.objects, morphisms=cat.morphisms, src=cat.tgt,
                      tgt=cat.src, identity=cat.identity, compose=_opposite_compose(cat),
                      closed=cat.closed)
        _pair_opposites(cat, op)
    return op


def _opposite_compose(cat: FinCategory) -> dict[tuple[str, str], str]:
    """A fresh copy of the composition table of ``opposite(cat)``: a C-level
    copy of the cached opposite's table when there is one, else ``cat``'s
    table reversed, without building (and caching) the opposite."""
    op = cat.__dict__.get("_opposite")
    if op is not None:
        return dict(op.compose)
    return {(g, f): x for (f, g), x in cat.compose.items()}


def _pair_opposites(
    cat: FinCategory,
    op: FinCategory,
    glue: Optional[Callable[[], tuple[dict, dict]]] = None,
) -> None:
    """Cache ``op`` as the opposite of ``cat`` and ``cat`` as that of ``op``;
    the two must have reversed tables. With ``glue`` the two are built
    without composition tables: the first read of either's ``compose``
    calls ``glue()`` once for the tables of ``cat`` and of ``op``, and
    sets both."""
    object.__setattr__(op, "_opposite", cat)
    object.__setattr__(cat, "_opposite", op)
    if glue is not None:
        pending = (cat, op, glue)
        object.__setattr__(cat, "_glue", pending)
        object.__setattr__(op, "_glue", pending)


# ---------------------------------------------------------------------------
# Set-valued functor operations


def set_limit(fun: SetFunctor) -> LimitCone:
    """Limit of a Set-valued functor on a finite category.

    The apex is the set of all families, one element per object, that are
    compatible with every action: a conjunctive query over the fibres,
    computed as a join.

    - One root, the least object id, is taken in each source strongly
      connected component of the graph of non-identity arrows, so every
      object is reachable from a root.
    - Each element of a root's fibre fixes the values on everything the
      root reaches, by following the actions, and the row is kept only
      when it satisfies every arrow inside that reach.
    - The rows of successive roots are hash-joined on the objects their
      reaches share. Connected components share nothing and meet in one
      product, with no check per tuple.

    Components are ordered by sorted object id. An empty apex comes with
    a ``witness`` (see ``LimitCone``). The actions must be total on the
    fibres, as ``validate_setfunctor`` checks.
    """
    base = fun.base
    order = tuple(sorted(base.objects))
    arrows_from: dict[str, list[str]] = {o: [] for o in order}
    successors: dict[str, list[str]] = {o: [] for o in order}
    entered = set()  # objects with an arrow in from another object
    for m in base.non_identities():
        arrows_from[base.src[m]].append(m)
        successors[base.src[m]].append(base.tgt[m])
        if base.tgt[m] != base.src[m]:
            entered.add(base.tgt[m])

    reach = {o: _reach(successors.__getitem__, o) for o in order if arrows_from[o]}
    roots, covered = [], set()
    for o in order:
        mine = reach.get(o, {o})
        if o not in covered and (
            o not in entered or all(o not in r or p in mine for p, r in reach.items())
        ):
            roots.append(o)
            covered |= mine

    # one block per connected component: its objects and its rows, or the
    # bare elements of a block that is a single object
    blocks: list[tuple[list[str], list]] = []
    witness = None
    pending = roots
    while pending and witness is None:
        root: Optional[str] = pending[0]
        if not arrows_from[root]:  # nothing to follow and nothing to join
            pending = pending[1:]
            pool = sorted(fun.value[root])
            blocks.append(([root], pool))
            if not pool:
                witness = {"kind": "empty-fibre", "object": root}
            continue
        cols: list[str] = []
        rows: list[tuple[str, ...]] = [()]
        while root is not None and witness is None:
            pending = [r for r in pending if r != root]
            rows, witness = _join_root(fun, arrows_from, root, cols, rows)
            root = next((r for r in pending if not reach.get(r, {r}).isdisjoint(cols)), None)
        blocks.append((cols, [row[0] for row in rows] if len(cols) == 1 else rows))

    if witness is not None:
        apex: list[tuple[str, ...]] = []
    elif all(len(cols) == 1 for cols, _ in blocks):
        # one object per block, in sorted order: the product is the apex
        apex = list(itertools.product(*[pool for _, pool in blocks]))
    else:
        position = {o: i for i, o in enumerate(o for cols, _ in blocks for o in cols)}
        pick = operator.itemgetter(*[position[o] for o in order])
        pools = [[(x,) for x in pool] if len(cols) == 1 else pool for cols, pool in blocks]
        apex = [
            pick(tuple(itertools.chain.from_iterable(parts)))
            for parts in itertools.product(*pools)
        ]
    return LimitCone(order=order, apex=frozenset(apex), witness=witness)


def _reach(arcs: Callable[[_T], Iterable[_T]], start: _T) -> set[_T]:
    """The nodes reachable from ``start``, itself included, where ``arcs``
    gives the successors of each node it reaches."""
    seen, stack = {start}, [start]
    while stack:
        for t in arcs(stack.pop()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _join_root(
    fun: SetFunctor,
    arrows_from: Mapping[str, list[str]],
    root: str,
    cols: list[str],
    rows: list[tuple[str, ...]],
) -> tuple[list[tuple[str, ...]], Optional[dict]]:
    """Join a root's rows into ``rows`` (over the objects ``cols``).

    The root's rows are built breadth first over its reach: an arrow to
    a new object extends each row by its action, and an arrow to an
    object already fixed filters the rows. They are then hash-joined
    with ``rows`` on the shared objects, and ``cols`` grows by the
    others. Returns the joined rows, and the witness when none is left.
    """
    reached = [root]
    at = {root: 0}
    own = [(x,) for x in sorted(fun.value[root])]
    if not own:
        return [], {"kind": "empty-fibre", "object": root}
    for s in reached:  # grows as the walk reaches new objects
        i = at[s]
        for m in arrows_from[s]:
            act, t = fun.action[m], fun.base.tgt[m]
            if t in at:
                j = at[t]
                own = [row for row in own if act[row[i]] == row[j]]
            else:
                at[t] = len(reached)
                reached.append(t)
                fibre = fun.value[t]
                own = [row + (y,) for row in own if (y := act[row[i]]) in fibre]
            if not own:
                return [], {"kind": "arrow", "root": root, "morphism": m}

    if not cols:  # the first root of a block: its rows are the block's
        cols += reached
        return own, None
    shared = [o for o in cols if o in at]
    fresh = [at[o] for o in reached if o not in shared]
    own_key, extra_of = _picker([at[o] for o in shared]), _picker(fresh)
    index: dict = {}
    for row in own:
        index.setdefault(own_key(row), []).append(extra_of(row))
    key = _picker([cols.index(o) for o in shared])
    joined = [row + extra for row in rows for extra in index.get(key(row), ())]
    cols += [reached[k] for k in fresh]
    if not joined:
        return [], {"kind": "join", "root": root, "shared": shared}
    return joined, None


def _picker(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """The function that picks the entries at ``positions`` of a row, as a tuple."""
    if len(positions) == 1:
        at = positions[0]
        return lambda row: (row[at],)
    if not positions:
        return lambda row: ()
    return operator.itemgetter(*positions)


def natural_iso_check(
    left: SetFunctor, right: SetFunctor
) -> Optional[dict[str, dict[str, str]]]:
    """Search for a natural isomorphism between two Set-valued functors
    on the same base: a family of bijections commuting with every action.
    Returns the witness family, or None."""
    if left.base != right.base:
        raise BaseMismatch("natural isomorphism check needs a shared base category")
    objs = sorted(left.base.objects)
    if any(len(left.value[o]) != len(right.value[o]) for o in objs):
        return None
    touching: dict[str, list[str]] = {o: [] for o in objs}
    for m in left.base.non_identities():
        touching[left.base.src[m]].append(m)
        touching[left.base.tgt[m]].append(m)

    witness: dict[str, dict[str, str]] = {}

    def consistent(m: str) -> bool:
        s, t = left.base.src[m], left.base.tgt[m]
        if s not in witness or t not in witness:
            return True
        return all(
            witness[t][left.action[m][x]] == right.action[m][witness[s][x]]
            for x in left.value[s]
        )

    def extend(i: int) -> bool:
        if i == len(objs):
            return True
        o = objs[i]
        domain = sorted(left.value[o])
        for perm in itertools.permutations(sorted(right.value[o])):
            witness[o] = dict(zip(domain, perm))
            if all(consistent(m) for m in touching[o]) and extend(i + 1):
                return True
        del witness[o]
        return False

    return dict(witness) if extend(0) else None
