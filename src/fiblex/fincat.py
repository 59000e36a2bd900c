"""Finite categories, quivers, Set-valued functors, and the small-scale
universal constructions everything else consumes.

All structure is explicit finite data over opaque string identifiers:
source/target tables, composition tables, functor graphs. Every
operation is a pure function and never mutates its inputs, so values and
the tables inside them are shared freely: a grown category starts from
copies of its parent's tables, and a grown functor keeps its parent's
value table and action graphs. A category also caches what it derives
from its tables, on first read and per instance: its identities and
its morphisms by source and by target (built together), shared with
its opposite, its opposite, the plan of a limit over it and of an
example over each of its objects. A category may hold its composition
table as a pending glue, run on first read: a collage (see
``fiblex.collage``) and its opposite glue theirs from their bases, a
discrete category its identities (``_UnitLaws``), any other opposite
reverses its category's. Every reader, ``==`` included, sees the whole
table. The dataclasses are frozen but the dicts inside them are not, so
tables must never be mutated once handed over.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, TypeVar

from .errors import BaseMismatch, BoundExceeded, IdentifierClash, NotComposable

_T = TypeVar("_T")
_NO_FIBRE: frozenset[str] = frozenset()  # the fibre of every object a meaning stores none for


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

    ``identities()``, ``by_src``, ``by_tgt`` and ``opposite(cat)`` are
    derived from the tables on first read and cached with the instance
    (the first three shared with the opposite), and so are the plan of
    ``set_limit`` over the category (``_limit_plan``), on a language the
    plan of an example over each word (``_example_plans``, see
    ``speaker._example_plan``) and, on an explanation's shape, the bases
    its limits restrict to (``_edge_base`` and ``_arrow_base``, see
    ``speaker._restrict``); none takes part in equality, hashing or
    ``repr``. A hash reads only the object and morphism sets and
    ``closed``, which equal categories share. A collage, a discrete
    category or an opposite holds its ``compose`` table as a pending glue
    until the first read (``_GluedOnRead``), and a category built by
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
        """The identity morphisms, cached on first read with the opposite too."""
        ids = self.__dict__.get("_identities")
        if ids is None:
            op = self.__dict__.get("_opposite", self)
            ids = op.__dict__.get("_identities") or frozenset(self.identity.values())
            self.__dict__["_identities"] = op.__dict__["_identities"] = ids
        return ids

    def non_identities(self) -> list[str]:
        ids = self.identities()
        return sorted(m for m in self.morphisms if m not in ids)

    @cached_property
    def by_src(self) -> dict[str, list[str]]:
        """The morphisms out of each object that has any, sorted."""
        return _index(self)[0]

    @cached_property
    def by_tgt(self) -> dict[str, list[str]]:
        """The morphisms into each object that has any, sorted."""
        return _index(self)[1]

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
    table its pending glue, which holds nothing of the instance, returns
    on first read. A table in the instance dict is found before this
    descriptor, so a category that holds its table reads it at full speed."""

    def __get__(self, cat, owner=None):
        if cat is None:
            return self
        glue = cat.__dict__.get("_glue")
        if glue is None:
            raise AttributeError("compose")
        object.__setattr__(cat, "compose", glue())
        del cat.__dict__["_glue"]
        return cat.__dict__["compose"]


FinCategory.compose = _GluedOnRead()  # set after the dataclass, so that no field default is seen


class _UnitLaws(NamedTuple):
    """The pending composition table of a category whose only composites
    are those with an identity; ``dual()`` is its opposite's."""

    src: dict[str, str]
    tgt: dict[str, str]
    identity: dict[str, str]

    def __call__(self) -> dict[tuple[str, str], str]:
        identity, tgt = self.identity, self.tgt
        return {pair: m for m, s in self.src.items()
                for pair in ((m, identity[s]), (identity[tgt[m]], m))}

    def dual(self) -> _UnitLaws:
        return _UnitLaws(self.tgt, self.src, self.identity)


def _index(cat: FinCategory) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """The morphisms of ``cat`` by source and by target, sorted, built in
    one pass. They are the cached opposite's by target and by source, so
    they are taken from there when it has them (it has both or neither),
    and handed to it otherwise; an opposite built later finds them here."""
    op = cat.__dict__.get("_opposite")
    if op is not None and "by_src" in op.__dict__:
        by_src, by_tgt = op.__dict__["by_tgt"], op.__dict__["by_src"]
    else:
        by_src, by_tgt = {}, {}
        src, tgt = cat.src, cat.tgt
        for m in sorted(cat.morphisms):
            by_src.setdefault(src[m], []).append(m)
            by_tgt.setdefault(tgt[m], []).append(m)
        if op is not None:
            op.__dict__.update(by_src=by_tgt, by_tgt=by_src)
    cat.__dict__.update(by_src=by_src, by_tgt=by_tgt)
    return by_src, by_tgt


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

    ``value`` holds the non-empty fibres (finite sets of element ids) and
    ``action`` the total function of each morphism out of one, as an
    explicit graph into the fibre over its target. An object with no
    entry has the empty fibre (read it with ``fibre``), and a morphism out
    of it the empty function. Contravariant assignments take ``base`` to
    be the opposite of the category of interest. The tables are copied
    without their empty entries, so dense and sparse tables give equal
    values; the graphs inside ``action`` are kept as given and shared.
    """

    base: FinCategory
    value: dict[str, frozenset[str]]
    action: dict[str, dict[str, str]]

    def __post_init__(self):
        value = {o: fibre for o, v in self.value.items() if (fibre := frozenset(v))}
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "action", {m: graph for m, graph in self.action.items()
                                            if graph or self.base.src.get(m) in value})

    def fibre(self, o: str) -> frozenset[str]:
        """The fibre over ``o``, empty when ``value`` has no entry for it."""
        return self.value.get(o, _NO_FIBRE)


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
    a category's object and morphism sets are frozensets, a meaning has
    the form of ``SetFunctor`` (no empty fibre, frozenset ones), and a
    speaker's meaning is a Set-valued functor on its opposite language.
    No dataclass default is applied, so every field is given, but for a
    category's ``compose`` where a pending ``_glue`` stands for it."""
    out = object.__new__(cls)
    out.__dict__.update(fields)
    return out


def tuple_name(tup: Sequence[str]) -> str:
    """Canonical printable name of a limit apex tuple."""
    return "(" + ",".join(tup) + ")"


def pair_names(prefix: str, firsts: Iterable[str], second: str) -> list[str]:
    """``prefix + tuple_name((s, second))`` for each ``s`` of ``firsts``,
    without a call per name."""
    return [f"{prefix}({s},{second})" for s in firsts]


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
                    identity=identity, closed=True, _glue=_UnitLaws(src, src, identity),
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

    Problems come in sorted order: per morphism, a missing action out of
    a non-empty fibre, or one not total on its source fibre and one
    leaving its target fibre; identities not acting as identities, by
    object; composites whose action disagrees, by composable pair, at the
    least disagreeing element. The walk reads the stored graphs and,
    through the base's index by source, the identities, morphisms and
    compose entries out of the non-empty fibres (see ``SetFunctor``),
    skipping pairs with an identity when nothing was found before them.
    It sorts nothing but the problems found. The base must be a category.

    When the base is the opposite of a language that ``free_category``
    built (its cached opposite has ``paths``) and nothing was found before
    the compose entries, the meaning is functorial exactly when each
    composite ``p∘e`` of an edge ``e`` and a non-identity ``p`` acts as
    ``e``'s action after ``p``'s (by induction on path length), so only
    those are read (``_acts_along_paths``); only when one disagrees are
    the compose entries walked, for the problem list.
    """
    base, value, action = fun.base, fun.value, fun.action
    src, tgt, morphisms, by_src = base.src, base.tgt, base.morphisms, base.by_src
    # each problem after its sort key: the check, what it names, its place
    found, no_graph = [], {}
    for m, act in action.items():
        if m not in morphisms:
            continue
        if act.keys() != value.get(src[m], _NO_FIBRE):
            found.append((1, m, 1, f"action of {m} is not total on the source value set"))
        if not value.get(tgt[m], _NO_FIBRE).issuperset(act.values()):
            found.append((1, m, 2, f"action of {m} leaves the target value set"))
    filled = [(o, elements) for o, elements in value.items() if elements and o in base.objects]
    for o, elements in filled:
        i = base.identity[o]
        if any(action.get(i, no_graph).get(x) != x for x in elements):
            found.append((2, o, 0, f"action of identity {i} is not the identity function"))
        for m in by_src.get(o, ()):
            if m not in action:
                found.append((1, m, 0, f"morphism {m} has no action"))
    language = base.__dict__.get("_opposite")
    if not found and language is not None and language.paths is not None:
        if _acts_along_paths(fun, language):
            return []
    compose = base.compose
    agree = frozenset() if found else base.identities()  # pairs with an identity agree
    for o, elements in filled:
        for f in by_src.get(o, ()):
            if f in agree:
                continue
            af = action.get(f, no_graph)
            for g in by_src.get(tgt[f], ()):
                gf = compose.get((g, f))
                if gf is None or g in agree:  # beyond the bound of a truncated base, or agrees
                    continue
                ag, agf = action.get(g, no_graph), action.get(gf, no_graph)
                bad = [x for x in elements if agf.get(x) != ag.get(af.get(x))]
                if bad:
                    found.append((3, (g, f), 0, f"action of composite {gf} disagrees with the "
                                                f"composite action at {min(bad)}"))
    found.sort()
    return [problem for *_, problem in found]


def _acts_along_paths(fun: SetFunctor, language: FinCategory) -> bool:
    """Whether a meaning on the opposite of a free language, with total
    actions and identities, acts on each composite ``p∘e`` of an edge
    ``e`` and a non-identity ``p`` as ``e``'s action after ``p``'s, where
    the language has the composite and ``p`` runs into a non-empty fibre
    (so ``e`` does too)."""
    value, action, paths = fun.value, fun.action, language.paths
    compose, into, out_of, tgt = language.compose, language.by_tgt, language.by_src, language.tgt
    for b, elements in value.items():
        for e in into.get(b, ()) if elements else ():
            if len(paths[e]) != 1:
                continue
            act_e = action[e]
            for p in out_of[b]:
                if not paths[p] or not value.get(tgt[p]):
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
    and cached with it, and ``opposite(opposite(cat)) is cat``. The two
    share their endpoint and identity tables, the endpoints swapped. The
    opposite's table is glued on first read: by the ``dual()`` of ``cat``'s
    pending glue (a collage's), else as ``cat``'s table reversed."""
    op = cat.__dict__.get("_opposite")
    if op is None:
        pending = cat.__dict__.get("_glue")
        glue = pending.dual() if pending is not None else partial(_reversed, cat)
        op = _derived(FinCategory, objects=cat.objects, morphisms=cat.morphisms, src=cat.tgt,
                      tgt=cat.src, identity=cat.identity, closed=cat.closed, _glue=glue,
                      _opposite=cat)
        object.__setattr__(cat, "_opposite", op)
    return op


def _reversed(cat: FinCategory) -> dict[tuple[str, str], str]:
    """The composition table of ``cat`` with every pair reversed."""
    return {(g, f): x for (f, g), x in cat.compose.items()}


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

    Components are ordered by sorted object id. All of this but the
    fibres and actions depends on the base alone, so it is planned on the
    first limit over a base (``_plan_limit``) and cached with the base;
    each call runs only the join over its fibres. An empty apex comes
    with a ``witness`` (see ``LimitCone``). The actions must be total on
    the fibres, as ``validate_setfunctor`` checks.
    """
    base = fun.base
    plan = base.__dict__.get("_limit_plan")
    if plan is None:
        plan = _plan_limit(base)
        object.__setattr__(base, "_limit_plan", plan)
    order, blocks, pick = plan
    pools = []  # per block its rows, or the bare elements of a one-object block
    for cols, walks in blocks:
        rows = None
        for walk in walks:
            rows, witness = _join_root(fun, walk, rows)
            if witness is not None:
                return _derived(LimitCone, order=order, apex=frozenset(), witness=witness)
        pools.append([row[0] for row in rows] if len(cols) == 1 else rows)
    if pick is None:
        # one object per block, in sorted order: the product is the apex
        return _derived(LimitCone, order=order, apex=frozenset(itertools.product(*pools)),
                        witness=None)
    if len(blocks) == 1:  # one component: its rows, their columns in sorted order
        return _derived(LimitCone, order=order, apex=frozenset(map(pick, rows)), witness=None)
    pools = [[(x,) for x in pool] if len(cols) == 1 else pool
             for (cols, _), pool in zip(blocks, pools)]
    return _derived(LimitCone, order=order, apex=frozenset(
        pick(tuple(itertools.chain.from_iterable(parts))) for parts in itertools.product(*pools)
    ), witness=None)


def _plan_limit(base: FinCategory) -> tuple:
    """What ``set_limit`` does over ``base``, whatever the fibres: the
    sorted objects; per connected component, its objects and the walks
    of its roots, in join order; and the picker that puts their columns
    in sorted order, None when each component is one object. An object
    with no arrow in from another is a root, whose walk (``_walk``) is its
    reach. Only the objects these roots miss, on or below cycles, get
    reach sets (``_reach``): the least of each source cycle is a root. A
    component's next root is the least that reaches its columns, from a
    heap of the roots that reach each new column, and a join finds the
    shared columns through their index."""
    order = tuple(sorted(base.objects))
    src, tgt, identity = base.src, base.tgt, base.identity
    arrows_from: dict[str, list[str]] = {o: [] for o in order}
    entered = set()  # objects with an arrow in from another object
    for m in sorted(base.morphisms):
        s, t = src[m], tgt[m]
        if s != t:
            entered.add(t)
        elif identity[s] == m:
            continue
        arrows_from[s].append(m)
    walks, reached_by = {}, {}  # each root's walk; the roots that reach each object
    for root in order:
        if root not in entered:
            walks[root] = walk = _walk(arrows_from, tgt, root)
            for o in walk[0]:
                reached_by.setdefault(o, []).append(root)
    if len(reached_by) < len(order):  # the rest lies on cycles or below them
        rest = {o: _reach(lambda s: [tgt[m] for m in arrows_from[s]], o)
                for o in order if o not in reached_by}
        for root, mine in rest.items():
            if root not in reached_by and all(root not in r or p in mine for p, r in rest.items()):
                walks[root] = walk = _walk(arrows_from, tgt, root)
                for o in walk[0]:
                    reached_by.setdefault(o, []).append(root)

    blocks, taken = [], set()
    for first in sorted(walks):
        if first in taken:
            continue
        cols, column, joins, heap = [], {}, [], [first]
        while heap:
            root = heapq.heappop(heap)
            if root in taken:
                continue
            taken.add(root)
            reached, at, steps = walks[root]
            shared = sorted(column[o] for o in reached if o in column)
            fresh = [k for k, o in enumerate(reached) if o not in column]
            joins.append((root, steps, (
                _picker([at[cols[c]] for c in shared]), _picker(fresh), _picker(shared),
                [cols[c] for c in shared]) if cols else None))
            for k in fresh:
                column[reached[k]] = len(cols)
                cols.append(reached[k])
                for r in reached_by[reached[k]]:
                    if r not in taken:
                        heapq.heappush(heap, r)
        blocks.append((cols, joins))
    joined = [o for cols, _ in blocks for o in cols]
    if len(joined) == len(blocks):  # one object per component
        return order, blocks, None
    position = dict(zip(joined, range(len(joined))))
    return order, blocks, operator.itemgetter(*map(position.__getitem__, order))


def _walk(arrows_from: Mapping[str, list[str]], tgt: Mapping[str, str], root: str) -> tuple:
    """The objects ``root`` reaches, breadth first, their places in that
    list, and a step ``(m, i, j, t)`` per arrow ``m`` out of them, from the
    ``i``-th object to ``t``, the ``j``-th: a step extends rows by ``t``
    when ``j`` is None (``t`` is new) and filters them otherwise."""
    reached, at, steps = [root], {root: 0}, []
    for i, s in enumerate(reached):  # grows as the walk reaches new objects
        for m in arrows_from[s]:
            t = tgt[m]
            steps.append((m, i, at.get(t), t))
            if t not in at:
                at[t] = len(reached)
                reached.append(t)
    return reached, at, steps


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


def _join_root(fun: SetFunctor, walk: tuple, rows: Optional[list[tuple[str, ...]]]
               ) -> tuple[list[tuple[str, ...]], Optional[dict]]:
    """Run a root's walk (see ``_plan_limit``) over the fibres, and hash-join
    its rows into ``rows`` unless they are the component's first. Returns
    the joined rows, and the witness when none is left."""
    (root, steps, join), value, action = walk, fun.value, fun.action
    own = [(x,) for x in value.get(root, _NO_FIBRE)]
    if not own:
        return [], {"kind": "empty-fibre", "object": root}
    for m, i, j, t in steps:
        act = action[m]
        if j is None:
            fibre = value.get(t, _NO_FIBRE)
            own = [row + (y,) for row in own if (y := act[row[i]]) in fibre]
        else:
            own = [row for row in own if act[row[i]] == row[j]]
        if not own:
            return [], {"kind": "arrow", "root": root, "morphism": m}
    if join is None:
        return own, None
    own_key, extra_of, key, shared = join
    index: dict = {}
    for row in own:
        index.setdefault(own_key(row), []).append(extra_of(row))
    joined = [row + extra for row in rows for extra in index.get(key(row), ())]
    if not joined:
        return [], {"kind": "join", "root": root, "shared": list(shared)}
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
    if any(len(left.fibre(o)) != len(right.fibre(o)) for o in objs):
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
            for x in left.fibre(s)
        )

    def extend(i: int) -> bool:
        if i == len(objs):
            return True
        o = objs[i]
        domain = sorted(left.fibre(o))
        for perm in itertools.permutations(sorted(right.fibre(o))):
            witness[o] = dict(zip(domain, perm))
            if all(consistent(m) for m in touching[o]) and extend(i + 1):
                return True
        del witness[o]
        return False

    return dict(witness) if extend(0) else None
