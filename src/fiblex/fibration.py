"""Discrete fibrations over a finite base category.

A functor into a base is a discrete fibration when every base morphism
into the image of a total object lifts uniquely with that object as
target. Such functors are interchangeable with Set-valued functors on
the opposite base: ``grothendieck`` builds the total category of such a
functor and ``to_presheaf`` recovers the functor from the lift tables.
``comprehensive_factorization`` splits an arbitrary functor into a
functor followed by a discrete fibration, via connected components of
comma categories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import BaseMismatch, NotAFibration, NotComposable
from .fincat import (
    CatFunctor,
    FinCategory,
    SetFunctor,
    _UnionFind,
    comma_object_id,
    compose_table,
    natural_iso_check,
    opposite,
    validate_functor,
)


@dataclass(frozen=True)
class Fibration:
    """A discrete fibration, carried by its projection functor.

    ``lift_table`` maps ``(total object E, base morphism f into proj E)``
    to the unique morphism over ``f`` with target ``E``. ``pairs`` tags
    total objects with ``(base object, element)`` labels when the
    fibration was produced by ``grothendieck``; it is bookkeeping only
    and does not take part in equality.
    """

    proj: CatFunctor
    lift_table: dict[tuple[str, str], str]
    pairs: Optional[dict[str, tuple[str, str]]] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lift_table", dict(self.lift_table))

    @property
    def total(self) -> FinCategory:
        return self.proj.dom

    @property
    def base(self) -> FinCategory:
        return self.proj.cod


@dataclass(frozen=True)
class FibrationCheck:
    ok: bool
    lift_table: dict[tuple[str, str], str]
    failures: tuple[tuple[str, str, tuple[str, ...]], ...]  # (E, f, candidate lifts)


def is_discrete_fibration(proj: CatFunctor) -> FibrationCheck:
    """Decide the unique-lifting property by exhaustive enumeration.

    A failure entry names the total object and base morphism with zero
    or several lifts, together with all candidates found.
    """
    total, base = proj.dom, proj.cod
    over: dict[tuple[str, str], list[str]] = {}
    for h in sorted(total.morphisms):
        over.setdefault((total.tgt[h], proj.mmap[h]), []).append(h)
    lift_table: dict[tuple[str, str], str] = {}
    failures = []
    for e in sorted(total.objects):
        under = proj.omap[e]
        for f in sorted(base.morphisms):
            if base.tgt[f] != under:
                continue
            lifts = over.get((e, f), [])
            if len(lifts) == 1:
                lift_table[(e, f)] = lifts[0]
            else:
                failures.append((e, f, tuple(lifts)))
    return FibrationCheck(ok=not failures, lift_table=lift_table, failures=tuple(failures))


def fibration_from(proj: CatFunctor) -> Fibration:
    check = is_discrete_fibration(proj)
    if not check.ok:
        raise NotAFibration("functor lacks the unique lifting property", check.failures)
    return Fibration(proj=proj, lift_table=check.lift_table)


def fibre(p: Fibration | CatFunctor, obj: str) -> frozenset[str]:
    """Total objects sitting over a base object."""
    proj = p.proj if isinstance(p, Fibration) else p
    return frozenset(e for e in proj.dom.objects if proj.omap[e] == obj)


def fibre_morphisms(proj: CatFunctor, obj: str) -> frozenset[str]:
    """Total morphisms sitting over the identity of a base object."""
    ident = proj.cod.identity[obj]
    return frozenset(h for h in proj.dom.morphisms if proj.mmap[h] == ident)


# ---------------------------------------------------------------------------
# the equivalence with Set-valued functors


def pair_object_id(base_obj: str, element: str) -> str:
    return f"{element}@{base_obj}"


def pair_morphism_id(base_mor: str, tgt_element: str, tgt_obj: str) -> str:
    return f"{base_mor}@{tgt_element}@{tgt_obj}"


def grothendieck(fun: SetFunctor) -> Fibration:
    """Category of elements of a Set-valued functor on an opposite base.

    The result is a discrete fibration over ``opposite(fun.base)``: one
    total object per (object, element) pair, and one lift of each base
    morphism per element of the value set at its target.
    """
    lang = opposite(fun.base)
    objects: dict[str, tuple[str, str]] = {}
    for o in sorted(lang.objects):
        for x in sorted(fun.value[o]):
            objects[pair_object_id(o, x)] = (o, x)

    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    morphs: dict[str, tuple[str, str]] = {}  # morphism id -> (base morphism, target element)
    for f in sorted(lang.morphisms):
        t_obj = lang.tgt[f]
        s_obj = lang.src[f]
        for x in sorted(fun.value[t_obj]):
            mid = pair_morphism_id(f, x, t_obj)
            morphs[mid] = (f, x)
            src[mid] = pair_object_id(s_obj, fun.action[f][x])
            tgt[mid] = pair_object_id(t_obj, x)

    identity = {
        pair_object_id(o, x): pair_morphism_id(lang.identity[o], x, o)
        for (o, x) in objects.values()
    }

    def glue(m2: str, m1: str) -> Optional[str]:
        (g, y), f = morphs[m2], morphs[m1][0]
        gf = lang.compose.get((g, f))
        if gf is None:
            if not lang.closed:
                return None  # pair lies outside the truncation bound
            raise NotComposable(f"base category lacks the composite of ({g}, {f})")
        return pair_morphism_id(gf, y, lang.tgt[g])

    total = FinCategory(
        objects=frozenset(objects),
        morphisms=frozenset(morphs),
        src=src,
        tgt=tgt,
        identity=identity,
        compose=compose_table(src, tgt, glue),
        closed=lang.closed,
    )
    proj = CatFunctor(
        dom=total,
        cod=lang,
        omap={e: o for e, (o, _x) in objects.items()},
        mmap={m: f for m, (f, _x) in morphs.items()},
    )
    lift_table = {(tgt[m], f): m for m, (f, _x) in morphs.items()}
    return Fibration(proj=proj, lift_table=lift_table, pairs=objects)


def to_presheaf(fib: Fibration) -> SetFunctor:
    """Read a discrete fibration back as a Set-valued functor on the
    opposite base: fibres as value sets, lift sources as actions."""
    lang = fib.base
    value = {o: fibre(fib, o) for o in lang.objects}
    action: dict[str, dict[str, str]] = {}
    for f in lang.morphisms:
        action[f] = {
            e: fib.total.src[fib.lift_table[(e, f)]] for e in value[lang.tgt[f]]
        }
    return SetFunctor(base=opposite(lang), value=value, action=action)


def reindexing(fib: Fibration, morphism: str) -> dict[str, str]:
    """The function between fibres induced by lifting a base morphism:
    each total object over its target goes to the source of its lift."""
    return {
        e: fib.total.src[fib.lift_table[(e, morphism)]]
        for e in fibre(fib, fib.base.tgt[morphism])
    }


def validate_fibration_morphism(h: CatFunctor, p: Fibration, q: Fibration) -> list[str]:
    """Check that ``h`` is a functor between total categories commuting
    with both projections on the nose."""
    report = validate_functor(h)
    if h.dom != p.total or h.cod != q.total:
        report.append("functor endpoints are not the given total categories")
        return report
    if p.base != q.base:
        report.append("the two fibrations have different bases")
        return report
    for e in sorted(p.total.objects):
        if q.proj.omap[h.omap[e]] != p.proj.omap[e]:
            report.append(f"object {e} changes base fibre")
    for m in sorted(p.total.morphisms):
        if q.proj.mmap[h.mmap[m]] != p.proj.mmap[m]:
            report.append(f"morphism {m} changes base image")
    return report


def iso_over_base(p: Fibration, q: Fibration) -> Optional[CatFunctor]:
    """Search for an isomorphism of fibrations over a shared base.

    The fibrewise bijections are a natural isomorphism between the two
    presheaves; they extend to morphisms through the lift tables.
    Returns the witness functor (validated), or None.
    """
    if p.base != q.base:
        raise BaseMismatch("fibrations live over different bases")
    sigma = natural_iso_check(to_presheaf(p), to_presheaf(q))
    if sigma is None:
        return None
    omap = {e: image for bijection in sigma.values() for e, image in bijection.items()}
    mmap = {
        m: q.lift_table[(omap[p.total.tgt[m]], p.proj.mmap[m])] for m in p.total.morphisms
    }
    wit = CatFunctor(p.total, q.total, omap, mmap)
    if validate_functor(wit) or validate_fibration_morphism(wit, p, q):
        return None
    return wit


# ---------------------------------------------------------------------------
# comprehensive factorization


@dataclass(frozen=True)
class Factorization:
    """A functor split as ``fibration.proj . first`` with the second
    factor a discrete fibration built from component presheaves.

    ``comma_pairs[L]`` labels each comma object over ``L`` with its
    ``(domain object, morphism)`` pair, and ``components[L]`` maps it to
    its connected-component representative (the least comma object id in
    the block), which doubles as the fibre element name.
    """

    first: CatFunctor
    fibration: Fibration
    presheaf: SetFunctor
    comma_pairs: dict[str, dict[str, tuple[str, str]]]
    components: dict[str, dict[str, str]]


def component_presheaf(
    base: FinCategory,
    objects: list[str],
    omap: dict[str, str],
    gen_images: list[tuple[str, str, str]],
) -> tuple[SetFunctor, dict[str, dict[str, tuple[str, str]]], dict[str, dict[str, str]]]:
    """Connected components of all comma categories of a functor given by
    generators, packaged as a Set-valued functor on the opposite base.

    The functor out of the domain only enters through ``objects``,
    ``omap`` and ``gen_images`` (triples ``(src, tgt, base image)`` of
    generating morphisms); zigzag connectivity and the precomposition
    actions are insensitive to freely generated composites, so a
    generating presentation is all the construction needs.
    """
    comma_pairs: dict[str, dict[str, tuple[str, str]]] = {}
    components: dict[str, dict[str, str]] = {}
    hom_from: dict[str, dict[str, list[str]]] = {}
    for anchor in sorted(base.objects):
        hom_from[anchor] = {}
        for m in base.morphisms:
            if base.src[m] == anchor:
                hom_from[anchor].setdefault(base.tgt[m], []).append(m)

    for anchor in sorted(base.objects):
        pairs: dict[str, tuple[str, str]] = {}
        for d in sorted(objects):
            for f in sorted(hom_from[anchor].get(omap[d], ())):
                pairs[comma_object_id(d, f)] = (d, f)
        uf = _UnionFind(pairs)
        for d1, d2, img in gen_images:
            for f in hom_from[anchor].get(omap[d1], ()):
                f2 = base.compose[(img, f)]
                uf.union(comma_object_id(d1, f), comma_object_id(d2, f2))
        comma_pairs[anchor] = pairs
        components[anchor] = uf.blocks()

    value = {anchor: frozenset(set(components[anchor].values())) for anchor in base.objects}
    action: dict[str, dict[str, str]] = {}
    for f in base.morphisms:
        s, t = base.src[f], base.tgt[f]
        rename: dict[str, str] = {}
        for rep in value[t]:
            d, g = comma_pairs[t][rep]
            rename[rep] = components[s][comma_object_id(d, base.compose[(g, f)])]
        action[f] = rename
    presheaf = SetFunctor(base=opposite(base), value=value, action=action)
    return presheaf, comma_pairs, components


def comprehensive_factorization(fun: CatFunctor) -> Factorization:
    """Split a functor into a functor followed by a discrete fibration.

    The fibre over a base object is the set of connected components of
    the comma category under it, reindexed by precomposition; the first
    factor sends a domain object to the component of its identity pair.
    The composite equals the input on the nose.
    """
    base = fun.cod
    gen_images = [
        (fun.dom.src[m], fun.dom.tgt[m], fun.mmap[m])
        for m in fun.dom.non_identities()
    ]
    presheaf, comma_pairs, components = component_presheaf(
        base, sorted(fun.dom.objects), dict(fun.omap), gen_images
    )
    fib = grothendieck(presheaf)
    omap = {}
    for d in fun.dom.objects:
        under = fun.omap[d]
        comp = components[under][comma_object_id(d, base.identity[under])]
        omap[d] = pair_object_id(under, comp)
    mmap = {}
    for m in fun.dom.morphisms:
        mmap[m] = fib.lift_table[(omap[fun.dom.tgt[m]], fun.mmap[m])]
    first = CatFunctor(fun.dom, fib.total, omap, mmap)
    return Factorization(
        first=first,
        fibration=fib,
        presheaf=presheaf,
        comma_pairs=comma_pairs,
        components=components,
    )


def compose_functors(outer: CatFunctor, inner: CatFunctor) -> CatFunctor:
    if inner.cod != outer.dom:
        raise BaseMismatch("functors do not compose")
    return CatFunctor(
        dom=inner.dom,
        cod=outer.cod,
        omap={o: outer.omap[inner.omap[o]] for o in inner.dom.objects},
        mmap={m: outer.mmap[inner.mmap[m]] for m in inner.dom.morphisms},
    )
