"""Discrete fibrations over a finite base category.

A functor into a base is a discrete fibration when every base morphism
into the image of a total object lifts uniquely with that object as
target. Such functors are interchangeable with Set-valued functors on
the opposite base, and the engine holds meanings as the latter:
``grothendieck`` builds the category of elements of one, the fibration
of a speaker, on demand. The reference constructions (the fibration
check, the way back to a presheaf, the comprehensive factorization) are
oracles in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import NotComposable
from .fincat import CatFunctor, FinCategory, SetFunctor, compose_table, opposite


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
        for x in sorted(fun.fibre(o)):
            objects[pair_object_id(o, x)] = (o, x)

    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    morphs: dict[str, tuple[str, str]] = {}  # morphism id -> (base morphism, target element)
    for f in sorted(lang.morphisms):
        t_obj = lang.tgt[f]
        s_obj = lang.src[f]
        for x in sorted(fun.fibre(t_obj)):
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
