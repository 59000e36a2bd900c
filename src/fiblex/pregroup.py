"""Pregroup types, lexicons, and reduction categories.

Types are sequences of simple types ``(basic, z)`` where the adjoint
order ``z`` counts right adjoints (positive) or left adjoints
(negative). A contraction deletes an adjacent pair ``(a, z)(b, z + 1)``
when ``a <= b`` for even ``z``, or ``b <= a`` for odd ``z``. Since
contractions strictly shorten a sequence, the types reachable from a
phrase are finitely many. Categories generated from a lexicon are
posetal: a reduction path is a truth, not a choice, so two type strings
carry at most one morphism between them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .errors import FiblexError
from .fincat import FinCategory, compose_table

Simple = tuple[str, int]
PgType = tuple[Simple, ...]


@dataclass(frozen=True)
class TypeOrder:
    """Basic types with a partial order, stored reflexively and
    transitively closed; antisymmetry is enforced at construction."""

    basics: frozenset[str]
    leq: frozenset[tuple[str, str]]

    def __le__(self, pair):  # pragma: no cover - guard against misuse
        raise TypeError("use TypeOrder.holds(a, b)")

    def holds(self, a: str, b: str) -> bool:
        return (a, b) in self.leq


def type_order(basics: Iterable[str], pairs: Iterable[tuple[str, str]] = ()) -> TypeOrder:
    basics = frozenset(basics)
    leq = {(a, a) for a in basics}
    leq.update((a, b) for a, b in pairs)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(leq), repeat=2):
            if b == c and (a, d) not in leq:
                leq.add((a, d))
                changed = True
    for a, b in leq:
        if a != b and (b, a) in leq:
            raise FiblexError(f"order is not antisymmetric: {a} and {b} are equivalent")
        if a not in basics or b not in basics:
            raise FiblexError(f"order mentions unknown basic type in ({a}, {b})")
    return TypeOrder(basics=basics, leq=frozenset(leq))


def parse_type(text: str, z_max: int = 2) -> PgType:
    """Parse ``"n^r s n^l"`` style type strings: caret plus a run of
    ``r`` or ``l`` marks iterated adjoints."""
    simples: list[Simple] = []
    for token in text.split():
        if "^" in token:
            base, marks = token.split("^", 1)
            if not marks or set(marks) not in ({"r"}, {"l"}):
                raise FiblexError(f"malformed adjoint marker in {token!r}")
            z = len(marks) if marks[0] == "r" else -len(marks)
        else:
            base, z = token, 0
        if not base:
            raise FiblexError(f"malformed simple type {token!r}")
        if abs(z) > z_max:
            raise FiblexError(f"adjoint order of {token!r} exceeds z_max={z_max}")
        simples.append((base, z))
    return tuple(simples)


def format_type(t: PgType) -> str:
    out = []
    for base, z in t:
        if z == 0:
            out.append(base)
        elif z > 0:
            out.append(f"{base}^{'r' * z}")
        else:
            out.append(f"{base}^{'l' * -z}")
    return " ".join(out)


def contractions(t: PgType, order: TypeOrder) -> Iterable[tuple[int, PgType]]:
    for i in range(len(t) - 1):
        (a, z), (b, z1) = t[i], t[i + 1]
        if z1 != z + 1:
            continue
        if (z % 2 == 0 and order.holds(a, b)) or (z % 2 != 0 and order.holds(b, a)):
            yield i, t[:i] + t[i + 2 :]


# ---------------------------------------------------------------------------
# lexicons


@dataclass(frozen=True)
class Lexicon:
    order: TypeOrder
    entries: dict[str, tuple[PgType, ...]]
    sentence: PgType
    z_max: int = 2

    def __post_init__(self):
        object.__setattr__(self, "entries", {w: tuple(ts) for w, ts in self.entries.items()})
        for word, types in self.entries.items():
            if not types:
                raise FiblexError(f"lexicon entry {word!r} has no types")
            for t in types:
                for base, z in t:
                    if base not in self.order.basics:
                        raise FiblexError(f"{word!r} uses unknown basic type {base!r}")
                    if abs(z) > self.z_max:
                        raise FiblexError(f"{word!r} exceeds z_max={self.z_max}")


def language_category_from_lexicon(
    lex: Lexicon, phrases: Iterable[str]
) -> FinCategory:
    """The finite category of type strings reachable from the given
    phrases, with a morphism ``t -> u`` exactly when ``t`` rewrites to
    ``u`` by contractions.

    Contractions strictly shorten, so the rewrite relation is acyclic
    and the category is posetal: distinct irreducible types (for
    example two bare noun phrases) share no morphisms at all.
    """
    start = [parse_type(p, lex.z_max) for p in phrases]
    reached: dict[PgType, None] = {}
    stack = list(start)
    steps: dict[PgType, set[PgType]] = {}
    while stack:
        t = stack.pop()
        if t in reached:
            continue
        reached[t] = None
        steps[t] = set()
        for _i, shorter in contractions(t, lex.order):
            steps[t].add(shorter)
            stack.append(shorter)

    reach: dict[PgType, set[PgType]] = {t: set() for t in reached}

    def explore(t: PgType) -> set[PgType]:
        if reach[t]:
            return reach[t]
        acc: set[PgType] = set()
        for u in steps[t]:
            acc.add(u)
            acc |= explore(u)
        reach[t] = acc
        return acc

    for t in reached:
        explore(t)

    names = {t: format_type(t) if t else "1" for t in reached}
    objects = frozenset(names.values())
    identity = {o: f"id_{o}" for o in objects}
    src = {i: o for o, i in identity.items()}
    tgt = dict(src)
    for t in reached:
        for u in reach[t]:
            mid = f"{names[t]}→{names[u]}"
            src[mid] = names[t]
            tgt[mid] = names[u]

    def glue(g: str, f: str) -> str:
        if src[g] == tgt[g]:  # g is an identity
            return f
        if src[f] == tgt[f]:
            return g
        return f"{src[f]}→{tgt[g]}"

    return FinCategory(
        objects=objects,
        morphisms=frozenset(src),
        src=src,
        tgt=tgt,
        identity=identity,
        compose=compose_table(src, tgt, glue),
    )
