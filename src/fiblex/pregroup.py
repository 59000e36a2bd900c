"""Pregroup types, lexicons, and reduction categories.

Types are sequences of simple types ``(basic, z)`` where the adjoint
order ``z`` counts right adjoints (positive) or left adjoints
(negative). A contraction deletes an adjacent pair ``(a, z)(b, z + 1)``
when ``a <= b`` for even ``z``, or ``b <= a`` for odd ``z``. Since
contractions strictly shorten a sequence, the types reachable from a
phrase are finitely many. Categories generated from a lexicon are
posetal: a reduction path is a truth, not a choice, so two type strings
carry at most one morphism between them. Both the order and the
reductions are closed by ``fincat``'s reachability walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable

from .errors import FiblexError, IdentifierClash
from .fincat import FinCategory, _reach, compose_table

Simple = tuple[str, int]
PgType = tuple[Simple, ...]


@dataclass(frozen=True)
class TypeOrder:
    """Basic types with a partial order, stored reflexively and
    transitively closed; antisymmetry is enforced at construction."""

    basics: frozenset[str]
    leq: frozenset[tuple[str, str]]

    def holds(self, a: str, b: str) -> bool:
        return (a, b) in self.leq


def type_order(basics: Iterable[str], pairs: Iterable[tuple[str, str]] = ()) -> TypeOrder:
    """The reflexive, transitive closure of ``pairs``; a cycle, or a type
    outside ``basics``, raises ``FiblexError``."""
    basics = frozenset(basics)
    above: dict[str, list[str]] = {a: [] for a in basics}
    for a, b in pairs:
        above.setdefault(a, []).append(b)
        above.setdefault(b, [])
    leq = {(a, b) for a in above for b in _reach(above.__getitem__, a)}
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
                _check_type(repr(word), t, self.order, self.z_max)
        _check_type("the sentence type", self.sentence, self.order, self.z_max)


def _check_type(label: str, t: PgType, order: TypeOrder, z_max: int) -> None:
    for base, z in t:
        if base not in order.basics:
            raise FiblexError(f"{label} uses unknown basic type {base!r}")
        if abs(z) > z_max:
            raise FiblexError(f"{label} exceeds z_max={z_max}")


def language_category_from_lexicon(
    lex: Lexicon, phrases: Iterable[str]
) -> FinCategory:
    """The finite category of type strings reachable from the given
    phrases, with a morphism ``t -> u`` exactly when ``t`` rewrites to
    ``u`` by contractions.

    Contractions strictly shorten, so the rewrite relation is acyclic
    and the category is posetal: distinct irreducible types (for
    example two bare noun phrases) share no morphisms at all. A phrase
    with a basic type the order lacks raises ``FiblexError``, and two
    types or morphisms that would share a name raise ``IdentifierClash``.
    """
    start = []
    for p in phrases:
        start.append(parse_type(p, lex.z_max))
        _check_type(f"phrase {p!r}", start[-1], lex.order, lex.z_max)

    @cache
    def step(t: PgType) -> frozenset[PgType]:  # the types one contraction away
        return frozenset(shorter for _i, shorter in contractions(t, lex.order))

    types = set().union(*(_reach(step, t) for t in start))
    # contractions shorten, so no type reaches itself
    reach = {t: _reach(step, t) - {t} for t in types}

    names = {t: format_type(t) if t else "1" for t in types}
    objects = frozenset(names.values())
    if len(objects) < len(names):  # format_type is injective, so a basic type is named 1
        raise IdentifierClash("the empty type and the basic type 1 share the object name 1")
    identity = {o: f"id_{o}" for o in objects}
    src = {i: o for o, i in identity.items()}
    tgt = dict(src)
    for t in types:
        for u in reach[t]:
            mid = f"{names[t]}→{names[u]}"
            if mid in src:
                raise IdentifierClash(f"two morphisms share the name {mid}")
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
