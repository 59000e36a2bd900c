"""Pregroup types, reduction search, and reduction categories.

Types are sequences of simple types ``(basic, z)`` where the adjoint
order ``z`` counts right adjoints (positive) or left adjoints
(negative). Reductions are found by breadth-first search over two moves:

* contraction: delete an adjacent pair ``(a, z)(b, z + 1)`` when
  ``a <= b`` for even ``z``, or ``b <= a`` for odd ``z``;
* induced step: replace ``(a, 0)`` by ``(b, 0)`` when ``a <= b``
  (order steps are applied at adjoint order zero only).

Since moves never lengthen a sequence the state space is finite and the
search is memoized, hence terminating. Categories generated from a
lexicon are posetal: a reduction path is a truth, not a choice, so two
type strings carry at most one morphism between them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import FiblexError, UnknownWord
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


@dataclass(frozen=True)
class Step:
    """One rewrite: ``contract`` deletes positions ``pos`` and ``pos+1``,
    ``induce`` replaces the simple type at ``pos``."""

    kind: str
    pos: int
    before: tuple[Simple, ...]
    after: tuple[Simple, ...]


Derivation = tuple[Step, ...]


def contractions(t: PgType, order: TypeOrder) -> Iterable[tuple[int, PgType]]:
    for i in range(len(t) - 1):
        (a, z), (b, z1) = t[i], t[i + 1]
        if z1 != z + 1:
            continue
        if (z % 2 == 0 and order.holds(a, b)) or (z % 2 != 0 and order.holds(b, a)):
            yield i, t[:i] + t[i + 2 :]


def induced_steps(t: PgType, order: TypeOrder) -> Iterable[tuple[int, Simple, PgType]]:
    for i, (a, z) in enumerate(t):
        if z != 0:
            continue
        for b in sorted(order.basics):
            if b != a and order.holds(a, b):
                yield i, (b, 0), t[:i] + ((b, 0),) + t[i + 1 :]


def reduce(t: PgType, goal: PgType, order: TypeOrder) -> Optional[Derivation]:
    """Search for a rewrite sequence from ``t`` to ``goal``; None when
    the exhaustive search runs out of states."""
    if t == goal:
        return ()
    seen = {t}
    parents: dict[PgType, tuple[PgType, Step]] = {}
    frontier = [t]
    while frontier:
        nxt = []
        for state in frontier:
            moves: list[tuple[Step, PgType]] = []
            for i, shorter in contractions(state, order):
                moves.append(
                    (Step("contract", i, (state[i], state[i + 1]), ()), shorter)
                )
            for i, repl, changed in induced_steps(state, order):
                moves.append((Step("induce", i, (state[i],), (repl,)), changed))
            for step, out in moves:
                if out in seen:
                    continue
                seen.add(out)
                parents[out] = (state, step)
                if out == goal:
                    path = []
                    cur = out
                    while cur != t:
                        prev, st = parents[cur]
                        path.append(st)
                        cur = prev
                    return tuple(reversed(path))
                nxt.append(out)
        frontier = nxt
    return None


def replay(t: PgType, derivation: Derivation) -> PgType:
    """Apply a derivation step by step, validating each move."""
    cur = t
    for step in derivation:
        if step.kind == "contract":
            if cur[step.pos : step.pos + 2] != step.before:
                raise FiblexError(f"contraction does not match the state at {step.pos}")
            cur = cur[: step.pos] + cur[step.pos + 2 :]
        elif step.kind == "induce":
            if (cur[step.pos],) != step.before:
                raise FiblexError(f"induced step does not match the state at {step.pos}")
            cur = cur[: step.pos] + step.after + cur[step.pos + 1 :]
        else:
            raise FiblexError(f"unknown step kind {step.kind!r}")
    return cur


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


@dataclass(frozen=True)
class SentenceCheck:
    ok: bool
    assignment: Optional[tuple[PgType, ...]]
    derivation: Optional[Derivation]


def sentence_check(lex: Lexicon, words: Sequence[str]) -> SentenceCheck:
    """Try every per-word type choice and reduce to the sentence type."""
    for w in words:
        if w not in lex.entries:
            raise UnknownWord(f"word {w!r} is not in the lexicon")
    for choice in itertools.product(*(lex.entries[w] for w in words)):
        whole = tuple(itertools.chain.from_iterable(choice))
        derivation = reduce(whole, lex.sentence, lex.order)
        if derivation is not None:
            return SentenceCheck(ok=True, assignment=choice, derivation=derivation)
    return SentenceCheck(ok=False, assignment=None, derivation=None)


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
