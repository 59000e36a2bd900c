"""The paper's reference constructions, kept as oracles for the engine.

The engine computes what it needs in closed form: acquisition by example
as a coproduct or pushout of presheaves, the fibration of a speaker as
its category of elements, a lexicon's language by contraction search.
The constructions here are the ones the paper defines those results by:

- the discrete-fibration check by exhaustive enumeration, fibres and
  reindexing, and the way back from a fibration to its presheaf;
- isomorphism of fibrations over a shared base;
- the comprehensive factorization, through connected components of
  comma categories;
- the order on basic types as a fixpoint of transitive steps, and
  pregroup reduction search with replayable derivations, over
  contractions and induced steps, and sentence checks built on it;
- an explanation's check, and its limit over every morphism of the
  opposite shape, through the restriction of the speaker's meaning along
  the opposite diagram; the engine restricts the meaning to the edges of
  a free shape, or to every non-identity arrow of any other, and its
  limit reads no composition table;
- the meaning check by a sorted walk of every object, morphism and
  compose entry, which the engine makes over the non-empty fibres only,
  and the dense form of a meaning that it reads: the engine stores only
  the non-empty fibres and the graphs out of them (``dense``);
- small helpers on categories and speakers that only the tests use.

The tests compare the engine with them. Nothing in ``fiblex`` imports
this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from fiblex.errors import BaseMismatch, DiagramOutsideLanguage, FiblexError
from fiblex.fibration import Fibration, grothendieck, pair_object_id
from fiblex.fincat import (
    CatFunctor,
    FinCategory,
    LimitCone,
    Quiver,
    SetFunctor,
    _derived,
    natural_iso_check,
    opposite,
    set_limit,
    validate_functor,
)
from fiblex.pregroup import Lexicon, PgType, Simple, TypeOrder, contractions
from fiblex.speaker import Explanation, ExplanationCheck, Speaker


# ---------------------------------------------------------------------------
# errors only the oracles raise


class NotAFibration(FiblexError):
    """A functor expected to be a discrete fibration is not one."""

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)


class UnknownWord(FiblexError):
    """A word is missing from the lexicon."""


# ---------------------------------------------------------------------------
# categories and functors


def identity_functor(cat: FinCategory) -> CatFunctor:
    return CatFunctor(cat, cat, {o: o for o in cat.objects}, {m: m for m in cat.morphisms})


def compose_functors(outer: CatFunctor, inner: CatFunctor) -> CatFunctor:
    if inner.cod != outer.dom:
        raise BaseMismatch("functors do not compose")
    return CatFunctor(
        dom=inner.dom,
        cod=outer.cod,
        omap={o: outer.omap[inner.omap[o]] for o in inner.dom.objects},
        mmap={m: outer.mmap[inner.mmap[m]] for m in inner.dom.morphisms},
    )


def discrete_quiver(vertices: Iterable[str]) -> Quiver:
    return Quiver(frozenset(vertices), frozenset(), {}, {})


def underlying_quiver(cat: FinCategory) -> Quiver:
    """Forget composition: every morphism (identities included) becomes an edge."""
    return Quiver(cat.objects, cat.morphisms, dict(cat.src), dict(cat.tgt))


class _UnionFind:
    """Disjoint sets by parent pointers, kept here apart from the engine,
    which finds its classes by reachability."""

    def __init__(self, items: Iterable[str]):
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def blocks(uf: _UnionFind) -> dict[str, str]:
    """Map each item of a union-find to the least identifier in its block."""
    rep: dict[str, str] = {}
    for x in uf.parent:
        r = uf.find(x)
        if r not in rep or x < rep[r]:
            rep[r] = x
    return {x: rep[uf.find(x)] for x in uf.parent}


def connected_components(cat: FinCategory) -> dict[str, str]:
    """Partition objects by zigzags of morphisms.

    Returns the map sending each object to its component representative,
    the least object identifier in the block.
    """
    uf = _UnionFind(cat.objects)
    for m in cat.morphisms:
        uf.union(cat.src[m], cat.tgt[m])
    return blocks(uf)


def dense(fun: SetFunctor) -> SetFunctor:
    """``fun`` with every entry its sparse form leaves out written in: the
    empty fibre for an object absent from ``value``, and the empty graph
    for a morphism absent from ``action`` whose source fibre is empty. A
    graph absent out of a non-empty fibre stays absent, for
    ``validate_setfunctor`` to find."""
    base = fun.base
    value = {o: fun.value.get(o, frozenset()) for o in base.objects}
    action = dict(fun.action)
    for m in base.morphisms:
        if m not in action and not value[base.src[m]]:
            action[m] = {}
    return _derived(SetFunctor, base=base, value={**fun.value, **value}, action=action)


def validate_setfunctor(fun: SetFunctor) -> list[str]:
    """Check that the actions are total functions and functorial, walking
    every table in sorted order. It reads every entry, so a meaning in
    the engine's sparse form is checked as ``validate_setfunctor(dense(fun))``."""
    report: list[str] = []
    base = fun.base
    for o in sorted(base.objects):
        if o not in fun.value:
            report.append(f"object {o} has no value set")
    for m in sorted(base.morphisms):
        act = fun.action.get(m)
        if act is None:
            report.append(f"morphism {m} has no action")
            continue
        dom_set = fun.value.get(base.src[m], frozenset())
        cod_set = fun.value.get(base.tgt[m], frozenset())
        if set(act) != set(dom_set):
            report.append(f"action of {m} is not total on the source value set")
        if not set(act.values()) <= set(cod_set):
            report.append(f"action of {m} leaves the target value set")
    for o in sorted(base.objects):
        i = base.identity[o]
        act = fun.action.get(i, {})
        if any(act.get(x) != x for x in fun.value.get(o, frozenset())):
            report.append(f"action of identity {i} is not the identity function")
    for (g, f), gf in sorted(base.compose.items()):
        ag, af, agf = fun.action.get(g, {}), fun.action.get(f, {}), fun.action.get(gf, {})
        for x in sorted(fun.value.get(base.src[f], frozenset())):
            if agf.get(x) != ag.get(af.get(x)):
                report.append(f"action of composite {gf} disagrees with the composite action at {x}")
                break
    return report


# ---------------------------------------------------------------------------
# discrete fibrations


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


def comma_object_id(d: str, f: str) -> str:
    """The name of the comma object of ``d`` over ``f``, written here
    apart from the engine's ``tuple_name``."""
    return f"({d},{f})"


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
        components[anchor] = blocks(uf)

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


# ---------------------------------------------------------------------------
# speakers


def restriction_along_embedding(new, old_language: FinCategory) -> SetFunctor:
    """Restrict a post-paraphrasis speaker's meaning along the canonical
    embedding of the old language (0-edge words keep their names)."""
    meaning = dense(new.meaning)
    return SetFunctor(
        base=opposite(old_language),
        value={o: meaning.value[o] for o in old_language.objects},
        action={m: meaning.action[m] for m in old_language.morphisms},
    )


# ---------------------------------------------------------------------------
# pregroup reductions


def type_order_closure(
    basics: Iterable[str], pairs: Iterable[tuple[str, str]] = ()
) -> TypeOrder:
    """The order ``type_order`` builds, closed by adding composites of
    pairs until none is new."""
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


@dataclass(frozen=True)
class Step:
    """One rewrite: ``contract`` deletes positions ``pos`` and ``pos+1``,
    ``induce`` replaces the simple type at ``pos``."""

    kind: str
    pos: int
    before: tuple[Simple, ...]
    after: tuple[Simple, ...]


Derivation = tuple[Step, ...]


def induced_steps(t: PgType, order: TypeOrder) -> Iterable[tuple[int, Simple, PgType]]:
    """Replace ``(a, 0)`` by ``(b, 0)`` when ``a <= b``: order steps apply
    at adjoint order zero only."""
    for i, (a, z) in enumerate(t):
        if z != 0:
            continue
        for b in sorted(order.basics):
            if b != a and order.holds(a, b):
                yield i, (b, 0), t[:i] + ((b, 0),) + t[i + 1 :]


def reduce(t: PgType, goal: PgType, order: TypeOrder) -> Optional[Derivation]:
    """Search breadth first for a rewrite sequence from ``t`` to ``goal``
    over contractions and induced steps; None when the exhaustive search
    runs out of states. Moves never lengthen a sequence, so the state
    space is finite."""
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


# ---------------------------------------------------------------------------
# explanations over every morphism of the shape


def precompose(fun: SetFunctor, along: CatFunctor) -> SetFunctor:
    """Restrict a Set-valued functor along a functor into its base."""
    if along.cod != fun.base:
        raise BaseMismatch("functor codomain differs from the Set-valued functor base")
    fun = dense(fun)
    return SetFunctor(
        base=along.dom,
        value={d: fun.value[along.omap[d]] for d in along.dom.objects},
        action={m: fun.action[along.mmap[m]] for m in along.dom.morphisms},
    )


def composite_meaning(speaker: Speaker, explanation: Explanation) -> SetFunctor:
    """The explanation's diagram of meanings, as a Set-valued functor on
    the opposite shape (the orientation limits are taken in)."""
    diagram = explanation.diagram
    if diagram.dom != explanation.shape:
        raise DiagramOutsideLanguage("diagram domain is not the declared shape")
    if diagram.cod != speaker.language:
        raise DiagramOutsideLanguage("diagram does not land in the speaker's language")
    opposite_diagram = CatFunctor(opposite(diagram.dom), opposite(diagram.cod), diagram.omap,
                                  diagram.mmap)
    return precompose(speaker.meaning, opposite_diagram)


def limit_over_every_path(
    speaker: Speaker, explanation: Explanation
) -> tuple[list[str], Optional[LimitCone]]:
    """The diagram's problems, one check per compose entry of the shape,
    and the limit of the composite meaning over every morphism of the
    shape, free or not; no limit when a diagram with problems sends an
    object or arrow outside the language, or an arrow whose action is
    defined on another fibre."""
    diagram, lang = explanation.diagram, speaker.language
    problems = validate_functor(diagram)
    if problems:
        shape = diagram.dom
        if any(diagram.omap.get(a) not in lang.objects for a in shape.objects):
            return problems, None
        for m in shape.morphisms:
            image = diagram.mmap.get(m)
            if image not in lang.morphisms or not (
                speaker.fibre(diagram.omap[shape.tgt[m]])
                <= speaker.meaning.action.get(image, {}).keys()
            ):
                return problems, None
    return problems, set_limit(composite_meaning(speaker, explanation))


def validate_explanation_over_every_path(
    speaker: Speaker, explanation: Explanation
) -> ExplanationCheck:
    """``validate_explanation`` with the limit of ``limit_over_every_path``."""
    if explanation.target not in speaker.language.objects:
        raise FiblexError(f"target {explanation.target} is not a language object")
    problems, cone = limit_over_every_path(speaker, explanation)
    if cone is None:
        empty = LimitCone(order=tuple(sorted(explanation.shape.objects)), apex=frozenset())
        return ExplanationCheck(False, False, False, empty, tuple(problems))
    fibre = speaker.fibre(explanation.target)
    emb = explanation.embedding
    if emb is not None:
        if set(emb) != set(cone.apex):
            problems.append("embedding domain differs from the computed apex")
        if len(set(emb.values())) != len(emb):
            problems.append("embedding is not injective")
        if not set(emb.values()) <= set(fibre):
            problems.append("embedding leaves the target fibre")
        exact = not problems and set(emb.values()) == set(fibre)
    else:
        exact = not problems and len(cone.apex) == len(fibre)
    return ExplanationCheck(not problems, exact, not cone.apex, cone, tuple(problems))
