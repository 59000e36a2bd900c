"""Speakers and vocabulary acquisition.

A speaker is a finite language category together with a meaning
assignment: a Set-valued functor on the opposite language, equivalently
a discrete fibration over the language (its category of elements, built
on first read). Words are acquired in three ways:

* by example: fresh witnesses are adjoined over the word and the broken
  projection is repaired by comprehensive factorization, computed in
  closed form as the coproduct of the meaning with one representable per
  witness;
* by merged example: as above, but prior meaning over the word is first
  glued onto the witnesses along a compatibility map, an objectwise
  pushout;
* by paraphrasis: the learner computes the limit of an uttered
  explanation, installs it as the fibre over the word, and the language
  itself grows one morphism per cone leg (freely, via a collage), whose
  action is a column of the apex. A functorial diagram on a shape that
  ``free_category`` or ``discrete_category`` built is limited over the
  shape's edges, any other over every non-identity arrow of its shape.

Every acquisition returns a fresh speaker plus a report of what changed,
and never mutates its inputs.

Validation happens where data enters: ``Speaker(...)`` checks the
language axioms, the meaning's base and functoriality, and
``Explanation(...)`` that its shape is a category. The speakers the
acquisitions build (presheaves by construction) and the explanations the
scenario layer builds (over shapes its constructions or decoder vouch
for) are assembled by ``_derived`` without those checks. A diagram's maps,
a merged example's glue map and the actions given through
``edge_overrides`` are user data, checked where they are used.
"""

from __future__ import annotations

import json
from collections import ChainMap
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

from .collage import extend_set_functor, fp_collage
from .errors import (
    BaseMismatch,
    DiagramOutsideLanguage,
    EmptyExample,
    ExampleNotInTeacherFibre,
    FiblexError,
    FibreNotEmpty,
    IdentifierClash,
    UnforcedActionAtL,
)
from .fibration import Fibration, grothendieck, pair_object_id
from .fincat import (
    CatFunctor,
    FinCategory,
    LimitCone,
    SetFunctor,
    _NO_FIBRE,
    _derived,
    _reach,
    opposite,
    pair_names,
    quiver_from_edges,
    set_limit,
    terminal_category,
    tuple_name,
    validate_category,
    validate_functor,
    validate_setfunctor,
)


@dataclass(frozen=True)
class Speaker:
    """A named language category plus its meaning assignment.

    ``meaning`` must be a Set-valued functor on ``opposite(language)``,
    which stores only the fibres the speaker knows: read them with
    ``fibre``. The induced fibration over the language is built on first
    read and cached; it takes no part in equality or ``repr``.
    """

    name: str
    language: FinCategory
    meaning: SetFunctor

    def __post_init__(self):
        problems = validate_category(self.language)
        if problems:
            raise FiblexError(f"speaker {self.name}: invalid language: {problems[0]}")
        if self.meaning.base != opposite(self.language):
            raise BaseMismatch(
                f"speaker {self.name}: meaning must live on the opposite language"
            )
        problems = validate_setfunctor(self.meaning)
        if problems:
            raise FiblexError(f"speaker {self.name}: invalid meaning: {problems[0]}")

    @cached_property
    def fibration(self) -> Fibration:
        return grothendieck(self.meaning)

    def fibre(self, word: str) -> frozenset[str]:
        return self.meaning.fibre(word)


@dataclass(frozen=True)
class Explanation:
    """A finite diagram in a language, aimed at one of its objects.

    ``embedding`` optionally identifies the limit's tuples with fibre
    elements of the target; when absent, validation treats the tuples
    themselves as the intended fibre content. The constructor checks that
    ``shape`` is a category; ``validate_explanation`` checks the diagram,
    once per explanation: the check depends on the diagram alone, so it
    is cached with the instance and the learner's limit in a paraphrasis
    reuses the teacher's.
    """

    shape: FinCategory
    diagram: CatFunctor
    target: str
    embedding: Optional[dict[tuple[str, ...], str]] = None

    def __post_init__(self):
        problems = validate_category(self.shape)
        if problems:
            raise FiblexError(f"invalid explanation shape: {problems[0]}")
        if self.embedding is not None:
            object.__setattr__(self, "embedding", dict(self.embedding))

    @cached_property
    def _along_paths(self) -> bool:
        """``_preserves_paths`` of the diagram over the shape's paths."""
        return _preserves_paths(self.diagram, self.shape.paths)

    @cached_property
    def _functor_problems(self) -> tuple[str, ...]:
        """``validate_functor`` of the diagram."""
        return tuple(validate_functor(self.diagram))


@dataclass(frozen=True)
class ExplanationCheck:
    valid: bool
    exact: bool
    vacuous: bool
    limit: LimitCone
    problems: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "exact": self.exact,
            "vacuous": self.vacuous,
            "apex": [tuple_name(t) for t in self.limit.sorted_apex()],
            "apex_size": len(self.limit.apex),
            "problems": list(self.problems),
        }


@dataclass(frozen=True)
class AcquisitionReport:
    """What an acquisition changed. ``fibres_before`` and ``fibres_after``
    give the fibre sizes over the objects whose fibres the event may have
    changed, and only those: the word's down-set for an example or a
    merged example, the word for a paraphrasis, none for no-sense."""

    speaker: str
    event: str
    kind: str
    word: str
    outcome: str  # "learned" or "no-sense"
    fibres_before: dict[str, int]
    fibres_after: dict[str, int]
    new_elements: dict[str, tuple[str, ...]]
    new_morphisms: tuple[str, ...] = ()
    apex: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "speaker": self.speaker,
            "event": self.event,
            "kind": self.kind,
            "word": self.word,
            "outcome": self.outcome,
            "fibres_before": self.fibres_before,
            "fibres_after": self.fibres_after,
            "new_elements": {k: list(v) for k, v in self.new_elements.items()},
            "new_morphisms": list(self.new_morphisms),
            "apex": list(self.apex),
        }


def _report(learner: Speaker, out: Speaker, changed: Iterable[str], event: str, kind: str,
            word: str, outcome: str, new_morphisms=(), apex=()) -> AcquisitionReport:
    """The report of an acquisition that changed the fibres over ``changed``
    only; it reads nothing else of either speaker."""
    old, new = learner.meaning.fibre, out.meaning.fibre
    before, after, new_elements = {}, {}, {}
    for o in sorted(changed):
        fibre, prior = new(o), old(o)
        before[o], after[o] = len(prior), len(fibre)
        gained = tuple(sorted(fibre - prior))
        if gained:
            new_elements[o] = gained
    return AcquisitionReport(
        speaker=learner.name,
        event=event,
        kind=kind,
        word=word,
        outcome=outcome,
        fibres_before=before,
        fibres_after=after,
        new_elements=new_elements,
        new_morphisms=tuple(new_morphisms),
        apex=tuple(apex),
    )


# ---------------------------------------------------------------------------
# explanations


def _acts_on_its_fibres(speaker: Speaker, diagram: CatFunctor) -> bool:
    """Whether every arrow of the diagram acts on the whole fibre over the
    image of its target, so that its diagram of meanings can be evaluated."""
    lang, graph = speaker.language, speaker.meaning.action.get
    if any(diagram.omap.get(a) not in lang.objects for a in diagram.dom.objects):
        return False
    return all(
        diagram.mmap.get(m) in lang.morphisms
        and speaker.fibre(diagram.omap[diagram.dom.tgt[m]]) <= graph(diagram.mmap[m], {}).keys()
        for m in diagram.dom.morphisms
    )


def _limit(speaker: Speaker, explanation: Explanation) -> tuple[list[str], Optional[LimitCone]]:
    """The diagram's problems, and the limit of its meanings or None when
    they cannot be evaluated: when a diagram with problems sends an object
    or arrow outside the language, or an arrow whose action is defined on
    another fibre.

    On a shape that ``free_category`` or ``discrete_category`` built (a
    discrete shape is free on no edges), closed like the language, a
    diagram is a functor exactly when it maps each object and morphism
    into the language, keeps endpoints and identities, and sends each path
    to the composite of its edges' images (Mac Lane, II.7). Such a diagram
    has no problems, and a cone over it is a cone over its edges alone.
    Any other diagram is checked by ``validate_functor`` and limited over
    every non-identity arrow. ``set_limit`` reads no composition table, so
    the two limits are one construction over two sets of arrows. Either
    check runs once per explanation (see ``Explanation``).
    """
    shape, diagram, lang = explanation.shape, explanation.diagram, speaker.language
    if (shape.paths is not None and shape.closed and lang.closed and diagram.dom is shape
            and diagram.cod is lang and explanation._along_paths):
        return [], set_limit(_restrict(speaker, diagram, edges=True))
    problems = list(explanation._functor_problems)
    if problems and not _acts_on_its_fibres(speaker, diagram):
        return problems, None
    # ``is`` first: comparing a collage with ``==`` glues its table
    if diagram.dom is not shape and diagram.dom != shape:
        raise DiagramOutsideLanguage("diagram domain is not the declared shape")
    if diagram.cod is not lang and diagram.cod != lang:
        raise DiagramOutsideLanguage("diagram does not land in the speaker's language")
    return problems, set_limit(_restrict(speaker, diagram, edges=False))


def _preserves_paths(diagram: CatFunctor, paths: Mapping[str, tuple[str, ...]]) -> bool:
    """Whether a diagram on a free shape with these ``paths`` is a functor
    into its closed codomain: the checks of ``validate_functor``, with one
    fold of the edges' images per morphism, from the identity at its
    source, for its checks per identity and per compose entry."""
    dom, cod, omap, mmap = diagram.dom, diagram.cod, diagram.omap, diagram.mmap
    if any(omap.get(o) not in cod.objects for o in dom.objects):
        return False
    morphisms, compose, identity = cod.morphisms, cod.compose, cod.identity
    for m, path in paths.items():
        fm, s = mmap.get(m), omap[dom.src[m]]
        if fm not in morphisms or cod.src[fm] != s or cod.tgt[fm] != omap[dom.tgt[m]]:
            return False
        image = identity[s]
        for e in path:
            image = compose.get((mmap.get(e), image))
        if image != fm:
            return False
    return True


def _restrict(speaker: Speaker, diagram: CatFunctor, edges: bool) -> SetFunctor:
    """The diagram's meanings on the opposite of the edges of its free
    shape, or of every non-identity arrow of its shape, and the
    identities: all that ``set_limit`` reads of its base. Only the
    composites with an identity are kept, so the base is flagged not
    closed. The base depends on the shape alone: it is built once per
    shape and set of arrows and cached with the shape, and so is the plan
    ``set_limit`` caches with it; only the tables of meanings are the
    speaker's."""
    shape, meaning = diagram.dom, speaker.meaning
    key = "_edge_base" if edges else "_arrow_base"
    base = shape.__dict__.get(key)
    if base is None:
        identity = shape.identity
        src = {i: o for o, i in identity.items()}
        tgt = dict(src)
        compose = {(i, i): i for i in src}
        arrows = ([m for m, path in shape.paths.items() if len(path) == 1] if edges
                  else shape.non_identities())
        for m in arrows:  # reversed
            s = src[m] = shape.tgt[m]
            t = tgt[m] = shape.src[m]
            compose[m, identity[s]] = compose[identity[t], m] = m
        base = _derived(FinCategory, objects=shape.objects, morphisms=frozenset(src), src=src,
                        tgt=tgt, identity=identity, compose=compose, closed=False)
        object.__setattr__(shape, key, base)
    value, action, omap, mmap = meaning.value, meaning.action, diagram.omap, diagram.mmap
    # a fibre per shape object, empty ones too: the tracer's limit counters read them all
    return _derived(SetFunctor, base=base,
                    value={a: value.get(omap[a], _NO_FIBRE) for a in shape.objects},
                    action={m: action[mmap[m]] for m in base.src if mmap[m] in action})


def validate_explanation(speaker: Speaker, explanation: Explanation) -> ExplanationCheck:
    """Compute the limit of the explanation and compare it to the fibre.

    With an embedding, validity means the embedding is an injection of
    the apex into the target fibre and exactness that it is onto. With
    no embedding the apex tuples are taken as the defining fibre
    content: the explanation is then valid outright and exact when the
    cardinalities agree. An empty apex is flagged vacuous.

    A diagram that is no functor still has a limit, unless an arrow does
    not act on the whole fibre it is read from (see ``_limit``): the check
    is then invalid, lists the problems and carries an empty cone.
    """
    if explanation.target not in speaker.language.objects:
        raise DiagramOutsideLanguage(f"target {explanation.target} is not a language object")
    problems, cone = _limit(speaker, explanation)
    if cone is None:
        empty = LimitCone(order=tuple(sorted(explanation.shape.objects)), apex=frozenset())
        return ExplanationCheck(
            valid=False, exact=False, vacuous=False, limit=empty, problems=tuple(problems)
        )
    fibre = speaker.fibre(explanation.target)
    vacuous = not cone.apex

    if explanation.embedding is not None:
        emb = explanation.embedding
        if set(emb) != set(cone.apex):
            problems.append("embedding domain differs from the computed apex")
        if len(set(emb.values())) != len(emb):
            problems.append("embedding is not injective")
        if not set(emb.values()) <= set(fibre):
            problems.append("embedding leaves the target fibre")
        valid = not problems
        exact = valid and set(emb.values()) == set(fibre)
    else:
        valid = not problems
        exact = valid and len(cone.apex) == len(fibre)
    return ExplanationCheck(
        valid=valid, exact=exact, vacuous=vacuous, limit=cone, problems=tuple(problems)
    )


def tautological_explanation(speaker: Speaker, word: str) -> Explanation:
    """The explanation of a word by itself: terminal shape, identity
    embedding of the fibre."""
    if word not in speaker.language.objects:
        raise DiagramOutsideLanguage(f"{word} is not a language object")
    shape = terminal_category("pt")
    diagram = CatFunctor(
        shape,
        speaker.language,
        {"pt": word},
        {"id_pt": speaker.language.identity[word]},
    )
    embedding = {(x,): x for x in speaker.fibre(word)}
    return _derived(Explanation, shape=shape, diagram=diagram, target=word, embedding=embedding)


# ---------------------------------------------------------------------------
# acquisition by example


def _example_preconditions(learner: Speaker, word: str, witnesses: Sequence[str],
                           teacher: Optional[Speaker]) -> list[str]:
    if word not in learner.language.objects:
        raise DiagramOutsideLanguage(f"{word} is not an object of the learner's language")
    ordered = sorted(set(witnesses))
    if not ordered:
        raise EmptyExample("an example needs at least one witness")
    if teacher is not None:
        if word not in teacher.language.objects:
            raise DiagramOutsideLanguage(f"{word} is not in the teacher's language")
        missing = [s for s in ordered if s not in teacher.fibre(word)]
        if missing:
            raise ExampleNotInTeacherFibre(
                f"witnesses outside the teacher's fibre over {word}: {', '.join(missing)}"
            )
    return ordered


def _example_plan(lang: FinCategory, word: str) -> tuple:
    """What adjoining an example over ``word`` does in ``lang``, whatever
    the meaning, the witnesses and the glue: the arrows into the word by
    source, over the sorted down-set; for each object of the down-set,
    the arrows ``g`` into it (the language's ``by_tgt`` list) and, in one
    list, ``g`` by ``g``, the composites ``f∘g`` with the arrows ``f`` from
    the object into the word; and, by object, the arrows out of it that
    leave the down-set, filled in by the first example that renames
    elements of that object. Built on the first example over the word and
    cached with the language, by word (``_example_plans``)."""
    plans = lang.__dict__.setdefault("_example_plans", {})
    plan = plans.get(word)
    if plan is None:
        src, compose, by_tgt = lang.src, lang.compose, lang.by_tgt
        into: dict[str, list[str]] = {}
        for f in by_tgt[word]:
            into.setdefault(src[f], []).append(f)
        into = dict(sorted(into.items()))
        steps = {t: (by_tgt[t], [compose[f, g] for g in by_tgt[t] for f in arrows])
                 for t, arrows in into.items()}
        plan = plans[word] = into, steps, {}
    return plan


def _adjoin_example(learner: Speaker, word: str, witnesses: Sequence[str],
                    glue: Mapping[str, str], event_id: str) -> tuple[Speaker, Iterable[str]]:
    """The learner whose meaning F becomes the objectwise pushout
    F ← F(word)·Hom(−, word) → S·Hom(−, word) for the witness set S.

    Over each object ``L`` the elements are the classes of F(L) ⊔ S×Hom(L,
    word) under ``F(f)(y) ~ (glue(y), f)`` for ``y`` in F(word). With an
    empty fibre over the word nothing is joined and the result is the
    coproduct F ⊔ S·Hom(−, word), which is the comprehensive factorization
    of the learner's projection with the witnesses adjoined over the word.
    A class is named after its least identity anchor: an element ``x`` of
    F(L) for ``L`` other than the word (ordered as ``x@L``), or a witness
    ``s`` paired with the identity of the word. A class with no anchor is
    a single pair ``(s, f)``, named ``event:(s,f)``. The action of ``g``
    sends ``(s, f)`` to ``(s, f∘g)`` and acts on F(L) as F does.

    Only the down-set of the word, the objects with an arrow into it,
    gains elements, and only the links between glued members (none when
    the glue map is empty) are walked to find the classes, so an element
    in no glued class keeps its name. Only the graphs into the down-set,
    and out of an object whose elements were renamed, are rebuilt, each
    in one update; every other graph is the learner's own, shared. Which
    graphs those are, and the composites they read, depend on the
    language and the word alone: ``_example_plan`` builds them once and
    caches them with the language (``_example_plans``, by word), so the
    examples over one word by learners on one language share one plan.
    Returns the speaker and the down-set, the objects whose fibres may
    have changed.
    """
    lang, meaning = learner.language, learner.meaning
    into, steps, leaving = _example_plan(lang, word)
    ident = lang.identity[word]
    rows = {f: list(witnesses) if f == ident else pair_names(f"{event_id}:", witnesses, f)
            for f in lang.by_tgt[word]}  # arrow f -> the names of (s, f), s in witnesses
    position = {s: i for i, s in enumerate(witnesses)}
    value = dict(meaning.value)
    flat: dict[str, list[str]] = {}  # object -> the names of its rows, arrow by arrow
    renamed: dict[str, dict[str, str]] = {}  # object -> glued element -> its class name
    for obj, arrows in into.items():  # sorted, so that a clash is reported the same way on every run
        fibre = meaning.fibre(obj)
        glued: dict[tuple[str, str], str] = {}
        if glue:  # the whole fibre over the word is glued, so every object here has a class
            linked: dict = {}  # each glued member -> the members glued to it, both ways
            for f in arrows:
                for y, x in meaning.action[f].items():
                    p = (glue[y], f)
                    linked.setdefault(x, []).append(p)
                    linked.setdefault(p, []).append(x)
            ren: dict[str, str] = {}
            classed: set = set()
            for start in linked:  # each class is the members a walk from one of them reaches
                if start in classed:
                    continue
                cls = _reach(linked.__getitem__, start)
                classed |= cls
                if obj == word:
                    name = min(m[0] for m in cls if isinstance(m, tuple) and m[1] == ident)
                else:
                    name = min((m for m in cls if isinstance(m, str)),
                               key=lambda m: pair_object_id(obj, m))
                for m in cls:
                    if isinstance(m, tuple):
                        glued[m] = rows[m[1]][position[m[0]]] = name
                    elif m != name:
                        ren[m] = name
            if ren:
                renamed[obj] = ren
                fibre = {ren.get(x, x) for x in fibre}
        names = flat[obj] = list(chain.from_iterable(map(rows.__getitem__, arrows)))
        # each class name is in the fibre already, so a clash is a fresh pair's
        new = fibre.union(names)
        if len(new) != len(fibre) + len(names) - len(glued):
            _refuse_clash(obj, obj == word, ident, fibre, witnesses, arrows, rows, glued)
        value[obj] = frozenset(new)

    action, none, src = dict(meaning.action), {}, lang.src
    for t_obj, (arrows_in, composites) in steps.items():
        ren_t, flat_t = renamed.get(t_obj, none), flat[t_obj]
        images = chain.from_iterable(map(rows.__getitem__, composites))
        for g in arrows_in:
            ren_s = renamed.get(src[g], none) if renamed else none
            old = meaning.action.get(g, none)
            if ren_s or ren_t:
                graph = {ren_t.get(x, x): ren_s.get(y, y) for x, y in old.items()}
            else:
                graph = old.copy()
            # zip reads flat_t first, so it stops at its end and leaves the
            # images of the next arrow for the next graph
            graph.update(zip(flat_t, images))
            action[g] = graph
    for s_obj, ren in renamed.items():
        if s_obj not in leaving:
            leaving[s_obj] = [g for g in lang.by_src[s_obj] if lang.tgt[g] not in into]
        for g in leaving[s_obj]:
            if g in meaning.action:  # out of a non-empty fibre
                action[g] = {x: ren.get(y, y) for x, y in meaning.action[g].items()}
    out = _derived(Speaker, name=learner.name, language=lang,
                   meaning=_derived(SetFunctor, base=meaning.base, value=value, action=action))
    return out, into.keys()


def _refuse_clash(obj: str, at_word: bool, ident: str, fibre: Iterable[str],
                  witnesses: Sequence[str], arrows: Sequence[str],
                  rows: Mapping[str, Sequence[str]], glued: Mapping[tuple[str, str], str]) -> None:
    """Raise ``IdentifierClash`` for the first fresh pair ``(s, f)``, in
    row order, whose name is taken over ``obj``: by an element of the
    fibre or by an earlier fresh pair."""
    taken, named = set(fibre), {}
    for f in arrows:
        for s, name in zip(witnesses, rows[f]):
            if (s, f) in glued:
                continue
            if name in taken:
                raise IdentifierClash(
                    f"{name} over {obj} would name both"
                    f" {_origin(at_word, ident, named.get(name, name))}"
                    f" and {_origin(at_word, ident, (s, f))}"
                )
            taken.add(name)
            named[name] = (s, f)


def _origin(at_word: bool, ident: str, member) -> str:
    """What a class of an example's pushout is named after: a pair ``(s, f)``
    of a witness and an arrow into the word, or an element's name."""
    if isinstance(member, tuple):
        s, f = member
        return f"the witness {s}" if f == ident else f"the pair ({s}, {f})"
    return f"the witness {member}" if at_word else f"the element {member}"


def acquire_by_example(
    learner: Speaker,
    word: str,
    witnesses: Sequence[str],
    teacher: Optional[Speaker] = None,
    event_id: str = "example",
) -> tuple[Speaker, AcquisitionReport]:
    """Adjoin fresh witnesses over a word the learner has no meaning for.

    Adjoining the witnesses as isolated objects over the word and
    repairing the projection by comprehensive factorization gives, by
    co-Yoneda, the closed form F ⊔ S·Hom(−, word): over each object ``L``
    one new element per witness ``s`` and morphism ``f: L → word``, named
    ``s`` when ``f`` is the identity and ``event:(s,f)`` otherwise. A
    generated name that is already taken in its fibre raises
    ``IdentifierClash``. The learner's fibre over the word must be empty
    (see ``acquire_by_example_merged`` otherwise).
    """
    ordered = _example_preconditions(learner, word, witnesses, teacher)
    if learner.fibre(word):
        raise FibreNotEmpty(
            f"fibre over {word} is not empty; use acquire_by_example_merged"
        )
    out, changed = _adjoin_example(learner, word, ordered, {}, event_id)
    return out, _report(learner, out, changed, event_id, "example", word, "learned")


def acquire_by_example_merged(
    learner: Speaker,
    word: str,
    witnesses: Sequence[str],
    glue: Mapping[str, str],
    teacher: Optional[Speaker] = None,
    event_id: str = "merged-example",
) -> tuple[Speaker, AcquisitionReport]:
    """Acquisition by example with prior meaning glued onto the witnesses.

    ``glue`` sends each element the learner already has over the word to
    the witness it must be identified with; a key that names no such
    element raises ``FiblexError``. The new meaning is the objectwise
    pushout of F ← F(word)·Hom(−, word) → S·Hom(−, word), named as in
    ``acquire_by_example``. With an empty fibre the glue map is the empty
    one and the pushout is the plain coproduct.
    """
    ordered = _example_preconditions(learner, word, witnesses, teacher)
    current = learner.fibre(word)
    missing = sorted(set(current) - set(glue))
    if missing:
        raise FiblexError(f"glue map is not total on the fibre: missing {', '.join(missing)}")
    extra = sorted(set(glue) - set(current))
    if extra:
        raise FiblexError(f"glue map names elements outside the fibre over {word}: "
                          + ", ".join(extra))
    stray = sorted(set(glue.values()) - set(ordered))
    if stray:
        raise FiblexError(f"glue map hits unknown witnesses: {', '.join(stray)}")
    out, changed = _adjoin_example(learner, word, ordered, glue, event_id)
    return out, _report(learner, out, changed, event_id, "merged-example", word, "learned")


# ---------------------------------------------------------------------------
# acquisition by paraphrasis


def _edge_names(word: str, shape_objects: list[str], targets: Mapping[str, str],
                taken: frozenset[str]) -> dict[str, str]:
    """One edge per shape object, named ``word→target``; duplicated
    targets and clashes with existing morphisms get deterministic
    suffixes."""
    per_target: dict[str, list[str]] = {}
    for a in shape_objects:
        per_target.setdefault(targets[a], []).append(a)
    names = {}
    for a in shape_objects:
        base = f"{word}→{targets[a]}"
        if len(per_target[targets[a]]) > 1:
            base = f"{base}#{a}"
        while base in taken or base in names.values():
            base = f"q:{base}"
        names[a] = base
    return names


def _check_overridden_composites(lang: FinCategory, word: str, action: Mapping[str, Mapping],
                                 fresh: Mapping[tuple, str], unforced: set[str]) -> None:
    """Raise ``UnforcedActionAtL`` unless the meaning, contravariant on
    ``lang``, acts on each new element by every composite ``g∘f`` with
    ``g`` into the learned word as ``f`` after ``g`` does. Other composites
    act only on fibres the acquisition left alone."""
    for g in lang.by_tgt[word]:
        for f in lang.by_tgt[lang.src[g]]:
            gf = lang.compose.get((g, f))
            if gf is None:
                continue
            for tup, x in fresh.items():
                if action[gf][x] != action[f].get(action[g][x]):
                    raise UnforcedActionAtL(
                        f"overrides break the composite {gf} = {g}∘{f} at {tuple_name(tup)}",
                        tuple(sorted({g, f, gf} & unforced)),
                    )


def acquire_by_paraphrasis(
    teacher: Speaker,
    learner: Speaker,
    word: str,
    explanation: Explanation,
    edge_overrides: Optional[Mapping[str, Mapping[str, str]]] = None,
    bound: Optional[int] = None,
    event_id: str = "paraphrasis",
) -> tuple[Speaker, AcquisitionReport]:
    """Learn a word from an uttered explanation.

    The learner computes the limit of the explanation against its own
    meanings. An empty limit is the no-sense outcome: the learner is
    returned unchanged. Otherwise the limit becomes the fibre over the
    word, the language grows one fresh morphism per cone leg (a collage
    over the meaning-side category, so the leg functions are exactly the
    new edge actions), and the extended meaning is reassembled into a
    speaker whose fibration is the category of elements of the extension.

    Actions of pre-existing morphisms pointing at the learned word are
    not determined by the construction; they must be supplied through
    ``edge_overrides`` (keyed by morphism, then by apex tuple name). An
    override that leaves the fibre it must land in, that breaks a
    composite, or that names a morphism or apex tuple it cannot act on (a
    morphism that is an identity or does not point at the word, or a name
    that is neither) raises ``UnforcedActionAtL``.
    Two apex tuples whose names coincide raise ``IdentifierClash``, so
    the learned fibre has exactly one element per apex tuple.
    """
    if teacher.language != learner.language:
        raise BaseMismatch("teacher and learner must share a language")
    lang = learner.language
    if word not in lang.objects:
        raise DiagramOutsideLanguage(f"{word} is not a language object")
    if learner.fibre(word):
        raise FibreNotEmpty(f"fibre over {word} is not empty")
    teacher_check = validate_explanation(teacher, explanation)
    if not teacher_check.valid or teacher_check.vacuous:
        causes = list(teacher_check.problems[:1])
        if teacher_check.vacuous:
            causes.append("empty limit " + json.dumps(teacher_check.limit.witness, sort_keys=True))
        raise FiblexError("the explanation is not valid and non-vacuous for the teacher: "
                          + "; ".join(causes))

    # the teacher found the diagram a functor, so the learner's limit exists
    _, cone = _limit(learner, explanation)
    if not cone.apex:
        # every action touching the (still empty) fibre stays forced
        report = _report(learner, learner, (), event_id, "paraphrasis", word, "no-sense")
        return learner, report

    overrides = edge_overrides or {}
    unforced = [m for m in lang.by_tgt[word] if m != lang.identity[word]]
    uncovered = [m for m in unforced if m not in overrides]
    if uncovered:
        raise UnforcedActionAtL(
            "morphisms into the learned word need explicit actions: " + ", ".join(uncovered),
            uncovered,
        )
    stray = sorted(set(overrides).difference(unforced))
    if stray:
        raise UnforcedActionAtL(
            f"overrides name morphisms other than the non-identities into {word}: "
            + ", ".join(stray),
            stray,
        )

    apex = cone.sorted_apex()
    names = list(map(tuple_name, apex))  # each tuple is named once per event
    elements = [f"{event_id}:{name}" for name in names]
    as_fresh = dict(zip(names, elements))
    if len(as_fresh) < len(apex):  # some name is shared: find the first pair that shares one
        named: dict[str, tuple[str, ...]] = {}
        for key, tup in zip(names, apex):
            if named.setdefault(key, tup) != tup:
                raise IdentifierClash(f"apex tuples {named[key]} and {tup} share the name {key}")
    shape_objects = cone.order  # the shape's objects, sorted
    edge_of = _edge_names(word, shape_objects, explanation.diagram.omap, lang.morphisms)

    meaning_base = learner.meaning.base  # opposite(lang)
    quiver = quiver_from_edges(
        lang.objects,
        [(edge_of[a], word, explanation.diagram.omap[a]) for a in shape_objects],
    )

    value = dict(learner.meaning.value)
    value[word] = frozenset(elements)
    # the graphs this event sets, over the learner's table, which only
    # extend_set_functor copies
    grown = {meaning_base.identity[word]: dict(zip(elements, elements))}
    action = ChainMap(grown, learner.meaning.action)
    for m in unforced:
        unknown = sorted(set(overrides[m]).difference(as_fresh))
        if unknown:
            raise UnforcedActionAtL(
                f"override for {m} names no apex element: {', '.join(unknown)}", (m,)
            )
        graph = {}
        for key, x in zip(names, elements):
            if key not in overrides[m]:
                raise UnforcedActionAtL(
                    f"override for {m} is missing the apex element {key}", (m,)
                )
            target_value = overrides[m][key]
            if lang.src[m] == word:  # endomorphism: override values name apex tuples
                if target_value not in as_fresh:
                    raise UnforcedActionAtL(
                        f"override for {m} must map into the apex, got {target_value}", (m,)
                    )
                target_value = as_fresh[target_value]
            elif target_value not in learner.fibre(lang.src[m]):
                raise UnforcedActionAtL(
                    f"override for {m} sends {key} outside the fibre over {lang.src[m]}: "
                    f"{target_value}", (m,)
                )
            graph[x] = target_value
        grown[m] = graph
    if unforced:
        _check_overridden_composites(lang, word, action, dict(zip(apex, elements)), set(unforced))
    extended = _derived(SetFunctor, base=meaning_base, value=value, action=action)

    collage = fp_collage(meaning_base, quiver, bound=bound)
    edge_actions = {  # the leg onto each shape object is a column of the apex
        edge_of[a]: dict(zip(elements, column)) for a, column in zip(shape_objects, zip(*apex))
    }
    new_meaning = extend_set_functor(extended, collage, edge_actions)
    new_language = opposite(collage.category)  # glued, when read, over the learner's language
    out = _derived(Speaker, name=learner.name, language=new_language, meaning=new_meaning)
    report = _report(
        learner,
        out,
        (word,),
        event_id,
        "paraphrasis",
        word,
        "learned",
        new_morphisms=collage.edge_words(),
        apex=names,
    )
    return out, report

