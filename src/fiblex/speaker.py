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
  itself grows one morphism per cone leg (freely, via a collage).

Every acquisition returns a fresh speaker plus a report of what changed,
and never mutates its inputs.

Validation happens where data enters: constructing ``Speaker(...)``
checks the language axioms, that the meaning lives on the opposite
language, and functoriality. The acquisitions build meanings that are
presheaves by construction (a coproduct or pushout over the learner's
unchanged language, or a limit installed over a free collage), so the
speakers they return are assembled by ``_derived_speaker`` without those
checks. Actions supplied through ``edge_overrides`` are user data and are
checked where they are installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence

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
    _UnionFind,
    comma_object_id,
    opposite,
    opposite_functor,
    precompose,
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

    ``meaning`` must be a Set-valued functor on ``opposite(language)``.
    The induced fibration over the language is built on first read and
    cached; it takes no part in equality or ``repr``.
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
        return self.meaning.value[word]

    def fibre_sizes(self) -> dict[str, int]:
        return {o: len(self.meaning.value[o]) for o in sorted(self.language.objects)}


def _derived_speaker(name: str, language: FinCategory, meaning: SetFunctor) -> Speaker:
    """A speaker the engine derived from checked data, assembled without
    the checks of ``Speaker.__post_init__``. ``meaning`` must be a
    Set-valued functor on ``opposite(language)``."""
    out = object.__new__(Speaker)
    object.__setattr__(out, "name", name)
    object.__setattr__(out, "language", language)
    object.__setattr__(out, "meaning", meaning)
    return out


@dataclass(frozen=True)
class Explanation:
    """A finite diagram in a language, aimed at one of its objects.

    ``embedding`` optionally identifies the limit's tuples with fibre
    elements of the target; when absent, validation treats the tuples
    themselves as the intended fibre content.
    """

    shape: FinCategory
    diagram: CatFunctor
    target: str
    embedding: Optional[dict[tuple[str, ...], str]] = None

    def __post_init__(self):
        if self.embedding is not None:
            object.__setattr__(self, "embedding", dict(self.embedding))


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
            "fibres_before": dict(sorted(self.fibres_before.items())),
            "fibres_after": dict(sorted(self.fibres_after.items())),
            "new_elements": {k: list(v) for k, v in sorted(self.new_elements.items())},
            "new_morphisms": list(self.new_morphisms),
            "apex": list(self.apex),
        }


def _report(learner: Speaker, out: Speaker, event: str, kind: str, word: str,
            outcome: str, new_morphisms=(), apex=()) -> AcquisitionReport:
    before = learner.fibre_sizes()
    after = out.fibre_sizes()
    new_elements = {}
    for o in sorted(out.language.objects):
        old = learner.meaning.value.get(o, frozenset())
        gained = tuple(sorted(out.meaning.value[o] - old))
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


def composite_meaning(speaker: Speaker, explanation: Explanation) -> SetFunctor:
    """The explanation's diagram of meanings, as a Set-valued functor on
    the opposite shape (the orientation limits are taken in)."""
    if explanation.diagram.dom != explanation.shape:
        raise DiagramOutsideLanguage("diagram domain is not the declared shape")
    if explanation.diagram.cod != speaker.language:
        raise DiagramOutsideLanguage("diagram does not land in the speaker's language")
    return precompose(speaker.meaning, opposite_functor(explanation.diagram))


def _acts_on_its_fibres(speaker: Speaker, diagram: CatFunctor) -> bool:
    """Whether every arrow of the diagram acts on the whole fibre over the
    image of its target, so that the composite meaning can be evaluated."""
    lang, action = speaker.language, speaker.meaning.action
    if any(diagram.omap.get(a) not in lang.objects for a in diagram.dom.objects):
        return False
    return all(
        diagram.mmap.get(m) in lang.morphisms
        and speaker.fibre(diagram.omap[diagram.dom.tgt[m]]) <= action[diagram.mmap[m]].keys()
        for m in diagram.dom.morphisms
    )


def validate_explanation(speaker: Speaker, explanation: Explanation) -> ExplanationCheck:
    """Compute the limit of the explanation and compare it to the fibre.

    With an embedding, validity means the embedding is an injection of
    the apex into the target fibre and exactness that it is onto. With
    no embedding the apex tuples are taken as the defining fibre
    content: the explanation is then valid outright and exact when the
    cardinalities agree. An empty apex is flagged vacuous.

    A diagram that is no functor still has a limit, as long as each arrow
    acts on the whole fibre it is read from. When it does not (an object or
    arrow sent outside the language, or an arrow whose action is defined on
    another fibre), no limit is computed: the check is invalid, lists the
    problems and carries an empty cone.
    """
    if explanation.target not in speaker.language.objects:
        raise DiagramOutsideLanguage(f"target {explanation.target} is not a language object")
    problems = []
    problems += validate_category(explanation.shape)
    problems += validate_functor(explanation.diagram)
    if problems and not _acts_on_its_fibres(speaker, explanation.diagram):
        order = tuple(sorted(explanation.shape.objects))
        empty = LimitCone(order=order, apex=frozenset(), legs={o: {} for o in order})
        return ExplanationCheck(
            valid=False, exact=False, vacuous=False, limit=empty, problems=tuple(problems)
        )
    cone = set_limit(composite_meaning(speaker, explanation))
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
    return Explanation(shape=shape, diagram=diagram, target=word, embedding=embedding)


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


def _adjoin_example(learner: Speaker, word: str, witnesses: Sequence[str],
                    glue: Mapping[str, str], event_id: str) -> Speaker:
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
    """
    lang, meaning = learner.language, learner.meaning
    into_word: dict[str, list[str]] = {o: [] for o in lang.objects}
    for f in sorted(lang.morphisms):
        if lang.tgt[f] == word:
            into_word[lang.src[f]].append(f)
    value: dict[str, frozenset[str]] = {}
    name_of: dict[str, dict] = {}  # object -> member of F(L) ⊔ S×Hom(L, word) -> name
    for obj in sorted(lang.objects):
        # sorted, so that a clash is reported the same way on every run
        members = sorted(meaning.value[obj])
        members += [(s, f) for f in into_word[obj] for s in witnesses]
        uf = _UnionFind(members)
        for f in into_word[obj]:
            for y, x in meaning.action[f].items():
                uf.union(x, (glue[y], f))
        classes: dict = {}
        for m in members:
            classes.setdefault(uf.find(m), []).append(m)
        names: dict = {}
        owner: dict[str, str] = {}
        for cls in classes.values():
            if obj == word:
                anchors = [(m[0], m[0], f"the witness {m[0]}")
                           for m in cls if isinstance(m, tuple) and m[1] == lang.identity[word]]
            else:
                anchors = [(pair_object_id(obj, m), m, f"the element {m}")
                           for m in cls if isinstance(m, str)]
            if anchors:
                _key, name, origin = min(anchors)
            else:
                (s, f), = cls
                name, origin = f"{event_id}:{comma_object_id(s, f)}", f"the pair ({s}, {f})"
            if name in owner:
                raise IdentifierClash(
                    f"{name} over {obj} would name both {owner[name]} and {origin}"
                )
            owner[name] = origin
            names.update((m, name) for m in cls)
        value[obj] = frozenset(owner)
        name_of[obj] = names

    action: dict[str, dict[str, str]] = {}
    for g in lang.morphisms:
        s_obj, t_obj = lang.src[g], lang.tgt[g]
        old = meaning.action[g]
        graph: dict[str, str] = {}
        for m, name in name_of[t_obj].items():
            if name not in graph:
                image = old[m] if isinstance(m, str) else (m[0], lang.compose[(m[1], g)])
                graph[name] = name_of[s_obj][image]
        action[g] = graph
    return _derived_speaker(
        learner.name, lang, SetFunctor(base=meaning.base, value=value, action=action)
    )


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
    out = _adjoin_example(learner, word, ordered, {}, event_id)
    return out, _report(learner, out, event_id, "example", word, "learned")


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
    the witness it must be identified with. The new meaning is the
    objectwise pushout of F ← F(word)·Hom(−, word) → S·Hom(−, word),
    named as in ``acquire_by_example``. With an empty fibre the glue map
    is the empty one and the plain procedure applies verbatim.
    """
    ordered = _example_preconditions(learner, word, witnesses, teacher)
    current = learner.fibre(word)
    missing = sorted(set(current) - set(glue))
    if missing:
        raise FiblexError(f"glue map is not total on the fibre: missing {', '.join(missing)}")
    stray = sorted(set(glue.values()) - set(ordered))
    if stray:
        raise FiblexError(f"glue map hits unknown witnesses: {', '.join(stray)}")
    if not current:
        return acquire_by_example(learner, word, ordered, teacher=None, event_id=event_id)
    out = _adjoin_example(learner, word, ordered, glue, event_id)
    return out, _report(learner, out, event_id, "merged-example", word, "learned")


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
    if not unforced:
        return
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
        raise FiblexError("the explanation is not valid and non-vacuous for the teacher")

    cone = set_limit(composite_meaning(learner, explanation))
    if not cone.apex:
        # every action touching the (still empty) fibre stays forced
        report = _report(learner, learner, event_id, "paraphrasis", word, "no-sense")
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
    named: dict[str, tuple[str, ...]] = {}
    for tup in apex:
        other = named.setdefault(tuple_name(tup), tup)
        if other != tup:
            raise IdentifierClash(
                f"apex tuples {other} and {tup} share the name {tuple_name(tup)}"
            )
    fresh = {tup: f"{event_id}:{name}" for name, tup in named.items()}
    as_fresh = {name: fresh[tup] for name, tup in named.items()}
    shape_objects = sorted(explanation.shape.objects)
    edge_of = _edge_names(word, shape_objects, explanation.diagram.omap, lang.morphisms)

    meaning_base = learner.meaning.base  # opposite(lang)
    quiver = quiver_from_edges(
        lang.objects,
        [(edge_of[a], word, explanation.diagram.omap[a]) for a in shape_objects],
    )

    value = dict(learner.meaning.value)
    value[word] = frozenset(fresh.values())
    action = dict(learner.meaning.action)
    action[meaning_base.identity[word]] = {n: n for n in fresh.values()}
    for m in unforced:
        unknown = sorted(set(overrides[m]).difference(named))
        if unknown:
            raise UnforcedActionAtL(
                f"override for {m} names no apex element: {', '.join(unknown)}", (m,)
            )
        graph = {}
        for tup in apex:
            key = tuple_name(tup)
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
            elif target_value not in value[lang.src[m]]:
                raise UnforcedActionAtL(
                    f"override for {m} sends {key} outside the fibre over {lang.src[m]}: "
                    f"{target_value}", (m,)
                )
            graph[fresh[tup]] = target_value
        action[m] = graph
    _check_overridden_composites(lang, word, action, fresh, set(unforced))
    extended = SetFunctor(base=meaning_base, value=value, action=action)

    collage = fp_collage(meaning_base, quiver, bound=bound)
    edge_actions = {
        edge_of[a]: {fresh[tup]: cone.legs[a][tup] for tup in apex} for a in shape_objects
    }
    new_meaning = extend_set_functor(extended, collage, edge_actions)
    new_language = opposite(collage.category)
    out = _derived_speaker(learner.name, new_language, new_meaning)
    report = _report(
        learner,
        out,
        event_id,
        "paraphrasis",
        word,
        "learned",
        new_morphisms=collage.edge_words(),
        apex=[tuple_name(t) for t in apex],
    )
    return out, report

