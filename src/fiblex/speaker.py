"""Speakers and vocabulary acquisition.

A speaker is a finite language category together with a meaning
assignment: a Set-valued functor on the opposite language, equivalently
a discrete fibration over the language (the fibration view is cached at
construction). Words are acquired in three ways:

* by example: fresh witnesses are adjoined over the word, and the
  broken projection is repaired by comprehensive factorization;
* by merged example: as above, but prior meaning is first glued onto
  the witnesses along a compatibility map;
* by paraphrasis: the learner computes the limit of an uttered
  explanation, installs it as the fibre over the word, and the language
  itself grows one morphism per cone leg (freely, via a collage).

Speakers are immutable; every acquisition returns a fresh speaker plus
a report of what changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from .fibration import (
    Fibration,
    component_presheaf,
    comprehensive_factorization,
    grothendieck,
)
from .fincat import (
    CatFunctor,
    FinCategory,
    LimitCone,
    SetFunctor,
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

    ``meaning`` must be a Set-valued functor on ``opposite(language)``;
    the induced fibration over the language is built eagerly and cached.
    """

    name: str
    language: FinCategory
    meaning: SetFunctor
    fibration: Fibration = field(init=False, compare=False, repr=False)

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
        object.__setattr__(self, "fibration", grothendieck(self.meaning))

    def fibre(self, word: str) -> frozenset[str]:
        return self.meaning.value[word]

    def fibre_sizes(self) -> dict[str, int]:
        return {o: len(self.meaning.value[o]) for o in sorted(self.language.objects)}


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


def validate_explanation(
    speaker: Speaker, explanation: Explanation, demand_matching: bool = False
) -> ExplanationCheck:
    """Compute the limit of the explanation and compare it to the fibre.

    With an embedding, validity means the embedding is an injection of
    the apex into the target fibre and exactness that it is onto. With
    no embedding the apex tuples are taken as the defining fibre
    content: the explanation is then valid outright (or, when a matching
    is demanded, whenever the fibre is big enough) and exact when the
    cardinalities agree. An empty apex is flagged vacuous.
    """
    if explanation.target not in speaker.language.objects:
        raise DiagramOutsideLanguage(f"target {explanation.target} is not a language object")
    problems = []
    problems += validate_category(explanation.shape)
    problems += validate_functor(explanation.diagram)
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
        valid = not problems and (not demand_matching or len(cone.apex) <= len(fibre))
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


def _decode_with(pairs: Mapping[str, tuple[str, str]], witnesses: frozenset[str]):
    def decode(obj: str) -> str:
        if obj in witnesses:
            return obj
        return pairs[obj][1]

    return decode


def _rename_components(
    presheaf: SetFunctor,
    comma_pairs: Mapping[str, Mapping[str, tuple[str, str]]],
    components: Mapping[str, Mapping[str, str]],
    language: FinCategory,
    decode,
    event_id: str,
) -> SetFunctor:
    """Replace component representatives by stable element names.

    A component holding a pair ``(d, identity)`` is named after ``d``
    (decoded back to its element); anything else gets an event-prefixed
    canonical name. Collisions within a fibre fall back to the prefixed
    form deterministically.
    """
    rename: dict[str, str] = {}
    for obj in sorted(language.objects):
        ident = language.identity[obj]
        member_of: dict[str, list[str]] = {}
        for cid, rep in components[obj].items():
            member_of.setdefault(rep, []).append(cid)
        used: set[str] = set()
        for rep in sorted(member_of):
            anchors = sorted(
                comma_pairs[obj][cid][0]
                for cid in member_of[rep]
                if comma_pairs[obj][cid][1] == ident
            )
            name = decode(anchors[0]) if anchors else f"{event_id}:{rep}"
            if name in used:
                name = f"{event_id}:{rep}"
            used.add(name)
            rename[rep] = name

    value = {o: frozenset(rename[r] for r in presheaf.value[o]) for o in presheaf.value}
    action = {
        m: {rename[x]: rename[y] for x, y in graph.items()}
        for m, graph in presheaf.action.items()
    }
    return SetFunctor(base=presheaf.base, value=value, action=action)


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


def acquire_by_example(
    learner: Speaker,
    word: str,
    witnesses: Sequence[str],
    teacher: Optional[Speaker] = None,
    event_id: str = "example",
) -> tuple[Speaker, AcquisitionReport]:
    """Adjoin fresh witnesses over a word the learner has no meaning for.

    The witnesses are added as isolated objects of the learner's total
    category, projected constantly to the word; comprehensive
    factorization then yields the repaired speaker. The learner's fibre
    over the word must be empty (see ``acquire_by_example_merged``
    otherwise).
    """
    ordered = _example_preconditions(learner, word, witnesses, teacher)
    if learner.fibre(word):
        raise FibreNotEmpty(
            f"fibre over {word} is not empty; use acquire_by_example_merged"
        )

    total = learner.fibration.total
    clash = set(ordered) & set(total.objects)
    if clash:
        raise IdentifierClash(f"witness ids already present: {', '.join(sorted(clash))}")
    witness_ids = {s: f"id_{s}" for s in ordered}
    if set(witness_ids.values()) & set(total.morphisms):
        raise IdentifierClash("witness identity ids collide with total morphisms")

    lang = learner.language
    domain = FinCategory(
        objects=total.objects | frozenset(ordered),
        morphisms=total.morphisms | frozenset(witness_ids.values()),
        src={**total.src, **{i: s for s, i in witness_ids.items()}},
        tgt={**total.tgt, **{i: s for s, i in witness_ids.items()}},
        identity={**total.identity, **witness_ids},
        compose={**total.compose, **{(i, i): i for i in witness_ids.values()}},
    )
    to_language = CatFunctor(
        dom=domain,
        cod=lang,
        omap={**learner.fibration.proj.omap, **{s: word for s in ordered}},
        mmap={
            **learner.fibration.proj.mmap,
            **{i: lang.identity[word] for i in witness_ids.values()},
        },
    )
    fact = comprehensive_factorization(to_language)
    meaning = _rename_components(
        fact.presheaf,
        fact.comma_pairs,
        fact.components,
        lang,
        _decode_with(learner.fibration.pairs, frozenset(ordered)),
        event_id,
    )
    out = Speaker(name=learner.name, language=lang, meaning=meaning)
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
    the witness it must be identified with; the identification is a
    pushout of the fibre onto the witness set. With an empty fibre the
    glue map is the empty one and the plain procedure applies verbatim.
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

    lang = learner.language
    fib = learner.fibration
    total = fib.total
    # quotient the object set: elements over the word collapse onto witnesses
    merged: dict[str, str] = {}
    for t in total.objects:
        under, element = fib.pairs[t]
        merged[t] = glue[element] if under == word else t
    clash = {t for t in total.objects if merged[t] == t} & set(ordered)
    if clash:
        raise IdentifierClash(f"witness ids already present: {', '.join(sorted(clash))}")
    objects = sorted(set(merged.values()) | set(ordered))
    omap = {}
    for t, m in merged.items():
        omap[m] = word if m in set(ordered) else fib.proj.omap[t]
    for s in ordered:
        omap[s] = word
    gens = [
        (merged[total.src[m]], merged[total.tgt[m]], fib.proj.mmap[m])
        for m in total.non_identities()
    ]
    presheaf, comma_pairs, components = component_presheaf(lang, objects, omap, gens)
    meaning = _rename_components(
        presheaf,
        comma_pairs,
        components,
        lang,
        _decode_with(fib.pairs, frozenset(ordered)),
        event_id,
    )
    out = Speaker(name=learner.name, language=lang, meaning=meaning)
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
    ``edge_overrides`` (keyed by morphism, then by apex tuple name).
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

    overrides = {m: dict(g) for m, g in (edge_overrides or {}).items()}
    unforced = [m for m in lang.non_identities() if lang.tgt[m] == word]
    uncovered = sorted(m for m in unforced if m not in overrides)
    if uncovered:
        raise UnforcedActionAtL(
            "morphisms into the learned word need explicit actions: " + ", ".join(uncovered),
            uncovered,
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
    action = {m: dict(g) for m, g in learner.meaning.action.items()}
    action[meaning_base.identity[word]] = {n: n for n in fresh.values()}
    for m in unforced:
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
            graph[fresh[tup]] = target_value
        action[m] = graph
    extended = SetFunctor(base=meaning_base, value=value, action=action)

    collage = fp_collage(meaning_base, quiver, bound=bound)
    edge_actions = {
        edge_of[a]: {fresh[tup]: cone.legs[a][tup] for tup in apex} for a in shape_objects
    }
    new_meaning = extend_set_functor(extended, collage, edge_actions)
    new_language = opposite(collage.category)
    out = Speaker(name=learner.name, language=new_language, meaning=new_meaning)
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


def restriction_along_embedding(new: Speaker, old_language: FinCategory) -> SetFunctor:
    """Restrict a post-paraphrasis meaning along the canonical embedding
    of the old language (0-edge words keep their names)."""
    return SetFunctor(
        base=opposite(old_language),
        value={o: new.meaning.value[o] for o in old_language.objects},
        action={m: new.meaning.action[m] for m in old_language.morphisms},
    )
