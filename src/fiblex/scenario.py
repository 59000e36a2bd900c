"""Declarative scenario files: declarations, events, assertions.

A scenario declares categories (explicit, discrete, free on a quiver,
or generated from a pregroup lexicon), speakers over them, and
explanations; then runs a list of acquisition events against an
immutable speaker store (each event rebinds the learner's name) and
finally evaluates assertions. Reports are canonical JSON and running
the same file twice yields byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .collage import free_category
from .dot import category_dot
from .errors import FiblexError, ScenarioError
from .fincat import (
    CatFunctor,
    FinCategory,
    SetFunctor,
    discrete_category,
    natural_iso_check,
    opposite,
    parse_tuple_name,
    quiver_from_edges,
    terminal_category,
    validate_category,
    validate_setfunctor,
)
from .jsonio import category_from_dict
from .pregroup import Lexicon, language_category_from_lexicon, parse_type, type_order
from .speaker import (
    Explanation,
    Speaker,
    _derived_speaker,
    acquire_by_example,
    acquire_by_example_merged,
    acquire_by_paraphrasis,
    tautological_explanation,
    validate_explanation,
)

EXIT_PASS = 0
EXIT_ASSERTION = 1
EXIT_STRUCTURAL = 2


@dataclass(frozen=True)
class Scenario:
    name: str
    categories: dict[str, FinCategory]
    speakers: dict[str, Speaker]
    explanations: dict[str, dict]  # raw declarations, resolved lazily
    events: list[dict]
    assertions: list[dict]


@dataclass(frozen=True)
class Binding:
    speaker: Speaker
    dashed: frozenset[str] = frozenset()


Store = dict[str, Binding]


# ---------------------------------------------------------------------------
# loading


def _category_from_decl(name: str, decl: dict) -> FinCategory:
    kind = decl.get("kind", "explicit")
    if kind == "discrete":
        return discrete_category(decl["objects"])
    if kind == "terminal":
        return terminal_category(decl.get("object", "pt"))
    if kind == "free":
        quiver = quiver_from_edges(
            decl["vertices"], [(e["id"], e["src"], e["tgt"]) for e in decl["edges"]]
        )
        return free_category(quiver, bound=decl.get("bound"))
    if kind == "pregroup":
        z_max = decl.get("z_max", 2)
        order = type_order(decl["basics"], [tuple(p) for p in decl.get("order", [])])
        entries = {
            w: tuple(parse_type(t, z_max) for t in ts)
            for w, ts in decl.get("lexicon", {}).items()
        }
        lex = Lexicon(
            order=order,
            entries=entries or {"-": (parse_type(decl["basics"][0], z_max),)},
            sentence=parse_type(decl.get("sentence", decl["basics"][0]), z_max),
            z_max=z_max,
        )
        return language_category_from_lexicon(lex, decl["phrases"])
    if kind == "explicit":
        try:
            return category_from_dict(decl)
        except FiblexError as err:
            raise ScenarioError(f"category {name}: {err}") from err
    raise ScenarioError(f"category {name}: unknown kind {kind!r}")


def _declared_speaker(name: str, language: FinCategory, fibres: dict, actions: dict) -> Speaker:
    """The speaker with the declared fibres and non-identity actions over
    a language whose axioms the caller has checked; the meaning is
    checked here. A ``fibres`` key that names no object, or an
    ``actions`` key that names no morphism, raises ``ScenarioError``."""
    stray = sorted(set(fibres).difference(language.objects))
    if stray:
        raise ScenarioError(f"speaker {name}: fibres key {stray[0]!r} names no object")
    stray = sorted(set(actions).difference(language.morphisms))
    if stray:
        raise ScenarioError(f"speaker {name}: actions key {stray[0]!r} names no morphism")
    base = opposite(language)
    value = {o: frozenset(fibres.get(o, ())) for o in language.objects}
    action: dict[str, dict[str, str]] = {}
    for m in language.morphisms:
        if base.is_identity(m):
            action[m] = {x: x for x in value[base.src[m]]}
        else:
            if m not in actions:
                raise FiblexError(f"speaker {name}: no action table for {m}")
            action[m] = dict(actions[m])
    meaning = SetFunctor(base=base, value=value, action=action)
    problems = validate_setfunctor(meaning)
    if problems:
        raise FiblexError(f"speaker {name}: invalid meaning: {problems[0]}")
    return _derived_speaker(name, language, meaning)


def load_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict) or "name" not in doc:
        raise ScenarioError("scenario file needs a top-level name")
    categories: dict[str, FinCategory] = {}
    for name, decl in doc.get("categories", {}).items():
        try:
            categories[name] = _category_from_decl(name, decl)
        except FiblexError as err:
            raise ScenarioError(f"category {name}: {err}") from err
        # explicit tables are checked as they are decoded, the others here
        if decl.get("kind", "explicit") != "explicit":
            problems = validate_category(categories[name])
            if problems:
                raise ScenarioError(f"category {name}: {problems[0]}")

    # speakers share their declared language, checked once above
    speakers: dict[str, Speaker] = {}
    for name, decl in doc.get("speakers", {}).items():
        lang_name = decl.get("language")
        if lang_name not in categories:
            raise ScenarioError(f"speaker {name}: undeclared language {lang_name!r}")
        try:
            speakers[name] = _declared_speaker(
                name, categories[lang_name], decl.get("fibres", {}), decl.get("actions", {})
            )
        except FiblexError as err:
            raise ScenarioError(f"speaker {name}: {err}") from err

    explanations = dict(doc.get("explanations", {}))
    events = list(doc.get("events", []))
    for i, event in enumerate(events):
        event.setdefault("id", f"ev{i}")
        if event.get("event") not in {
            "example",
            "merged-example",
            "paraphrasis",
            "validate-explanation",
        }:
            raise ScenarioError(f"event {event['id']}: unknown event {event.get('event')!r}")
    ids = [e["id"] for e in events]
    if len(set(ids)) != len(ids):
        raise ScenarioError("event ids are not unique")

    assertions = list(doc.get("assertions", []))
    scenario = Scenario(
        name=doc["name"],
        categories=categories,
        speakers=speakers,
        explanations=explanations,
        events=events,
        assertions=assertions,
    )
    _check_references(scenario)
    return scenario


def _check_references(scenario: Scenario) -> None:
    known = set(scenario.speakers)
    for event in scenario.events:
        eid = event["id"]
        for key in ("learner", "teacher", "speaker"):
            if key in event and event[key] not in known:
                raise ScenarioError(f"event {eid}: undeclared speaker {event[key]!r}")
        if event["event"] == "paraphrasis" or event["event"] == "validate-explanation":
            name = event.get("explanation")
            if name not in scenario.explanations:
                raise ScenarioError(f"event {eid}: undeclared explanation {name!r}")
    for check in scenario.assertions:
        for key in ("speaker", "left", "right"):
            if key in check and check[key] not in known:
                raise ScenarioError(f"assertion references undeclared speaker {check[key]!r}")
        if "event" in check and check["event"] not in {e["id"] for e in scenario.events}:
            raise ScenarioError(f"assertion references unknown event {check['event']!r}")


def resolve_explanation(scenario: Scenario, store: Store, name: str) -> Explanation:
    if name not in scenario.explanations:
        raise ScenarioError(f"undeclared explanation {name!r}")
    decl = scenario.explanations[name]
    if decl.get("kind") == "tautological":
        speaker = store[decl["speaker"]].speaker
        return tautological_explanation(speaker, decl["target"])
    lang_name = decl.get("language")
    if lang_name not in scenario.categories:
        raise ScenarioError(f"explanation {name}: undeclared language {lang_name!r}")
    language = scenario.categories[lang_name]
    shape = _category_from_decl(f"{name}.shape", decl["shape"])
    omap = dict(decl["diagram"])
    mmap = dict(decl.get("diagram_morphisms", {}))
    for o, word in omap.items():
        if o not in shape.objects:
            raise ScenarioError(f"explanation {name}: {o} is not a shape object")
        if word not in language.objects:
            raise ScenarioError(f"explanation {name}: {word} is not a language object")
        mmap.setdefault(shape.identity[o], language.identity[word])
    embedding = None
    if "embedding" in decl:
        embedding = {}
        for key, x in decl["embedding"].items():
            tup = parse_tuple_name(key)
            if tup is None:
                raise ScenarioError(f"explanation {name}: bad embedding key {key!r}")
            embedding[tup] = x
    diagram = CatFunctor(dom=shape, cod=language, omap=omap, mmap=mmap)
    return Explanation(
        shape=shape, diagram=diagram, target=decl["target"], embedding=embedding
    )


# ---------------------------------------------------------------------------
# running


def initial_store(scenario: Scenario) -> Store:
    return {name: Binding(speaker=s) for name, s in scenario.speakers.items()}


def run_events(
    scenario: Scenario, upto: Optional[int] = None, default_bound: Optional[int] = None
) -> tuple[Store, list[dict]]:
    store = initial_store(scenario)
    reports: list[dict] = []
    events = scenario.events if upto is None else scenario.events[: upto]
    for event in events:
        kind = event["event"]
        eid = event["id"]
        entry: dict[str, Any] = {"id": eid, "event": kind}
        if kind == "example":
            binding = store[event["learner"]]
            teacher = store[event["teacher"]].speaker if "teacher" in event else None
            out, report = acquire_by_example(
                binding.speaker,
                event["word"],
                event["witnesses"],
                teacher=teacher,
                event_id=eid,
            )
            store[event["learner"]] = Binding(out, binding.dashed)
            entry["report"] = report.to_json()
        elif kind == "merged-example":
            binding = store[event["learner"]]
            teacher = store[event["teacher"]].speaker if "teacher" in event else None
            out, report = acquire_by_example_merged(
                binding.speaker,
                event["word"],
                event["witnesses"],
                glue=event.get("glue", {}),
                teacher=teacher,
                event_id=eid,
            )
            store[event["learner"]] = Binding(out, binding.dashed)
            entry["report"] = report.to_json()
        elif kind == "paraphrasis":
            binding = store[event["learner"]]
            teacher = store[event["teacher"]].speaker
            explanation = resolve_explanation(scenario, store, event["explanation"])
            out, report = acquire_by_paraphrasis(
                teacher,
                binding.speaker,
                event["word"],
                explanation,
                edge_overrides=event.get("overrides"),
                bound=event.get("bound", default_bound),
                event_id=eid,
            )
            store[event["learner"]] = Binding(
                out, binding.dashed | frozenset(report.new_morphisms)
            )
            entry["report"] = report.to_json()
        elif kind == "validate-explanation":
            speaker = store[event["speaker"]].speaker
            explanation = resolve_explanation(scenario, store, event["explanation"])
            check = validate_explanation(speaker, explanation)
            entry["report"] = check.to_json()
        reports.append(entry)
    return store, reports


def _event_report(reports: list[dict], eid: str) -> dict:
    for entry in reports:
        if entry["id"] == eid:
            return entry["report"]
    raise ScenarioError(f"no report for event {eid!r}")


def evaluate_assertion(
    scenario: Scenario, store: Store, reports: list[dict], check: dict
) -> tuple[bool, str]:
    kind = check.get("assert")
    if kind == "fibre-size":
        speaker = store[check["speaker"]].speaker
        size = len(speaker.fibre(check["object"]))
        if "equals" in check:
            return size == check["equals"], f"fibre({check['object']}) = {size}"
        return size >= check.get("at-least", 1), f"fibre({check['object']}) = {size}"
    if kind == "morphism-count":
        speaker = store[check["speaker"]].speaker
        count = len(speaker.language.morphisms)
        return count == check["equals"], f"language has {count} morphisms"
    if kind == "new-morphisms":
        report = _event_report(reports, check["event"])
        names = report.get("new_morphisms", [])
        ok = True
        if "count" in check:
            ok = ok and len(names) == check["count"]
        if "names" in check:
            ok = ok and sorted(names) == sorted(check["names"])
        return ok, f"new morphisms: {', '.join(names) or 'none'}"
    if kind == "outcome":
        report = _event_report(reports, check["event"])
        outcome = report.get("outcome")
        return outcome == check["equals"], f"outcome = {outcome}"
    if kind == "explanation":
        report = _event_report(reports, check["event"])
        ok = True
        for key in ("valid", "exact", "vacuous"):
            if key in check:
                ok = ok and report.get(key) == check[key]
        if "apex-size" in check:
            ok = ok and report.get("apex_size") == check["apex-size"]
        return ok, (
            f"valid={report.get('valid')} exact={report.get('exact')} "
            f"vacuous={report.get('vacuous')} apex={report.get('apex_size')}"
        )
    if kind == "unchanged":
        now = store[check["speaker"]].speaker
        initial = scenario.speakers[check["speaker"]]
        return now == initial, f"speaker {check['speaker']} vs initial declaration"
    if kind == "speakers-iso":
        left = store[check["left"]].speaker
        right = store[check["right"]].speaker
        if left.language != right.language:
            return False, "languages differ"
        witness = natural_iso_check(left.meaning, right.meaning)
        return witness is not None, "meanings naturally isomorphic" if witness else "no witness"
    raise ScenarioError(f"unknown assertion kind {kind!r}")


def _assertion_name(check: dict, index: int) -> str:
    return check.get("name", f"assert{index}:{check.get('assert')}")


def run_scenario(
    scenario: Scenario, default_bound: Optional[int] = None
) -> tuple[int, dict]:
    """Execute events, evaluate assertions, and assemble the canonical
    report. Exit status: 0 pass, 1 assertion failure, 2 structural error."""
    try:
        store, reports = run_events(scenario, default_bound=default_bound)
    except FiblexError as err:
        return EXIT_STRUCTURAL, {
            "scenario": scenario.name,
            "status": "error",
            "error": str(err),
            "events": [],
            "assertions": [],
            "first_failure": None,
        }
    results = []
    first_failure = None
    for i, check in enumerate(scenario.assertions):
        name = _assertion_name(check, i)
        try:
            passed, detail = evaluate_assertion(scenario, store, reports, check)
        except FiblexError as err:
            passed, detail = False, str(err)
        results.append({**check, "name": name, "passed": passed, "detail": detail})
        if not passed and first_failure is None:
            first_failure = name
    status = "pass" if first_failure is None else "fail"
    report = {
        "scenario": scenario.name,
        "status": status,
        "events": reports,
        "assertions": results,
        "first_failure": first_failure,
    }
    return (EXIT_PASS if status == "pass" else EXIT_ASSERTION), report


def validate_scenario(scenario: Scenario) -> dict:
    """Structural validation only: declarations are checked and every
    explanation is resolved against the initial store, but no event runs.
    ``load_scenario`` has already checked every declared category."""
    checks = [{"category": name, "problems": []} for name in sorted(scenario.categories)]
    store = initial_store(scenario)
    for name in sorted(scenario.explanations):
        try:
            resolve_explanation(scenario, store, name)
            checks.append({"explanation": name, "problems": []})
        except FiblexError as err:
            checks.append({"explanation": name, "problems": [str(err)]})
    ok = all(not c["problems"] for c in checks)
    return {"scenario": scenario.name, "status": "ok" if ok else "error", "checks": checks}


def export_dot(
    scenario: Scenario,
    speaker: str,
    which: str = "language",
    stage: Optional[int] = None,
    default_bound: Optional[int] = None,
) -> str:
    """Render a speaker's language (or total category) after the first
    ``stage`` events; adjoined edges are dashed."""
    store, _ = run_events(scenario, upto=stage, default_bound=default_bound)
    if speaker not in store:
        raise ScenarioError(f"undeclared speaker {speaker!r}")
    binding = store[speaker]
    if which == "language":
        return category_dot(
            binding.speaker.language,
            name=f"{scenario.name}:{speaker}",
            dashed=binding.dashed,
        )
    if which == "total":
        fib = binding.speaker.fibration
        dashed_total = {
            m for m in fib.total.morphisms if fib.proj.mmap[m] in binding.dashed
        }
        return category_dot(
            fib.total, name=f"{scenario.name}:{speaker}:total", dashed=dashed_total
        )
    raise ScenarioError(f"unknown export target {which!r}")


def explain_report(scenario: Scenario, speaker: str, explanation: str) -> dict:
    store = initial_store(scenario)
    if speaker not in store:
        raise ScenarioError(f"undeclared speaker {speaker!r}")
    expl = resolve_explanation(scenario, store, explanation)
    check = validate_explanation(store[speaker].speaker, expl)
    report = check.to_json()
    if check.limit.witness is not None:
        # why the apex is empty; `fiblex run` reports leave it out
        report["empty_witness"] = check.limit.witness
    return report
