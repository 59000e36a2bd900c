"""Declarative scenario files: declarations, events, assertions.

A scenario declares categories (explicit, discrete, free on a quiver,
or generated from a pregroup lexicon), speakers over them, and
explanations; then runs a list of acquisition events against a store
of immutable speakers by name (each event rebinds the learner's name;
what it adjoined to a language is read off against the declaration) and
finally evaluates assertions. Reports are canonical JSON and running
the same file twice yields byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

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
    validate_setfunctor,
)
from .jsonio import category_from_dict
from .pregroup import Lexicon, language_category_from_lexicon, parse_type, type_order
from .speaker import (
    Explanation,
    Speaker,
    _derived,
    acquire_by_example,
    acquire_by_example_merged,
    acquire_by_paraphrasis,
    tautological_explanation,
    validate_explanation,
)

EXIT_PASS = 0
EXIT_ASSERTION = 1
EXIT_STRUCTURAL = 2

# the kinds `evaluate_assertion` knows, as in the scenario schema
_ASSERTION_KINDS = frozenset({"fibre-size", "morphism-count", "new-morphisms", "outcome",
                              "explanation", "unchanged", "speakers-iso"})

# The keys each kind of declaration requires, by what is declared and its
# kind. An explanation is tautological or given by a diagram; its shape
# is declared as a category is, and each edge of a free one is an object.
_REQUIRED_KEYS = {
    ("explanation", "tautological"): ("speaker", "target"),
    ("explanation", "diagram"): ("language", "shape", "target", "diagram"),
    ("category", "discrete"): ("objects",),
    ("category", "terminal"): (),
    ("category", "free"): ("vertices", "edges"),
    ("category", "pregroup"): ("basics", "phrases"),
    ("category", "explicit"): ("objects",),
    ("edge", "free"): ("id", "src", "tgt"),
    ("morphism", "explicit"): ("id", "src", "tgt"),
}

# The JSON type of each entry of a speaker's tables, how to read its
# elements, which are strings, and its name in errors: a fibre lists the
# elements over an object, an action maps elements to elements.
_SPEAKER_TABLES = {
    "fibres": (list, iter, "a list of strings"),
    "actions": (dict, dict.values, "an object of strings"),
}
_STRINGS = frozenset({str})

# The JSON type of each top-level table of a document, and its name in errors.
_TABLES = {
    "categories": (dict, "an object"),
    "speakers": (dict, "an object"),
    "explanations": (dict, "an object"),
    "events": (list, "a list"),
    "assertions": (list, "a list"),
}


@dataclass(frozen=True)
class Scenario:
    name: str
    categories: dict[str, FinCategory]
    speakers: dict[str, Speaker]
    explanations: dict[str, dict]  # raw declarations, resolved lazily
    events: list[dict]
    assertions: list[dict]


Store = dict[str, Speaker]


# ---------------------------------------------------------------------------
# loading


def _category_from_decl(decl: dict) -> FinCategory:
    """The declared category; explicit tables are checked, constructions build or raise."""
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
            entries=entries,
            sentence=parse_type(decl.get("sentence", decl["basics"][0]), z_max),
            z_max=z_max,
        )
        return language_category_from_lexicon(lex, decl["phrases"])
    if kind == "explicit":
        return category_from_dict(decl)
    raise ScenarioError(f"unknown kind {kind!r}")


def _declared_speaker(name: str, language: FinCategory, fibres: dict, actions: dict) -> Speaker:
    """The speaker with the declared fibres and non-identity actions over
    a language whose axioms the caller has checked, assembled once; the
    meaning is checked here. A ``fibres`` key that names no object, or an
    ``actions`` key that names no morphism, raises ``ScenarioError``, and
    a non-identity morphism without an action raises ``FiblexError``,
    each naming the least such key or morphism."""
    stray = set(fibres).difference(language.objects)
    if stray:
        raise ScenarioError(f"fibres key {min(stray)!r} names no object")
    stray = set(actions).difference(language.morphisms)
    if stray:
        raise ScenarioError(f"actions key {min(stray)!r} names no morphism")
    value = {o: frozenset(fibres.get(o, ())) for o in language.objects}
    action = {m: dict(graph) for m, graph in actions.items()}
    for o, i in language.identity.items():
        action[i] = {x: x for x in value[o]}
    missing = language.morphisms.difference(action)
    if missing:
        raise FiblexError(f"no action table for {min(missing)}")
    meaning = _derived(SetFunctor, base=opposite(language), value=value, action=action)
    problems = validate_setfunctor(meaning)
    if problems:
        raise FiblexError(f"invalid meaning: {problems[0]}")
    return _derived(Speaker, name=name, language=language, meaning=meaning)


def _ill_typed_speaker(decl) -> Optional[str]:
    """Where a speaker declaration leaves the JSON types of
    ``_SPEAKER_TABLES``, or None. The happy path is two C-level passes
    over each table, the second over its non-empty entries."""
    if type(decl) is not dict:
        return "declaration is not an object"
    for key, (kind, elements, what) in _SPEAKER_TABLES.items():
        table = decl.get(key, {})
        if type(table) is not dict:
            return f"key {key!r} is not an object"
        entries = table.values()
        if {kind}.issuperset(map(type, entries)) and _STRINGS.issuperset(
            map(type, chain.from_iterable(map(elements, filter(None, entries))))
        ):
            continue
        bad = min(k for k, v in table.items()
                  if type(v) is not kind or not _STRINGS.issuperset(map(type, elements(v))))
        return f"{key} key {bad!r} is not {what}"
    return None


def load_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict) or "name" not in doc:
        raise ScenarioError("scenario file needs a top-level name")
    categories: dict[str, FinCategory] = {}
    for name, decl in _table(doc, "categories").items():
        if type(decl) is not dict:
            raise ScenarioError(f"category {name}: declaration is not an object")
        if (problem := _incomplete_category(decl, "category")) is not None:
            raise ScenarioError(f"category {name}: {problem}")
        try:
            categories[name] = _category_from_decl(decl)
        except FiblexError as err:
            raise ScenarioError(f"category {name}: {err}") from err

    # speakers share their declared language
    speakers: dict[str, Speaker] = {}
    for name, decl in _table(doc, "speakers").items():
        problem = _ill_typed_speaker(decl)
        if problem is not None:
            raise ScenarioError(f"speaker {name}: {problem}")
        lang_name = decl.get("language")
        if type(lang_name) is not str or lang_name not in categories:
            raise ScenarioError(f"speaker {name}: undeclared language {lang_name!r}")
        try:
            speakers[name] = _declared_speaker(
                name, categories[lang_name], decl.get("fibres", {}), decl.get("actions", {})
            )
        except FiblexError as err:
            raise ScenarioError(f"speaker {name}: {err}") from err

    explanations = dict(_table(doc, "explanations"))
    events = list(_table(doc, "events"))
    for i, event in enumerate(events):
        if type(event) is not dict:
            raise ScenarioError(f"event ev{i}: declaration is not an object")
        if type(event.setdefault("id", f"ev{i}")) is not str:
            raise ScenarioError(f"event ev{i}: key 'id' is not a string")
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

    assertions = list(_table(doc, "assertions"))
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


def _table(doc: dict, key: str):
    """The document's top-level table ``key``, empty when absent; one of
    another JSON type than ``_TABLES`` gives raises ``ScenarioError``."""
    kind, what = _TABLES[key]
    table = doc.get(key, kind())
    if type(table) is not kind:
        raise ScenarioError(f"key {key!r} is not {what}")
    return table


def _missing_key(decl: dict, what: str, kind: str) -> Optional[str]:
    """The first key that ``_REQUIRED_KEYS`` asks of this declaration and
    that it lacks; an unknown kind asks for none."""
    return next((k for k in _REQUIRED_KEYS.get((what, kind), ()) if k not in decl), None)


def _incomplete_category(decl: dict, what: str) -> Optional[str]:
    """What a category declaration, named ``what`` (a category or a shape),
    lacks of ``_REQUIRED_KEYS``, itself or in an edge or morphism, or None."""
    kind = decl.get("kind", "explicit")
    if (key := _missing_key(decl, "category", kind)) is not None:
        return f"{kind} {what} is missing key {key!r}"
    part = "edge" if kind == "free" else "morphism"
    parts = decl.get(f"{part}s", []) if (part, kind) in _REQUIRED_KEYS else []
    if type(parts) is not list:
        return f"{kind} {what}: key '{part}s' is not a list"
    for j, entry in enumerate(parts):
        if type(entry) is not dict:
            return f"{kind} {what} {part} {j} is not an object"
        if (key := _missing_key(entry, part, kind)) is not None:
            return f"{kind} {what} {part} {j} is missing key {key!r}"
    return None


def _check_strings(decl: dict, keys: tuple[str, ...], where: str) -> None:
    """Refuse the first of ``keys`` whose value is not a string, such as a
    list, which no table of names could look up."""
    for key in keys:
        if key in decl and type(decl[key]) is not str:
            raise ScenarioError(f"{where}: key {key!r} is not a string")


def _check_references(scenario: Scenario) -> None:
    known = set(scenario.speakers)
    for name, decl in scenario.explanations.items():
        if type(decl) is not dict:
            raise ScenarioError(f"explanation {name}: declaration is not an object")
        kind = "tautological" if decl.get("kind") == "tautological" else "diagram"
        key = _missing_key(decl, "explanation", kind)
        if key is not None:
            raise ScenarioError(f"explanation {name}: missing key {key!r}")
        if kind == "tautological":
            _check_strings(decl, ("speaker",), f"explanation {name}")
            if decl["speaker"] not in known:
                raise ScenarioError(f"explanation {name}: undeclared speaker {decl['speaker']!r}")
            continue
        if type(decl["shape"]) is not dict:
            raise ScenarioError(f"explanation {name}: key 'shape' is not an object")
        if (problem := _incomplete_category(decl["shape"], "shape")) is not None:
            raise ScenarioError(f"explanation {name}: {problem}")
    for event in scenario.events:
        eid = event["id"]
        _check_strings(event, ("learner", "teacher", "speaker", "explanation"), f"event {eid}")
        for key in ("learner", "teacher", "speaker"):
            if key in event and event[key] not in known:
                raise ScenarioError(f"event {eid}: undeclared speaker {event[key]!r}")
        if event["event"] == "paraphrasis" and "teacher" not in event:
            raise ScenarioError(f"event {eid}: paraphrasis needs a teacher")
        if event["event"] == "paraphrasis" or event["event"] == "validate-explanation":
            name = event.get("explanation")
            if name not in scenario.explanations:
                raise ScenarioError(f"event {eid}: undeclared explanation {name!r}")
    event_ids = {e["id"] for e in scenario.events}
    for i, check in enumerate(scenario.assertions):
        if type(check) is not dict:
            raise ScenarioError(f"assertion assert{i}: declaration is not an object")
        kind = check.get("assert")
        if kind not in _ASSERTION_KINDS:
            raise ScenarioError(f"assertion {_assertion_name(check, i)}: unknown kind {kind!r}")
        _check_strings(check, ("speaker", "left", "right", "event"),
                       f"assertion {_assertion_name(check, i)}")
        for key in ("speaker", "left", "right"):
            if key in check and check[key] not in known:
                raise ScenarioError(f"assertion references undeclared speaker {check[key]!r}")
        if "event" in check and check["event"] not in event_ids:
            raise ScenarioError(f"assertion references unknown event {check['event']!r}")


def resolve_explanation(scenario: Scenario, store: Store, name: str) -> Explanation:
    if name not in scenario.explanations:
        raise ScenarioError(f"undeclared explanation {name!r}")
    decl = scenario.explanations[name]
    if decl.get("kind") == "tautological":
        return tautological_explanation(store[decl["speaker"]], decl["target"])
    lang_name = decl.get("language")
    if lang_name not in scenario.categories:
        raise ScenarioError(f"explanation {name}: undeclared language {lang_name!r}")
    language = scenario.categories[lang_name]
    shape = _category_from_decl(decl["shape"])
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
    return _derived(
        Explanation, shape=shape, diagram=diagram, target=decl["target"], embedding=embedding
    )


# ---------------------------------------------------------------------------
# running


def run_events(
    scenario: Scenario, upto: Optional[int] = None, default_bound: Optional[int] = None
) -> tuple[Store, list[dict]]:
    store = dict(scenario.speakers)
    reports: list[dict] = []
    events = scenario.events if upto is None else scenario.events[: upto]
    for event in events:
        kind = event["event"]
        eid = event["id"]
        if kind == "validate-explanation":
            explanation = resolve_explanation(scenario, store, event["explanation"])
            report = validate_explanation(store[event["speaker"]], explanation)
        else:
            learner = store[event["learner"]]
            teacher = store[event["teacher"]] if "teacher" in event else None
            if kind == "example":
                out, report = acquire_by_example(
                    learner,
                    event["word"],
                    event["witnesses"],
                    teacher=teacher,
                    event_id=eid,
                )
            elif kind == "merged-example":
                out, report = acquire_by_example_merged(
                    learner,
                    event["word"],
                    event["witnesses"],
                    glue=event.get("glue", {}),
                    teacher=teacher,
                    event_id=eid,
                )
            else:  # paraphrasis
                explanation = resolve_explanation(scenario, store, event["explanation"])
                out, report = acquire_by_paraphrasis(
                    teacher,
                    learner,
                    event["word"],
                    explanation,
                    edge_overrides=event.get("overrides"),
                    bound=event.get("bound", default_bound),
                    event_id=eid,
                )
            store[event["learner"]] = out
        reports.append({"id": eid, "event": kind, "report": report.to_json()})
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
        size = len(store[check["speaker"]].fibre(check["object"]))
        if "equals" in check:
            return size == check["equals"], f"fibre({check['object']}) = {size}"
        return size >= check.get("at-least", 1), f"fibre({check['object']}) = {size}"
    if kind == "morphism-count":
        count = len(store[check["speaker"]].language.morphisms)
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
        now = store[check["speaker"]]
        initial = scenario.speakers[check["speaker"]]
        return now == initial, f"speaker {check['speaker']} vs initial declaration"
    if kind == "speakers-iso":
        left = store[check["left"]]
        right = store[check["right"]]
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
    event_ids = {e["id"] for e in scenario.events}
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
    """Structural validation only: every explanation is resolved against
    the declared speakers, but no event runs. The declared categories and
    speakers were checked by ``load_scenario``, so only explanations are
    listed."""
    checks = []
    for name in sorted(scenario.explanations):
        try:
            resolve_explanation(scenario, scenario.speakers, name)
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
    ``stage`` events; what they adjoined to the declared language is
    dashed, which are the words paraphrasis reported new."""
    store, _ = run_events(scenario, upto=stage, default_bound=default_bound)
    if speaker not in store:
        raise ScenarioError(f"undeclared speaker {speaker!r}")
    now = store[speaker]
    dashed = now.language.morphisms - scenario.speakers[speaker].language.morphisms
    if which == "language":
        return category_dot(
            now.language,
            name=f"{scenario.name}:{speaker}",
            dashed=dashed,
        )
    if which == "total":
        fib = now.fibration
        dashed_total = {m for m in fib.total.morphisms if fib.proj.mmap[m] in dashed}
        return category_dot(
            fib.total, name=f"{scenario.name}:{speaker}:total", dashed=dashed_total
        )
    raise ScenarioError(f"unknown export target {which!r}")


def explain_report(scenario: Scenario, speaker: str, explanation: str) -> dict:
    if speaker not in scenario.speakers:
        raise ScenarioError(f"undeclared speaker {speaker!r}")
    expl = resolve_explanation(scenario, scenario.speakers, explanation)
    check = validate_explanation(scenario.speakers[speaker], expl)
    report = check.to_json()
    if check.limit.witness is not None:
        # why the apex is empty; `fiblex run` reports leave it out
        report["empty_witness"] = check.limit.witness
    return report
