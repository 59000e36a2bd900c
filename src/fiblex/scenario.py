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

from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain, compress, repeat
from operator import is_not, itemgetter
from typing import Callable, Optional

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
from .jsonio import canonical_dumps, category_from_dict
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
# run reports whose acquisition reports list only the fibres their event changed
REPORT_FORMAT = 2

# ---------------------------------------------------------------------------
# the rule table
#
# What a document may hold, as JSON types. A declaration is an object
# whose keys its row gives, the required and the optional ones, each
# with the type of its value; a declaration with kinds takes the row its
# kind names. The loader's key and type checks are compiled from this
# table, and scenarios/schema.json renders it (tests/schema_render.py).

_ABSENT = object()  # what the fast check reads for a key left out
_present = partial(is_not, _ABSENT)


def _at(*parts: str) -> str:
    """An error message: the non-empty ``parts``, joined by colons."""
    return ": ".join(filter(None, parts))


@dataclass(frozen=True, eq=False)
class _Json:
    """A JSON value of one of the Python ``types``, ``name`` in errors: a
    scalar, or a list or an object of members ``of`` one type, each a list
    of ``size`` members if that is set. Errors call a member declaration
    ``noun`` and its key, or ``ident`` of its index and value; with a
    ``refusal``, a value of another type is refused as that."""

    name: str
    types: frozenset
    of: object = None
    size: int = 0
    noun: str = ""
    ident: Callable = lambda index, member: index
    refusal: str = ""

    def ok(self, values) -> bool:
        """Whether each of ``values`` has this type, by C-level passes."""
        if self.of is not None:
            values = tuple(values)
            return (self.types.issuperset(map(type, values))
                    and (not self.size or {self.size}.issuperset(map(len, values)))
                    and self.of.ok(chain.from_iterable(
                        map(dict.values if dict in self.types else iter, filter(None, values)))))
        if float in self.types:  # JSON's integers, 1.0 among them, as JSON Schema reads them
            values = tuple(values)
            return self.types.issuperset(map(type, values)) and all(
                v.is_integer() for v in values if type(v) is float)
        if self.types is not _STRING:
            return self.types.issuperset(map(type, values))
        try:  # the fastest pass: a join refuses a member that is not a string
            "".join(values)
        except TypeError:
            return False
        return True

    def fault(self, value, key: str, where: str, inner: str) -> Optional[str]:
        """Why ``value``, at ``key`` of a declaration, is not of this type:
        the value itself, or its first member at fault (by least key)."""
        if type(value) not in self.types and self.refusal:
            return _at(where, f"{self.refusal} {value!r}")
        # a scalar, or a list or object of scalars or of fixed-size lists, is named whole
        leaf = getattr(self.of, "of", None) is None or self.of.size
        if type(value) not in self.types or leaf:
            return _at(where, inner, f"key {key!r} is not {self.name}")
        m = next((m for m in (sorted(value) if dict in self.types else range(len(value)))
                  if not self.of.ok((value[m],))), None)
        if m is None:
            return None
        if isinstance(self.of, _Json):
            return _at(where, inner, f"{key} key {m!r} is not {self.of.name}")
        label = f"{self.noun} {self.ident(m, value[m])}"
        return self.of.fault(value[m], None, *((where, f"{inner} {label}") if where else (label, "")))


@dataclass(frozen=True, eq=False)
class _Decl:
    """An object with the keys of the row of ``rows`` that its ``key``
    names, or ``default`` when it has none (a declaration without kinds
    has one row, under None); with a ``noun``, errors call it by its kind,
    as a free category."""

    rows: dict
    key: Optional[str] = None
    default: Optional[str] = None
    noun: str = ""
    name = "an object"
    types = frozenset({dict})
    of, size = _ABSENT, 0  # not a list or an object of members

    def __post_init__(self):
        # a pass of the fast check for each key and type, over the
        # declarations of the kinds with it, by an itemgetter (which
        # refuses the key missing) where they require it
        passes: dict = {}
        for kind, (required, optional) in self.rows.items():
            for k, t in {**required, **optional}.items():
                passes.setdefault((k, t, k in required), set()).add(kind)
        object.__setattr__(self, "passes", [(k, t, frozenset(kinds), req and itemgetter(k))
                                            for (k, t, req), kinds in passes.items()])

    def ok(self, decls) -> bool:
        """Whether each of ``decls`` holds the row of its kind, by C-level
        passes over the values of each key in all of those that have it."""
        decls = tuple(decls)
        if not self.types.issuperset(map(type, decls)):
            return False
        kinds = tuple(map(dict.get, decls, repeat(self.key), repeat(self.default)))
        try:
            present = set(kinds)
            if not self.rows.keys() >= present:
                return False
            for k, t, of, get in self.passes:
                if of.isdisjoint(present):
                    continue
                some = decls if of >= present else compress(decls, map(of.__contains__, kinds))
                if not t.ok(map(get, some) if get else
                            filter(_present, map(dict.get, some, repeat(k), repeat(_ABSENT)))):
                    return False
        except (KeyError, TypeError):  # a required key is missing, or a kind is a list
            return False
        return True

    def fault(self, decl, key: Optional[str], where: str, inner: str) -> Optional[str]:
        """The first fault of ``decl``, at ``key`` of a declaration unless
        that is None, in an error that starts ``where`` and ``inner``."""
        if type(decl) is not dict and key:
            return _at(where, inner, f"key {key!r} is not an object")
        if type(decl) is not dict:
            return _at(where, f"{inner or 'declaration'} is not an object")
        kind = decl.get(self.key, self.default)
        if kind not in [*self.rows]:
            return _at(where, inner, f"key {self.key!r} is not one of {', '.join(self.rows)}"
                       if self.key in decl else f"missing key {self.key!r}")
        required, optional = self.rows[kind]
        inner = f"{kind} {self.noun}" if self.noun else inner
        for k in required:
            if k not in decl:
                return _at(where, f"{inner} is missing key {k!r}" if inner
                           else f"missing key {k!r}")
        return next((t.fault(decl[k], k, where, inner) for k, t in {**required, **optional}.items()
                     if k in decl and not t.ok((decl[k],))), None)


_LIST, _OBJECT, _STRING = frozenset({list}), frozenset({dict}), frozenset({str})
_STR = _Json("a string", _STRING)
_INT = _Json("an integer", frozenset({int, float}))
_BOOL = _Json("a boolean", frozenset({bool}))
_BOUND = _Json("an integer or null", frozenset({int, float, type(None)}))
_STRS = _Json("a list of strings", _LIST, _STR)
_NAMES = _Json("an object of strings", _OBJECT, _STR)
_ARROW = _Decl({None: ({"id": _STR, "src": _STR, "tgt": _STR}, {})})
_CATEGORY = _Decl({
    "explicit": ({"objects": _STRS}, {
        "morphisms": _Json("a list", _LIST, _ARROW, noun="morphism"),
        "compose": _Json("a list of lists of three strings", _LIST, _Json("", _LIST, _STR, 3)),
        "identity": _NAMES, "closed": _BOOL}),
    "discrete": ({"objects": _STRS}, {}),
    "terminal": ({}, {"object": _STR}),
    "free": ({"vertices": _STRS, "edges": _Json("a list", _LIST, _ARROW, noun="edge")},
             {"bound": _BOUND}),
    "pregroup": ({"basics": _STRS, "phrases": _STRS}, {
        "order": _Json("a list of lists of two strings", _LIST, _Json("", _LIST, _STR, 2)),
        "lexicon": _Json("an object", _OBJECT, _STRS), "sentence": _STR, "z_max": _INT}),
}, key="kind", default="explicit", noun="category")
_SPEAKER = _Decl({None: ({"language": replace(_STR, refusal="undeclared language")}, {
    "fibres": _Json("an object", _OBJECT, _STRS), "actions": _Json("an object", _OBJECT, _NAMES)})})
_EXPLANATION = _Decl({  # whose shape is declared as a category is
    "tautological": ({"speaker": _STR, "target": _STR}, {}),
    "diagram": ({"language": _STR, "shape": replace(_CATEGORY, noun="shape"), "target": _STR,
                 "diagram": _NAMES}, {"diagram_morphisms": _NAMES, "embedding": _NAMES}),
}, key="kind", default="diagram")
_EXAMPLE = {"learner": _STR, "word": _STR, "witnesses": _STRS}
_EVENT = _Decl({
    "example": (_EXAMPLE, {"id": _STR, "teacher": _STR}),
    "merged-example": (_EXAMPLE, {"id": _STR, "teacher": _STR, "glue": _NAMES}),
    "paraphrasis": ({"learner": _STR, "teacher": _STR, "word": _STR, "explanation": _STR},
                    {"id": _STR, "overrides": _Json("an object", _OBJECT, _NAMES),
                     "bound": _BOUND}),
    "validate-explanation": ({"speaker": _STR, "explanation": _STR}, {"id": _STR}),
}, key="event")
_ASSERTION = _Decl({
    "fibre-size": ({"speaker": _STR, "object": _STR},
                   {"name": _STR, "equals": _INT, "at-least": _INT}),
    "morphism-count": ({"speaker": _STR, "equals": _INT}, {"name": _STR}),
    "new-morphisms": ({"event": _STR}, {"name": _STR, "count": _INT, "names": _STRS}),
    "outcome": ({"event": _STR, "equals": _STR}, {"name": _STR}),
    "explanation": ({"event": _STR}, {"name": _STR, "valid": _BOOL, "exact": _BOOL,
                                      "vacuous": _BOOL, "apex-size": _INT}),
    "unchanged": ({"speaker": _STR}, {"name": _STR}),
    "speakers-iso": ({"left": _STR, "right": _STR}, {"name": _STR}),
}, key="assert")
_DOCUMENT = _Decl({None: ({"name": _STR}, {
    "categories": _Json("an object", _OBJECT, _CATEGORY, noun="category"),
    "speakers": _Json("an object", _OBJECT, _SPEAKER, noun="speaker"),
    "explanations": _Json("an object", _OBJECT, _EXPLANATION, noun="explanation"),
    "events": _Json("a list", _LIST, _EVENT, noun="event", ident=lambda i, event: event["id"]
                    if type(event) is dict and type(event.get("id")) is str else f"ev{i}"),
    "assertions": _Json("a list", _LIST, _ASSERTION, noun="assertion", ident=lambda i, check:
                        _assertion_name(check, i) if type(check) is dict else f"assert{i}"),
})})


def _document_fault(doc) -> Optional[str]:
    """The first fault of ``doc`` by the rule table, or None: a valid
    document takes the compiled check alone."""
    return None if _DOCUMENT.ok((doc,)) else _DOCUMENT.fault(doc, None, "", "")


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario. Explanations stay raw declarations, resolved
    when an event or a command reads them; ``shapes`` holds each shape
    they built, keyed by ``canonical_dumps`` of its declaration, the codec
    that writes the reports, so that each distinct shape declaration is
    built (and an explicit one decoded and checked) once per scenario,
    however many explanations repeat it. ``shape_keys`` holds that key
    by explanation name, so that each shape is encoded once."""

    name: str
    categories: dict[str, FinCategory]
    speakers: dict[str, Speaker]
    explanations: dict[str, dict]
    events: list[dict]
    assertions: list[dict]
    shapes: dict[str, FinCategory] = field(default_factory=dict, compare=False, repr=False)
    shape_keys: dict[str, str] = field(default_factory=dict, compare=False, repr=False)


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
        if "sentence" not in decl and not decl["basics"]:
            raise FiblexError("no basic type to take as the sentence type")
        z_max = decl.get("z_max", 2)
        order = type_order(decl["basics"], [tuple(p) for p in decl.get("order", [])])
        entries = {
            w: tuple(parse_type(t, z_max) for t in ts)
            for w, ts in decl.get("lexicon", {}).items()
        }
        lex = Lexicon(
            order=order,
            entries=entries,
            sentence=parse_type(decl["sentence"] if "sentence" in decl else decl["basics"][0],
                                z_max),
            z_max=z_max,
        )
        return language_category_from_lexicon(lex, decl["phrases"])
    return category_from_dict(decl)


def _declared_speaker(name: str, language: FinCategory, fibres: dict, actions: dict) -> Speaker:
    """The speaker with the declared fibres and non-identity actions over
    a language whose axioms the caller has checked, assembled in the form
    of ``SetFunctor`` in one pass over what was written, and checked: a
    ``{}`` over an empty fibre is dropped, a non-empty graph over one is
    refused as not total. A ``fibres`` key that names no object, or an
    ``actions`` key that names no morphism, raises ``ScenarioError``, and
    a non-identity morphism without an action raises ``FiblexError``,
    each naming the least such key or morphism."""
    stray = set(fibres).difference(language.objects)
    if stray:
        raise ScenarioError(f"fibres key {min(stray)!r} names no object")
    stray = set(actions).difference(language.morphisms)
    if stray:
        raise ScenarioError(f"actions key {min(stray)!r} names no morphism")
    ids = language.identities()
    # the written keys are morphisms, so they cover the non-identities when they count as many
    if len(actions) - len(ids.intersection(actions)) < len(language.morphisms) - len(ids):
        missing = language.morphisms.difference(ids, actions)
        raise FiblexError(f"no action table for {min(missing)}")
    value = {o: fibre for o, elements in fibres.items() if (fibre := frozenset(elements))}
    over = language.tgt  # a meaning's graph runs out of the fibre over its morphism's target
    action = {m: dict(graph) for m, graph in actions.items()  # identities are made below
              if m not in ids and (graph or over[m] in value)}
    for o, fibre in value.items():
        action[language.identity[o]] = {x: x for x in fibre}
    meaning = _derived(SetFunctor, base=opposite(language), value=value, action=action)
    problems = validate_setfunctor(meaning)
    if problems:
        raise FiblexError(f"invalid meaning: {problems[0]}")
    return _derived(Speaker, name=name, language=language, meaning=meaning)


def load_scenario(doc: dict) -> Scenario:
    """The scenario that ``doc`` declares. A document that the rule table
    refuses, a name that nothing declares, and a declaration that builds
    no category or speaker, raise ``ScenarioError``."""
    if (fault := _document_fault(doc)) is not None:
        raise ScenarioError(fault)
    categories: dict[str, FinCategory] = {}
    for name, decl in doc.get("categories", {}).items():
        try:
            categories[name] = _category_from_decl(decl)
        except FiblexError as err:
            raise ScenarioError(f"category {name}: {err}") from err

    # speakers share their declared language
    speakers: dict[str, Speaker] = {}
    for name, decl in doc.get("speakers", {}).items():
        lang_name = decl["language"]
        if lang_name not in categories:
            raise ScenarioError(f"speaker {name}: undeclared language {lang_name!r}")
        try:
            speakers[name] = _declared_speaker(
                name, categories[lang_name], decl.get("fibres", {}), decl.get("actions", {})
            )
        except FiblexError as err:
            raise ScenarioError(f"speaker {name}: {err}") from err

    events = [event if "id" in event else {**event, "id": f"ev{i}"}
              for i, event in enumerate(doc.get("events", []))]
    ids = [event["id"] for event in events]
    if len(set(ids)) != len(ids):
        raise ScenarioError("event ids are not unique")

    scenario = Scenario(
        name=doc["name"],
        categories=categories,
        speakers=speakers,
        explanations=dict(doc.get("explanations", {})),
        events=events,
        assertions=list(doc.get("assertions", [])),
    )
    _check_references(scenario)
    return scenario


def _check_references(scenario: Scenario) -> None:
    """Refuse a name, given as a string, that nothing declares: a speaker,
    an event or an explanation, or the object of a ``fibre-size``
    assertion."""
    known = scenario.speakers.keys()
    for name, decl in scenario.explanations.items():
        key, names = (("speaker", known) if decl.get("kind") == "tautological"
                      else ("language", scenario.categories))
        if decl[key] not in names:
            raise ScenarioError(f"explanation {name}: undeclared {key} {decl[key]!r}")
    for event in scenario.events:
        for key in ("learner", "teacher", "speaker"):
            if type(event.get(key)) is str and event[key] not in known:
                raise ScenarioError(f"event {event['id']}: undeclared speaker {event[key]!r}")
        name = event.get("explanation")
        if type(name) is str and name not in scenario.explanations:
            raise ScenarioError(f"event {event['id']}: undeclared explanation {name!r}")
    event_ids = {e["id"] for e in scenario.events}
    for check in scenario.assertions:
        for key in ("speaker", "left", "right"):
            if type(check.get(key)) is str and check[key] not in known:
                raise ScenarioError(f"assertion references undeclared speaker {check[key]!r}")
        if type(check.get("event")) is str and check["event"] not in event_ids:
            raise ScenarioError(f"assertion references unknown event {check['event']!r}")
        # acquisitions add no objects, so the declared language has them all
        if check["assert"] == "fibre-size" and (
                check["object"] not in scenario.speakers[check["speaker"]].language.objects):
            raise ScenarioError(f"assertion references unknown object {check['object']!r} "
                                f"of speaker {check['speaker']!r}")


def resolve_explanation(scenario: Scenario, store: Store, name: str) -> Explanation:
    """The declared explanation ``name``: tautological over the speaker in
    ``store``, or a diagram into its declared language over a shape taken
    from ``scenario.shapes`` when an equal declaration built it before."""
    if name not in scenario.explanations:
        raise ScenarioError(f"undeclared explanation {name!r}")
    decl = scenario.explanations[name]
    if decl.get("kind") == "tautological":
        return tautological_explanation(store[decl["speaker"]], decl["target"])
    language = scenario.categories[decl["language"]]
    keys = scenario.shape_keys  # a key is never empty: it ends in a newline
    key = keys.get(name) or keys.setdefault(name, canonical_dumps(decl["shape"]))
    shape = scenario.shapes.get(key)
    if shape is None:
        shape = scenario.shapes[key] = _category_from_decl(decl["shape"])
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
    diagram = _derived(CatFunctor, dom=shape, cod=language, omap=omap, mmap=mmap)
    return _derived(
        Explanation, shape=shape, diagram=diagram, target=decl["target"], embedding=embedding
    )


# ---------------------------------------------------------------------------
# running


def run_events(
    scenario: Scenario, upto: Optional[int] = None, reports: Optional[list[dict]] = None,
) -> tuple[Store, list[dict]]:
    """Run the first ``upto`` events, all of them when it is None; a
    negative ``upto`` raises ``ScenarioError``. Each report is appended to
    ``reports`` as its event ends, so a caller's own list keeps those
    before an error."""
    if upto is not None and upto < 0:
        raise ScenarioError(f"stage {upto} is negative; it counts the events to run")
    store = dict(scenario.speakers)
    reports = [] if reports is None else reports
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
                    bound=event.get("bound"),
                    event_id=eid,
                )
            store[event["learner"]] = out
        reports.append({"id": eid, "event": kind, "report": report.to_json()})
    return store, reports


def evaluate_assertion(
    scenario: Scenario, store: Store, reports: dict[str, dict], check: dict
) -> tuple[bool, str]:
    """Whether ``check`` holds, and its detail; ``reports`` maps event ids to reports."""
    kind = check.get("assert")
    if kind in ("new-morphisms", "outcome", "explanation"):
        report = reports.get(check["event"])
        if report is None:
            raise ScenarioError(f"no report for event {check['event']!r}")
    if kind == "fibre-size":
        size = len(store[check["speaker"]].fibre(check["object"]))
        if "equals" in check:
            return size == check["equals"], f"fibre({check['object']}) = {size}"
        return size >= check.get("at-least", 1), f"fibre({check['object']}) = {size}"
    if kind == "morphism-count":
        count = len(store[check["speaker"]].language.morphisms)
        return count == check["equals"], f"language has {count} morphisms"
    if kind == "new-morphisms":
        names = report.get("new_morphisms", [])
        ok = True
        if "count" in check:
            ok = ok and len(names) == check["count"]
        if "names" in check:
            ok = ok and sorted(names) == sorted(check["names"])
        return ok, f"new morphisms: {', '.join(names) or 'none'}"
    if kind == "outcome":
        outcome = report.get("outcome")
        return outcome == check["equals"], f"outcome = {outcome}"
    if kind == "explanation":
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
    # speakers-iso
    left = store[check["left"]]
    right = store[check["right"]]
    if left.language != right.language:
        return False, "languages differ"
    differ = [o for o in left.language.objects if len(left.fibre(o)) != len(right.fibre(o))]
    if differ:
        o = min(differ)
        return False, f"fibre sizes differ at {o}: {len(left.fibre(o))} vs {len(right.fibre(o))}"
    witness = natural_iso_check(left.meaning, right.meaning)
    return witness is not None, "meanings naturally isomorphic" if witness else "no witness"


def _assertion_name(check: dict, index: int) -> str:
    return check.get("name", f"assert{index}:{check.get('assert')}")


def run_scenario(scenario: Scenario) -> tuple[int, dict]:
    """Execute events, evaluate assertions, and assemble the canonical
    report. Exit status: 0 pass, 1 assertion failure, 2 structural error,
    named after the event that raised it, with the reports before it."""
    reports: list[dict] = []
    try:
        store, _ = run_events(scenario, reports=reports)
    except FiblexError as err:
        failed = scenario.events[len(reports)]["id"]
        return EXIT_STRUCTURAL, {
            "scenario": scenario.name,
            "format": REPORT_FORMAT,
            "status": "error",
            "error": f"event {failed}: {err}",
            "events": reports,
            "assertions": [],
            "first_failure": None,
        }
    results = []
    first_failure = None
    by_id = {entry["id"]: entry["report"] for entry in reports}
    for i, check in enumerate(scenario.assertions):
        name = _assertion_name(check, i)
        try:
            passed, detail = evaluate_assertion(scenario, store, by_id, check)
        except FiblexError as err:
            passed, detail = False, str(err)
        results.append({**check, "name": name, "passed": passed, "detail": detail})
        if not passed and first_failure is None:
            first_failure = name
    status = "pass" if first_failure is None else "fail"
    report = {
        "scenario": scenario.name,
        "format": REPORT_FORMAT,
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
) -> str:
    """Render a speaker's language (or total category) after the first
    ``stage`` events; what they adjoined to the declared language is
    dashed, which are the words paraphrasis reported new."""
    store, _ = run_events(scenario, upto=stage)
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
