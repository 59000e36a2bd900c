"""Every malformed document is refused, by the rule table, and names its cause.

The probe mutates documents: it drops each key in turn, or sets its value
to ``1``, ``["x"]``, ``{"x": 1}`` or ``null``. The four shipped documents
are mutated at every key. The benchmark's generated documents (seed 0 of
each workload) are mutated at the first key of each pattern, a path with
its indices and declared names as wildcards, so that every kind of key of
every kind of declaration they hold is mutated once. Each mutant must
either load and run, or be refused with a ``FiblexError``; none may crash.
The rendering of the rule table, ``scenarios/schema.json``, must agree
with the loader on every mutant: what the schema rejects the loader
refuses, and what the schema accepts no key or type rule refuses.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

import fiblex.scenario as scenario_mod
from fiblex.cli import main
from fiblex.errors import FiblexError, ScenarioError
from fiblex.scenario import load_scenario, run_scenario
from schema_render import schema_text

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
SHIPPED = ["alice-bob.json", "evil-cat.json", "look-a-cat.json", "slab.json"]
_spec = importlib.util.spec_from_file_location("bench_generate", ROOT / "bench" / "generate.py")
bench_generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_generate)

DROP = object()
VALUES = (DROP, 1, ["x"], {"x": 1}, None)


def _paths(value, prefix=()):
    """The path of every key of every object in ``value``, in document order."""
    if isinstance(value, dict):
        for key, member in value.items():
            yield prefix + (key,)
            yield from _paths(member, prefix + (key,))
    elif isinstance(value, list):
        for index, member in enumerate(value):
            yield from _paths(member, prefix + (index,))


def _mutant(text: str, path: tuple, value):
    """The document of ``text`` with the key at ``path`` dropped or set to ``value``."""
    doc = json.loads(text)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = json.loads(json.dumps(value))
    return doc


def _row_keys(t, seen=None) -> set:
    """Every key that a row of the rule table names."""
    seen = set() if seen is None else seen
    if id(t) in seen:
        return set()
    seen.add(id(t))
    if isinstance(t, scenario_mod._Decl):
        keys = {t.key} - {None}
        for required, optional in t.rows.values():
            for key, member in {**required, **optional}.items():
                keys |= {key} | _row_keys(member, seen)
        return keys
    return _row_keys(t.of, seen) if t.of is not None else set()


ROW_KEYS = _row_keys(scenario_mod._DOCUMENT)


def _pattern(path: tuple) -> tuple:
    """``path`` with each list index and each name that no row declares
    (a speaker's, an object's, an element's) written as a wildcard."""
    return tuple("#" if isinstance(k, int) else k if k in ROW_KEYS else "*" for k in path)


def _sampled(text: str, per_pattern: int = 1):
    """The first ``per_pattern`` paths of each pattern of the document."""
    taken: dict = {}
    for path in _paths(json.loads(text)):
        if taken.setdefault(_pattern(path), 0) < per_pattern:
            taken[_pattern(path)] += 1
            yield path


def _documents():
    for name in SHIPPED:
        text = (SCENARIOS / name).read_text()
        yield name, text, list(_paths(json.loads(text)))
    for workload in bench_generate.WORKLOADS:
        text = json.dumps(bench_generate.generate(workload, 0)[0])
        yield f"{workload}-0", text, list(_sampled(text))


DOCUMENTS = list(_documents())

IDS = [name for name, *_ in DOCUMENTS]


def _mutants(text: str, paths: list):
    for path in paths:
        for value in VALUES:
            yield path, value, _mutant(text, path, value)


@pytest.mark.parametrize("name, text, paths", DOCUMENTS, ids=IDS)
def test_every_mutant_loads_and_runs_or_is_refused(name, text, paths):
    crashes = []
    for path, value, doc in _mutants(text, paths):
        try:
            run_scenario(load_scenario(doc))
        except FiblexError:
            pass
        except Exception as err:  # noqa: BLE001 - any other exception is a crash
            crashes.append((path, "drop" if value is DROP else value, repr(err)))
    assert crashes == []


def _local(doc: dict, path: tuple) -> dict:
    """What a mutation at ``path`` can make ill-formed: the document's
    name and, of the table it changed, the member it changed alone. Every
    key and type rule reads one declaration, so the rules and the schema
    judge it as they judge the whole document."""
    local = {key: doc[key] for key in ("name", path[0]) if key in doc}
    table = local.get(path[0])
    if len(path) > 1 and isinstance(table, dict):
        local[path[0]] = {key: table[key] for key in (path[1],) if key in table}
    elif len(path) > 1 and isinstance(table, list):
        local[path[0]] = table[path[1]:path[1] + 1]
    return local


@pytest.mark.parametrize("name, text, paths", DOCUMENTS, ids=IDS)
def test_the_schema_and_the_rule_table_agree_on_every_mutant(name, text, paths):
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft7Validator(json.loads((SCENARIOS / "schema.json").read_text()))
    disagree = []
    for path, value, doc in _mutants(text, paths):
        if name not in SHIPPED:
            doc = _local(doc, path)
        fault = scenario_mod._document_fault(doc)
        if validator.is_valid(doc) != (fault is None):
            disagree.append((path, "drop" if value is DROP else value, fault))
            continue
        if fault is not None:
            with pytest.raises(ScenarioError, match="^" + re.escape(fault) + "$"):
                load_scenario(doc)
    assert disagree == []


INTEGER_KEYS = {"equals", "at-least", "count", "apex-size", "bound", "z_max"}


def _integer_paths(value, prefix=()):
    """The path of each integer that ``value`` holds at a key the rule table
    asks an integer of, and of the ``bound`` or ``z_max`` that each free
    category, paraphrasis and pregroup category it holds may add."""
    if isinstance(value, dict):
        if value.get("kind") == "free" or value.get("event") == "paraphrasis":
            yield prefix + ("bound",)
        if value.get("kind") == "pregroup":
            yield prefix + ("z_max",)
        for key, member in value.items():
            if key in INTEGER_KEYS and type(member) is int:
                yield prefix + (key,)
            yield from _integer_paths(member, prefix + (key,))
    elif isinstance(value, list):
        for index, member in enumerate(value):
            yield from _integer_paths(member, prefix + (index,))


def _outcome(doc):
    """The exit code and report of a run of ``doc``, or the class of its refusal."""
    try:
        return run_scenario(load_scenario(doc))
    except FiblexError as err:
        return type(err)


@pytest.mark.parametrize("name, text, paths", DOCUMENTS, ids=IDS)
def test_a_whole_float_is_an_integer_to_the_loader_and_the_schema(name, text, paths):
    # JSON Schema's "integer" takes 1.0; the loader takes it too, runs it as
    # it runs 1, and still refuses 1.5
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft7Validator(json.loads((SCENARIOS / "schema.json").read_text()))
    integer_paths = list(dict.fromkeys(_integer_paths(json.loads(text))))
    assert integer_paths
    disagree = []
    for path in integer_paths:
        for value, refused in ((1.0, False), (1.5, True)):
            doc = _local(_mutant(text, path, value), path)
            fault = scenario_mod._document_fault(doc)
            if validator.is_valid(doc) == refused or (fault is not None) != refused:
                disagree.append((path, value, fault))
    assert disagree == []
    first = {}
    for path in integer_paths:
        first.setdefault(_pattern(path), path)
    for path in first.values():
        assert _outcome(_mutant(text, path, 1.0)) == _outcome(_mutant(text, path, 1)), path


def test_the_schema_is_the_rendering_of_the_rule_table():
    assert (SCENARIOS / "schema.json").read_text() == schema_text()


@pytest.mark.parametrize("doc", [
    *[pytest.param(json.loads((SCENARIOS / name).read_text()), id=name) for name in SHIPPED],
    *[pytest.param(bench_generate.generate(workload, seed)[0], id=f"{workload}-{seed}")
      for workload in bench_generate.WORKLOADS for seed in (0, 1, 2)],
])
def test_a_valid_document_takes_the_compiled_check_alone(doc):
    # the walk that names a fault runs only when the compiled check refuses
    assert scenario_mod._DOCUMENT.ok((doc,))
    assert scenario_mod._document_fault(doc) is None


MUTATED = [  # (document, path, value, refusal)
    ("alice-bob.json", ("events", 0, "learner"), DROP,
     "event adopted-a-cat: missing key 'learner'"),
    ("alice-bob.json", ("events", 0, "event"), ["x"],
     "event adopted-a-cat: key 'event' is not one of example, merged-example, paraphrasis, "
     "validate-explanation"),
    ("alice-bob.json", ("assertions", 2, "names"), 1,
     "assertion assert2:new-morphisms: key 'names' is not a list of strings"),
    ("look-a-cat.json", ("assertions", 1, "equals"), None,
     "assertion assert1:fibre-size: key 'equals' is not an integer"),
    ("look-a-cat.json", ("categories", "lang", "kind"), ["x"],
     "category lang: key 'kind' is not one of explicit, discrete, terminal, free, pregroup"),
    ("slab.json", ("events", 0, "witnesses"), {"x": 1},
     "event bring-me-a-slab: key 'witnesses' is not a list of strings"),
    ("evil-cat.json", ("explanations", "black-evil-feline", "shape", "kind"), 1,
     "explanation black-evil-feline: key 'kind' is not one of explicit, discrete, terminal, "
     "free, pregroup"),
    ("evil-cat.json", ("name",), DROP, "missing key 'name'"),
]


@pytest.mark.parametrize("name, path, value, message", MUTATED)
def test_a_mutant_is_refused_by_the_cli_with_exit_2(name, path, value, message, tmp_path):
    doc = _mutant((SCENARIOS / name).read_text(), path, value)
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert str(err.value) == message
    target = tmp_path / "mutant.json"
    target.write_text(json.dumps(doc))
    for command in (["run", str(target)], ["validate", str(target)]):
        result = CliRunner().invoke(main, command)
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("decl, message", [
    ({"kind": "pregroup", "basics": [], "phrases": []},
     "category q: no basic type to take as the sentence type"),
    ({"kind": "pregroup", "basics": ["n"], "phrases": [], "lexicon": {"w": "n"}},
     "category q: pregroup category: lexicon key 'w' is not a list of strings"),
    ({"kind": "pregroup", "basics": ["n"], "phrases": [], "order": [["n"]]},
     "category q: pregroup category: key 'order' is not a list of lists of two strings"),
])
def test_a_pregroup_declaration_is_refused_not_crashed(decl, message):
    # these used to raise IndexError, to read the type "n" as the list of its
    # letters, and to raise ValueError
    with pytest.raises(ScenarioError) as err:
        load_scenario({"name": "q", "categories": {"q": decl}})
    assert str(err.value) == message


def test_an_empty_pregroup_with_a_sentence_type_loads():
    # the default sentence type, the first basic type, was read even when given
    scenario = load_scenario({"name": "q", "categories": {"q": {
        "kind": "pregroup", "basics": [], "phrases": [], "sentence": ""}}})
    assert scenario.categories["q"].objects == frozenset()
