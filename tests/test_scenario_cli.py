import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from fiblex.cli import main
import fiblex.collage as collage_mod
import fiblex.fincat as fincat
import fiblex.speaker as speaker_mod
from fiblex.errors import FiblexError, IdentifierClash, ScenarioError, UnboundedHomSet
from fiblex.fincat import SetFunctor, validate_category
import fiblex.scenario as scenario_mod
import reference
from reference import validate_explanation_over_every_path
from fiblex.jsonio import canonical_dumps
from padding_probe import WORDS, padded_speakers
from fiblex.scenario import (
    export_dot,
    load_scenario,
    run_events,
    run_scenario,
    validate_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BENCH = Path(__file__).resolve().parent.parent / "bench"
# the benchmark's document generator, loaded from its file
_spec = importlib.util.spec_from_file_location("bench_generate", BENCH / "generate.py")
bench_generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_generate)
GOLDEN = Path(__file__).resolve().parent / "golden"


def load(name):
    return load_scenario(json.loads((SCENARIOS / name).read_text()))


SHIPPED = ["look-a-cat.json", "alice-bob.json", "evil-cat.json", "slab.json"]


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_scenarios_pass(name):
    code, report = run_scenario(load(name))
    assert code == 0, report
    assert report["status"] == "pass"
    assert all(a["passed"] for a in report["assertions"])


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_scenarios_validate(name):
    report = validate_scenario(load(name))
    assert report["status"] == "ok"


def test_alice_bob_report_details():
    code, report = run_scenario(load("alice-bob.json"))
    assert code == 0
    by_id = {e["id"]: e["report"] for e in report["events"]}
    learned = by_id["adopted-a-cat"]
    assert learned["outcome"] == "learned"
    assert learned["fibres_after"]["cat"] == 2
    assert learned["new_morphisms"] == ["cat→black", "cat→cursed", "cat→feline"]
    assert by_id["circular-explanation"]["outcome"] == "no-sense"


def test_evilcat_report_shows_exact_explanation():
    code, report = run_scenario(load("evil-cat.json"))
    assert code == 0
    check = report["events"][0]["report"]
    assert check["valid"] and check["exact"] and not check["vacuous"]
    assert check["apex_size"] == 4


def test_false_assertion_fails_with_name():
    doc = json.loads((SCENARIOS / "look-a-cat.json").read_text())
    doc["assertions"].append(
        {"assert": "fibre-size", "speaker": "bob", "object": "cat", "equals": 99,
         "name": "wishful-thinking"}
    )
    code, report = run_scenario(load_scenario(doc))
    assert code == 1
    assert report["status"] == "fail"
    assert report["first_failure"] == "wishful-thinking"


def test_undeclared_speaker_is_a_structural_error():
    doc = json.loads((SCENARIOS / "look-a-cat.json").read_text())
    doc["events"][0]["learner"] = "nobody"
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert "nobody" in str(err.value)


THREE_ARROWS = {
    "kind": "explicit",
    "objects": ["A", "B", "C"],
    "morphisms": [
        {"id": "f", "src": "A", "tgt": "B"},
        {"id": "g", "src": "B", "tgt": "C"},
        {"id": "h", "src": "A", "tgt": "C"},
    ],
    "compose": [["g", "f", "h"]],
}
FUNCTORIAL = {"f": {"b": "a1"}, "g": {"c": "b"}, "h": {"c": "a1"}}


def one_speaker_doc(language, actions):
    return {
        "name": "boundary",
        "categories": {"lang": language},
        "speakers": {
            "bob": {
                "language": "lang",
                "fibres": {"A": ["a1", "a2"], "B": ["b"], "C": ["c"]},
                "actions": actions,
            }
        },
    }


def test_declared_speakers_share_their_checked_language():
    scenario = load_scenario(one_speaker_doc(THREE_ARROWS, FUNCTORIAL))
    assert scenario.speakers["bob"].language is scenario.categories["lang"]
    assert scenario.categories["lang"].compose[("h", "id_A")] == "h"


@pytest.mark.parametrize("language, actions, message", [
    (THREE_ARROWS, {**FUNCTORIAL, "h": {"c": "a2"}},
     "speaker bob: invalid meaning: action of composite h disagrees with the composite "
     "action at c"),
    (THREE_ARROWS, {**FUNCTORIAL, "f": {"b": "zz"}},
     "speaker bob: invalid meaning: action of f leaves the target value set"),
    (THREE_ARROWS, {"f": {"b": "a1"}, "g": {"c": "b"}},
     "speaker bob: no action table for h"),
    ({**THREE_ARROWS, "compose": []}, FUNCTORIAL,
     "category lang: no composite for composable pair (g, f)"),
])
def test_bad_declarations_name_their_cause(language, actions, message):
    with pytest.raises(ScenarioError) as err:
        load_scenario(one_speaker_doc(language, actions))
    assert str(err.value) == message


@pytest.mark.parametrize("key, entry, message", [
    ("fibres", {"A": ["a1", "a2"], "B": ["b"], "C": ["c"], "D": ["d"]},
     "speaker bob: fibres key 'D' names no object"),
    ("actions", {**FUNCTORIAL, "k": {"c": "b"}},
     "speaker bob: actions key 'k' names no morphism"),
])
def test_declared_speaker_keys_must_name_the_language(key, entry, message):
    doc = one_speaker_doc(THREE_ARROWS, FUNCTORIAL)
    doc["speakers"]["bob"][key] = entry
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert str(err.value) == message


def bob(doc):
    return doc["speakers"]["bob"]


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda d: d.update(speakers=[{"language": "lang"}]),
                 "key 'speakers' is not an object", id="speakers-list"),
    pytest.param(lambda d: d["speakers"].update(bob=["lang"]),
                 "speaker bob: declaration is not an object", id="speaker-list"),
    pytest.param(lambda d: bob(d).update(language=["lang"]),
                 "speaker bob: undeclared language ['lang']", id="language-list"),
    pytest.param(lambda d: bob(d).update(fibres=[["A", "a1"]]),
                 "speaker bob: key 'fibres' is not an object", id="fibres-list"),
    pytest.param(lambda d: bob(d).update(actions="f"),
                 "speaker bob: key 'actions' is not an object", id="actions-string"),
    pytest.param(lambda d: bob(d)["fibres"].update(B=3),
                 "speaker bob: fibres key 'B' is not a list of strings", id="fibre-number"),
    pytest.param(lambda d: bob(d)["fibres"].update(B="b"),
                 "speaker bob: fibres key 'B' is not a list of strings", id="fibre-string"),
    pytest.param(lambda d: bob(d)["fibres"].update(B=[["b"]]),
                 "speaker bob: fibres key 'B' is not a list of strings", id="fibre-of-lists"),
    pytest.param(lambda d: bob(d).update(fibres={"C": {"c": "c"}, "A": ["a1"], "B": None}),
                 "speaker bob: fibres key 'B' is not a list of strings", id="least-fibre-key"),
    pytest.param(lambda d: bob(d)["actions"].update(g="b"),
                 "speaker bob: actions key 'g' is not an object of strings", id="action-string"),
    pytest.param(lambda d: bob(d)["actions"].update(g=[["c", "b"]]),
                 "speaker bob: actions key 'g' is not an object of strings", id="action-pairs"),
    pytest.param(lambda d: bob(d)["actions"].update(g={"c": ["b"]}),
                 "speaker bob: actions key 'g' is not an object of strings", id="image-list"),
    pytest.param(lambda d: bob(d).update(actions={"h": {"c": 1}, "f": {"b": "a1"}, "g": None}),
                 "speaker bob: actions key 'g' is not an object of strings", id="least-action-key"),
])
def test_a_speaker_of_the_wrong_json_type_is_refused(edit, message, tmp_path):
    doc = one_speaker_doc(THREE_ARROWS, dict(FUNCTORIAL))
    edit(doc)
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert str(err.value) == message
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    for command in (["run", str(path)], ["validate", str(path)]):
        result = CliRunner().invoke(main, command)
        assert result.exit_code == 2, result.output
        assert f"error: {message}" in result.output
    jsonschema = pytest.importorskip("jsonschema")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, json.loads((SCENARIOS / "schema.json").read_text()))


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda d: d.update(categories=[]), "key 'categories' is not an object",
                 id="categories-list"),
    pytest.param(lambda d: d["categories"].update(lang=["a"]),
                 "category lang: declaration is not an object", id="category-list"),
    pytest.param(lambda d: d.update(events={"a": 1}), "key 'events' is not a list",
                 id="events-object"),
    pytest.param(lambda d: d.update(events=[1]), "event ev0: declaration is not an object",
                 id="event-number"),
    pytest.param(lambda d: d.update(explanations=[]), "key 'explanations' is not an object",
                 id="explanations-list"),
    pytest.param(lambda d: d.update(assertions={}), "key 'assertions' is not a list",
                 id="assertions-object"),
])
def test_a_table_of_the_wrong_json_type_is_refused(edit, message, tmp_path):
    doc = one_speaker_doc(THREE_ARROWS, dict(FUNCTORIAL))
    edit(doc)
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert str(err.value) == message
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    for command in (["run", str(path)], ["validate", str(path)]):
        result = CliRunner().invoke(main, command)
        assert result.exit_code == 2, result.output
        assert f"error: {message}" in result.output
    jsonschema = pytest.importorskip("jsonschema")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, json.loads((SCENARIOS / "schema.json").read_text()))


def test_a_missing_action_names_the_least_morphism_under_any_string_hashing(tmp_path):
    # f, g and g∘f have no action; which one a set of names yields first
    # depends on the interpreter's string hashing
    language = {"kind": "free", "vertices": ["a", "b", "c"],
                "edges": [{"id": "f", "src": "a", "tgt": "b"}, {"id": "g", "src": "b", "tgt": "c"},
                          {"id": "h", "src": "a", "tgt": "c"}]}
    doc = {"name": "gaps", "categories": {"lang": language},
           "speakers": {"p": {"language": "lang", "actions": {"h": {}}}}}
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert str(err.value) == "speaker p: no action table for f"
    path = tmp_path / "gaps.json"
    path.write_text(json.dumps(doc))
    src = str(Path(scenario_mod.__file__).resolve().parent.parent)
    for seed in ("1", "2", "3", "4"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "fiblex.cli", "validate", str(path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.strip() == "error: speaker p: no action table for f", seed


OFF_THE_VERTICES = "quiver edge f runs from cat to felin, which are not both vertices"


def test_a_free_language_with_an_edge_off_its_vertices_is_refused():
    doc = {
        "name": "typo",
        "categories": {"lang": {"kind": "free", "vertices": ["cat", "feline"],
                                "edges": [{"id": "f", "src": "cat", "tgt": "felin"}]}},
        "speakers": {"p": {"language": "lang", "fibres": {"cat": ["c"], "feline": ["x"]},
                           "actions": {"f": {"x": "c"}}}},
    }
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert str(err.value) == f"category lang: {OFF_THE_VERTICES}"


def test_an_explanation_shape_with_an_edge_off_its_vertices_is_refused():
    shape = {"kind": "free", "vertices": ["cat", "feline"],
             "edges": [{"id": "f", "src": "cat", "tgt": "felin"}]}
    doc = {
        "name": "typo",
        "categories": {"lang": {"kind": "discrete", "objects": ["black", "feline"]}},
        "speakers": {"p": {"language": "lang", "fibres": {"black": ["b"], "feline": ["x"]}}},
        "explanations": {"e": {"language": "lang", "target": "black", "shape": shape,
                               "diagram": {"cat": "feline", "feline": "feline"}}},
        "events": [{"event": "validate-explanation", "speaker": "p", "explanation": "e"}],
    }
    scenario = load_scenario(doc)
    report = validate_scenario(scenario)
    assert report["status"] == "error"
    assert report["checks"][-1] == {"explanation": "e", "problems": [OFF_THE_VERTICES]}
    code, report = run_scenario(scenario)
    assert code == 2
    assert report["error"] == OFF_THE_VERTICES


def count_calls(monkeypatch, fn):
    """Count calls of ``fn`` through every fiblex module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("fiblex."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def explicit_language_doc():
    doc = one_speaker_doc(THREE_ARROWS, FUNCTORIAL)
    doc["explanations"] = {"c": {"kind": "tautological", "speaker": "bob", "target": "C"}}
    doc["events"] = [{"event": "validate-explanation", "speaker": "bob", "explanation": "c"}]
    return doc


@pytest.mark.parametrize("name", SHIPPED + ["explicit-language"])
def test_a_run_checks_each_declaration_once(name, monkeypatch):
    categories = count_calls(monkeypatch, fincat.validate_category)
    meanings = count_calls(monkeypatch, fincat.validate_setfunctor)
    if name == "explicit-language":
        doc = explicit_language_doc()
    else:
        doc = json.loads((SCENARIOS / name).read_text())
    scenario = load_scenario(doc)
    # explicit tables are checked as they are decoded; constructions are trusted
    explicit = sum(d.get("kind", "explicit") == "explicit" for d in doc["categories"].values())
    assert len(categories) == explicit
    code, _ = run_scenario(scenario)
    assert code == 0
    # no event checks a category, an explanation's shape or a derived speaker
    assert len(categories) == explicit
    assert len(meanings) == len(doc["speakers"])


@pytest.mark.parametrize("workload", bench_generate.WORKLOADS)
def test_a_benchmark_pass_checks_no_category(workload, monkeypatch):
    doc = bench_generate.generate(workload, 1)[0]
    categories = count_calls(monkeypatch, fincat.validate_category)
    code, _ = run_scenario(load_scenario(doc))
    assert code == 0
    assert categories == []


def test_valid_meaning_checks_sort_nothing_but_the_shared_index_once(monkeypatch):
    doc = bench_generate.generate("learn-paraphrasis", 1)[0]
    sorts = []

    def counted_sorted(*args, **kwargs):
        sorts.append(args)
        return sorted(*args, **kwargs)

    check = fincat.validate_setfunctor
    per_check = []

    def counted_check(fun):
        before = len(sorts)
        problems = check(fun)
        per_check.append((len(sorts) - before, problems))
        return problems

    monkeypatch.setattr(fincat, "sorted", counted_sorted, raising=False)
    monkeypatch.setattr(scenario_mod, "validate_setfunctor", counted_check)
    load_scenario(doc)
    assert len(per_check) == len(doc["speakers"]) == 21
    assert all(problems == [] for _, problems in per_check)
    # the one sort is the shared opposite language's index by source,
    # built on its first read and cached with it
    assert [n for n, _ in per_check] == [1] + [0] * 20


class CountedTable(dict):
    """A composition table that records the keys of the entries read from it."""

    def __init__(self, table):
        super().__init__(table)
        self.read = []

    def get(self, key, default=None):
        self.read.append(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)

    def items(self):
        self.read.extend(self.keys())
        return super().items()


def counted_tables(base):
    """Counting copies of the composition tables of ``base`` and of its
    cached opposite (the language), put in their place: reading the
    first glues both when they are pending."""
    tables = []
    for cat in (base, fincat.opposite(base)):
        table = CountedTable(cat.compose)
        object.__setattr__(cat, "compose", table)
        tables.append(table)
    return tables


def compose_entries_read(k, broken):
    """The compose entries the meaning check reads for bob on the padding
    probe's language with ``k`` padding objects, all of them left empty,
    out of the base's table and out of the language's, and the size of
    the base's table. A ``broken`` meaning swaps bob's two felines under
    feline's identity."""
    _, padded_bob = padded_speakers(k)
    lang, meaning = padded_bob.language, padded_bob.meaning
    value = {o: fibre if o in WORDS else frozenset() for o, fibre in meaning.value.items()}
    action = {m: graph if lang.tgt[m] in WORDS else {} for m, graph in meaning.action.items()}
    if broken:
        action[lang.identity["feline"]] = {"tiger": "lynx", "lynx": "tiger"}
    fun = SetFunctor(meaning.base, value, action)
    tables = counted_tables(fun.base)
    problems = reference.validate_setfunctor(fun)
    assert fincat.validate_setfunctor(fun) == problems and bool(problems) == broken
    for table in tables:
        table.read.clear()
    assert fincat.validate_setfunctor(fun) == problems
    return [len(table.read) for table in tables], len(tables[0])


def test_a_meaning_check_reads_no_compose_entry_of_empty_fibres():
    # A valid meaning on a free language is checked along its paths, and
    # the padding probe's words have none: nothing is read at any K. A
    # meaning with a problem has its compose entries walked, and only
    # id∘id over feline and over black is read, at any K.
    reads, entries = compose_entries_read(0, broken=False)
    padded_reads, padded_entries = compose_entries_read(400, broken=False)
    assert padded_entries > entries + 400
    assert reads == padded_reads == [0, 0]
    reads, _ = compose_entries_read(0, broken=True)
    padded_reads, _ = compose_entries_read(400, broken=True)
    assert reads == padded_reads == [2, 0]


@pytest.mark.parametrize("workload", ["explain-limits", "learn-example"])
def test_a_valid_meaning_on_a_free_language_reads_one_composite_per_path(workload, monkeypatch):
    # Seed 1. Per declared speaker, the check reads nothing of its base's
    # table and, of its language's table, one composite per path of two
    # or more edges whose target has a non-empty fibre, and no entry with
    # an identity. explain-limits' speakers fill every fibre (36 such
    # paths over `chain`, 15 over `dag`); learn-example's learners leave
    # some empty.
    doc = bench_generate.generate(workload, 1)[0]
    check = fincat.validate_setfunctor
    reads = []  # per declared speaker, in declaration order

    def counted_check(fun):
        base_table, language_table = counted_tables(fun.base)
        problems = check(fun)
        assert problems == []
        language = fincat.opposite(fun.base)
        paths = language.paths
        expected = sorted((m, paths[m][0]) for m in paths
                          if len(paths[m]) >= 2 and fun.value[language.tgt[m]])
        read = list(language_table.read)
        assert base_table.read == []
        assert sorted((dict.get(language_table, pe), pe[1]) for pe in read) == expected
        assert not any(paths[p] == () or paths[e] == () for p, e in read)
        reads.append(len(read))
        return problems

    monkeypatch.setattr(scenario_mod, "validate_setfunctor", counted_check)
    scenario = load_scenario(doc)
    assert len(reads) == len(doc["speakers"])
    per_language = {doc["speakers"][name]["language"]: n for name, n in zip(doc["speakers"], reads)}
    if workload == "explain-limits":
        assert per_language == {"chain": 36, "dag": 15}
    else:
        assert sorted(set(reads)) == [20, 32]
    code, _ = run_scenario(scenario)
    assert code == 0


@pytest.mark.parametrize("language, message", [
    ({"kind": "free", "vertices": ["a", "b", "c"],
      "edges": [{"id": "f", "src": "a", "tgt": "b"}, {"id": "f", "src": "b", "tgt": "c"}]},
     "category lang: edge id f is given twice"),
    ({**THREE_ARROWS,
      "morphisms": THREE_ARROWS["morphisms"] + [{"id": "f", "src": "B", "tgt": "C"}]},
     "category lang: morphism id f is listed twice"),
    ({**THREE_ARROWS,
      "morphisms": THREE_ARROWS["morphisms"] + [{"id": "k", "src": "A", "tgt": "C"}],
      "compose": [["g", "f", "h"], ["g", "f", "k"]]},
     "category lang: compose entry for (g, f) is listed twice"),
])
def test_a_repeated_id_is_refused(language, message):
    with pytest.raises(ScenarioError) as err:
        load_scenario({"name": "twice", "categories": {"lang": language}})
    assert isinstance(err.value.__cause__, IdentifierClash)
    assert str(err.value) == message


# names with the delimiters of generated identifiers, the empty type's name and an identity's
TRICKY = st.sampled_from(["a", "b", "1", "id_a", "a,b", "(a)", "a@b", "a:b", "a→b", "b∘a"])


@st.composite
def declarations(draw):
    names = st.lists(TRICKY, min_size=1, max_size=4, unique=True)
    kind = draw(st.sampled_from(["discrete", "free", "pregroup"]))
    if kind == "discrete":
        return {"kind": "discrete", "objects": draw(names)}
    if kind == "free":
        vertices = draw(names)
        ids = st.one_of(TRICKY, st.sampled_from([f"id_{v}" for v in vertices]))
        edges = draw(st.lists(st.tuples(ids, st.sampled_from(vertices), st.sampled_from(vertices)),
                              max_size=4, unique_by=lambda e: e[0]))
        return {"kind": "free", "vertices": vertices, "bound": draw(st.sampled_from([None, 2])),
                "edges": [{"id": e, "src": s, "tgt": t} for e, s, t in edges]}
    basics = draw(names)
    # a basic, or a pair that contracts when the order allows
    unit = st.tuples(st.sampled_from(basics), st.sampled_from(basics)).flatmap(
        lambda ab: st.sampled_from([ab[0], f"{ab[0]} {ab[1]}^r", f"{ab[0]}^l {ab[1]}"]))
    phrase = st.lists(unit, min_size=1, max_size=3).map(" ".join)
    order = st.lists(st.tuples(st.sampled_from(basics), st.sampled_from(basics)), max_size=2)
    return {"kind": "pregroup", "basics": basics, "order": draw(order),
            "phrases": draw(st.lists(phrase, max_size=4))}


@settings(max_examples=300, deadline=None)
@given(declarations())
def test_every_declared_construction_is_a_category_or_refused(decl):
    try:
        scenario = load_scenario({"name": "adversarial", "categories": {"c": decl}})
    except FiblexError:
        return
    assert validate_category(scenario.categories["c"]) == []


@pytest.mark.parametrize("doc", [
    *[pytest.param(json.loads((SCENARIOS / name).read_text()), id=name) for name in SHIPPED],
    *[pytest.param(bench_generate.generate(w, seed)[0], id=f"{w}-{seed}")
      for w in bench_generate.WORKLOADS for seed in (0, 1, 2)],
])
def test_documents_match_the_schema(doc):
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(doc, json.loads((SCENARIOS / "schema.json").read_text()))


def test_validate_does_not_check_the_declared_categories_again(monkeypatch):
    scenario = load("alice-bob.json")
    categories = count_calls(monkeypatch, fincat.validate_category)
    report = validate_scenario(scenario)
    assert categories == []
    assert report["checks"] and all(set(c) == {"explanation", "problems"} for c in report["checks"])


def test_run_is_deterministic():
    for name in SHIPPED:
        one = canonical_dumps(run_scenario(load(name))[1])
        two = canonical_dumps(run_scenario(load(name))[1])
        assert one == two


def test_export_dot_diff_is_exactly_the_dashed_edges():
    scenario = load("alice-bob.json")
    before = export_dot(scenario, "bob", stage=0)
    after = export_dot(scenario, "bob", stage=2)
    added = set(after.splitlines()) - set(before.splitlines())
    removed = set(before.splitlines()) - set(after.splitlines())
    assert removed == set()
    assert len(added) == 3
    assert all("style=dashed" in line for line in added)


def test_export_dot_total_category():
    scenario = load("alice-bob.json")
    text = export_dot(scenario, "bob", which="total", stage=None)
    assert "style=dashed" in text
    assert "tiger@feline" in text


def two_paraphrases_doc():
    """One learner, bob, learns cat from alice by paraphrasis, then mark by
    example and more black by merged example, and last kitty as a
    tautological paraphrase of the cat bob learned: an explanation over
    the grown language, which a declared one cannot give. Alice's
    explanation is checked in between."""
    return {
        "name": "two-paraphrases",
        "categories": {
            "lang": {"kind": "discrete", "objects": ["cat", "feline", "black", "mark", "kitty"]}
        },
        "speakers": {
            "alice": {"language": "lang",
                      "fibres": {"cat": ["cleo"], "feline": ["felix"], "black": ["nero"]}},
            "bob": {"language": "lang", "fibres": {"feline": ["tiger", "lynx"], "black": ["noir"]}},
        },
        "explanations": {
            "cat-as-black-feline": {
                "language": "lang",
                "target": "cat",
                "shape": {"kind": "discrete", "objects": ["a1", "a2"]},
                "diagram": {"a1": "feline", "a2": "black"},
                "embedding": {"(felix,nero)": "cleo"},
            },
            "kitty-is-cat": {"kind": "tautological", "speaker": "bob", "target": "cat"},
        },
        "events": [
            {"event": "paraphrasis", "id": "p1", "teacher": "alice", "learner": "bob",
             "word": "cat", "explanation": "cat-as-black-feline"},
            {"event": "example", "id": "e1", "learner": "bob", "word": "mark",
             "witnesses": ["spot"]},
            {"event": "merged-example", "id": "e2", "learner": "bob", "word": "black",
             "witnesses": ["ink"], "glue": {"noir": "ink"}},
            {"event": "validate-explanation", "id": "v1", "speaker": "alice",
             "explanation": "cat-as-black-feline"},
            {"event": "paraphrasis", "id": "p2", "teacher": "bob", "learner": "bob",
             "word": "kitty", "explanation": "kitty-is-cat"},
        ],
        "assertions": [
            {"assert": "outcome", "event": "p1", "equals": "learned"},
            {"assert": "outcome", "event": "p2", "equals": "learned"},
            {"assert": "explanation", "event": "v1", "valid": True, "exact": True},
        ],
    }


DOT_EDGE = re.compile(r' -> .* \[label="((?:[^"\\]|\\.)*)"(, style=dashed)?\];$')


def dot_edges(text):
    """Each edge's label and whether it is dashed."""
    return {m.group(1): bool(m.group(2)) for m in map(DOT_EDGE.search, text.splitlines()) if m}


def test_dashed_edges_are_the_morphisms_reported_new_so_far():
    scenario = load_scenario(two_paraphrases_doc())
    code, report = run_scenario(scenario)
    assert code == 0, report
    learned = [e["report"]["new_morphisms"] for e in report["events"] if e["event"] == "paraphrasis"]
    assert all(learned) and any("(" in m for m in learned[1])  # composites are adjoined too
    for stage in range(len(scenario.events) + 1):
        new = {m for e in report["events"][:stage] for m in e["report"].get("new_morphisms", ())}
        edges = dot_edges(export_dot(scenario, "bob", stage=stage))
        assert {m for m, dashed in edges.items() if dashed} == new
        bob = run_events(scenario, upto=stage)[0]["bob"]
        total = dot_edges(export_dot(scenario, "bob", which="total", stage=stage))
        over_new = {m for m in bob.fibration.total.morphisms if bob.fibration.proj.mmap[m] in new}
        assert {m for m, dashed in total.items() if dashed} == over_new
        assert stage == 0 or over_new


def test_each_event_calls_its_procedure_once_through_the_scenario_module(monkeypatch):
    # the benchmark times events by rebinding these names in fiblex.scenario
    procedure = {"example": "acquire_by_example", "merged-example": "acquire_by_example_merged",
                 "paraphrasis": "acquire_by_paraphrasis",
                 "validate-explanation": "validate_explanation"}
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for name in procedure.values():
        monkeypatch.setattr(scenario_mod, name, counted(name, getattr(scenario_mod, name)))
    scenario = load_scenario(two_paraphrases_doc())
    code, report = run_scenario(scenario)
    assert code == 0, report
    assert calls == [procedure[e["event"]] for e in scenario.events]
    assert set(calls) == set(procedure.values())


def test_merged_example_event_over_the_wire():
    doc = {
        "name": "merge",
        "categories": {"lang": {"kind": "discrete", "objects": ["slab"]}},
        "speakers": {
            "builder": {"language": "lang", "fibres": {"slab": ["guess"]}},
        },
        "events": [
            {
                "event": "merged-example",
                "id": "correction",
                "learner": "builder",
                "word": "slab",
                "witnesses": ["stone"],
                "glue": {"guess": "stone"},
            }
        ],
        "assertions": [
            {"assert": "fibre-size", "speaker": "builder", "object": "slab", "equals": 1}
        ],
    }
    code, report = run_scenario(load_scenario(doc))
    assert code == 0, report
    assert report["events"][0]["report"]["new_elements"] == {"slab": ["stone"]}


def test_explanation_with_morphisms_in_the_shape():
    doc = {
        "name": "cospan",
        "categories": {
            "lang": {
                "kind": "free",
                "vertices": ["X", "Y", "Z"],
                "edges": [
                    {"id": "u", "src": "X", "tgt": "Z"},
                    {"id": "v", "src": "Y", "tgt": "Z"},
                ],
            }
        },
        "speakers": {
            "p": {
                "language": "lang",
                "fibres": {"X": ["x1", "x2"], "Y": ["y1"], "Z": ["z1", "z2"]},
                "actions": {
                    "u": {"z1": "x1", "z2": "x2"},
                    "v": {"z1": "y1", "z2": "y1"},
                },
            }
        },
        "explanations": {
            "glued": {
                "language": "lang",
                "target": "Z",
                "shape": {
                    "kind": "free",
                    "vertices": ["a", "b", "c"],
                    "edges": [
                        {"id": "m", "src": "a", "tgt": "c"},
                        {"id": "n", "src": "b", "tgt": "c"},
                    ],
                },
                "diagram": {"a": "X", "b": "Y", "c": "Z"},
                "diagram_morphisms": {"m": "u", "n": "v"},
                "embedding": {"(x1,y1,z1)": "z1", "(x2,y1,z2)": "z2"},
            }
        },
        "events": [
            {
                "event": "validate-explanation",
                "id": "v0",
                "speaker": "p",
                "explanation": "glued",
            }
        ],
        "assertions": [
            {
                "assert": "explanation",
                "event": "v0",
                "valid": True,
                "exact": True,
                "apex-size": 2,
            }
        ],
    }
    code, report = run_scenario(load_scenario(doc))
    assert code == 0, report


# --- command line ------------------------------------------------------------


def test_cli_run_writes_canonical_report(tmp_path):
    out = tmp_path / "report.json"
    runner = CliRunner()
    result = runner.invoke(
        main, ["run", str(SCENARIOS / "alice-bob.json"), "--report", str(out)]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert report["status"] == "pass"
    assert out.read_text() == canonical_dumps(report)


def test_cli_run_twice_is_byte_identical(tmp_path):
    runner = CliRunner()
    texts = []
    for i in range(2):
        out = tmp_path / f"r{i}.json"
        result = runner.invoke(
            main, ["run", str(SCENARIOS / "slab.json"), "--report", str(out)]
        )
        assert result.exit_code == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("name", SHIPPED)
def test_cli_run_matches_golden_report(name, tmp_path):
    # tests/golden holds the committed `fiblex run` report of each shipped
    # scenario; any change to a canonical report must update it on purpose
    out = tmp_path / name
    result = CliRunner().invoke(main, ["run", str(SCENARIOS / name), "--report", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_cli_validate_ok():
    runner = CliRunner()
    result = runner.invoke(main, ["validate", str(SCENARIOS / "evil-cat.json")])
    assert result.exit_code == 0
    assert json.loads(result.output)["status"] == "ok"


def test_cli_assertion_failure_exits_one(tmp_path):
    doc = json.loads((SCENARIOS / "slab.json").read_text())
    doc["assertions"].append(
        {"assert": "fibre-size", "speaker": "builder", "object": "slab", "equals": 7}
    )
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    runner = CliRunner()
    result = runner.invoke(main, ["run", str(path)])
    assert result.exit_code == 1
    assert "first failure" in result.output


def test_cli_structural_error_exits_two(tmp_path):
    doc = json.loads((SCENARIOS / "slab.json").read_text())
    doc["speakers"]["builder"]["language"] = "missing"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    runner = CliRunner()
    result = runner.invoke(main, ["run", str(path)])
    assert result.exit_code == 2


def _alice_bob_text(edit):
    doc = json.loads((SCENARIOS / "alice-bob.json").read_text())
    edit(doc)
    return json.dumps(doc)


# (document, exit codes of run, validate, export-dot and explain)
EXIT_CODE_CASES = {
    "passing": (_alice_bob_text(lambda doc: None), (0, 0, 0, 0)),
    "failing-assertion": (_alice_bob_text(lambda doc: doc["assertions"].append(
        {"assert": "fibre-size", "speaker": "bob", "object": "cat", "equals": 99})), (1, 0, 0, 0)),
    "malformed-json": ("{bad", (2, 2, 2, 2)),
    "unknown-assertion-kind": (_alice_bob_text(
        lambda doc: doc["assertions"][0].update({"assert": "fibre-sise"})), (2, 2, 2, 2)),
    "paraphrasis-without-teacher": (_alice_bob_text(
        lambda doc: doc["events"][0].pop("teacher")), (2, 2, 2, 2)),
}


@pytest.mark.parametrize("case", sorted(EXIT_CODE_CASES))
def test_cli_exit_codes_are_pass_assertion_and_structural(case, tmp_path):
    # 0 pass, 1 a failed assertion (only `run` evaluates them), 2 a file or
    # structural error, which every command reports as `error: …` on stderr
    text, codes = EXIT_CODE_CASES[case]
    path = tmp_path / "scenario.json"
    path.write_text(text)
    commands = [
        ["run", str(path)],
        ["validate", str(path)],
        ["export-dot", str(path), "--speaker", "bob"],
        ["explain", str(path), "--speaker", "alice", "--explanation", "cat-as-cursed-black-feline"],
    ]
    for args, code in zip(commands, codes):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == code, (args[0], result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        if code == 2:
            assert result.stderr.startswith("error: "), (args[0], result.stderr)


def test_cli_export_dot_and_explain():
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["export-dot", str(SCENARIOS / "alice-bob.json"), "--speaker", "bob"],
    )
    assert result.exit_code == 0
    assert result.output.startswith("digraph")

    result = runner.invoke(
        main,
        [
            "explain",
            str(SCENARIOS / "evil-cat.json"),
            "--speaker",
            "p",
            "--explanation",
            "black-evil-feline",
        ],
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["exact"] is True
    assert "empty_witness" not in json.loads(result.output)


def test_cli_explain_shows_why_a_limit_is_empty(tmp_path):
    # evil-cat with no black things: the limit empties at the shape object
    # over `black`, and only `fiblex explain` says so
    doc = json.loads((SCENARIOS / "evil-cat.json").read_text())
    doc["speakers"]["p"]["fibres"]["black"] = []
    del doc["explanations"]["black-evil-feline"]["embedding"]
    doc["assertions"] = [
        {"assert": "explanation", "event": "describe-the-cat", "valid": True,
         "exact": False, "vacuous": True, "apex-size": 0}
    ]
    path = tmp_path / "no-black-cat.json"
    path.write_text(json.dumps(doc))
    runner = CliRunner()
    result = runner.invoke(
        main, ["explain", str(path), "--speaker", "p", "--explanation", "black-evil-feline"]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["vacuous"] is True
    assert report["empty_witness"] == {"kind": "empty-fibre", "object": "a2"}

    result = runner.invoke(main, ["run", str(path)])
    assert result.exit_code == 0, result.output
    assert "empty_witness" not in result.output
    assert "vacuous" in result.output


# --- malformed explanations ---------------------------------------------------------


def evil_cat_with(edit):
    doc = json.loads((SCENARIOS / "evil-cat.json").read_text())
    edit(doc["explanations"]["black-evil-feline"])
    return doc


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda e: e.pop("shape"), "missing key 'shape'", id="shape"),
    pytest.param(lambda e: e.pop("target"), "missing key 'target'", id="target"),
    pytest.param(lambda e: e.pop("diagram"), "missing key 'diagram'", id="diagram"),
    pytest.param(lambda e: e.pop("language"), "missing key 'language'", id="language"),
    pytest.param(lambda e: e["shape"].pop("objects"), "discrete shape is missing key 'objects'",
                 id="discrete-objects"),
    pytest.param(lambda e: e.update(shape={"kind": "free", "vertices": ["a1"]}),
                 "free shape is missing key 'edges'", id="free-edges"),
    pytest.param(lambda e: e.update(shape={"kind": "free", "edges": []}),
                 "free shape is missing key 'vertices'", id="free-vertices"),
    pytest.param(lambda e: e.update(shape={"kind": "pregroup", "basics": ["n"]}),
                 "pregroup shape is missing key 'phrases'", id="pregroup-phrases"),
    pytest.param(lambda e: e.update(shape={"morphisms": []}),
                 "explicit shape is missing key 'objects'", id="explicit-objects"),
    pytest.param(lambda e: e.update(shape={"kind": "free", "vertices": ["a1"],
                                           "edges": [{"id": "s", "src": "a1"}]}),
                 "free shape edge 0 is missing key 'tgt'", id="free-edge-tgt"),
    pytest.param(lambda e: e.update(shape={"kind": "free", "vertices": ["a1"], "edges": ["s"]}),
                 "free shape edge 0 is not an object", id="free-edge-string"),
    pytest.param(lambda e: (e.update(kind="tautological", speaker="p"), e.pop("target")),
                 "missing key 'target'", id="tautological-target"),
    pytest.param(lambda e: e.update(kind="tautological"), "missing key 'speaker'",
                 id="tautological-speaker"),
    pytest.param(lambda e: e.update(kind="tautological", speaker="nobody"),
                 "undeclared speaker 'nobody'", id="tautological-undeclared-speaker"),
    pytest.param(lambda e: e.update(shape={"objects": ["a1"],
                                           "morphisms": [{"src": "a1", "tgt": "a1"}]}),
                 "explicit shape morphism 0 is missing key 'id'", id="explicit-morphism-id"),
])
def test_an_explanation_missing_a_key_is_refused_at_load(edit, message, tmp_path):
    doc = evil_cat_with(edit)
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert str(err.value) == f"explanation black-evil-feline: {message}"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    for command in (["run", str(path)], ["validate", str(path)]):
        result = CliRunner().invoke(main, command)
        assert result.exit_code == 2, result.output
        assert f"error: explanation black-evil-feline: {message}" in result.output


def _refused_everywhere(doc, message, tmp_path):
    """``load_scenario`` and ``fiblex run`` refuse the document with ``message``."""
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert str(err.value) == message
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["run", str(path)])
    assert result.exit_code == 2, result.output
    assert f"error: {message}" in result.output


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda d: d.update(assertions=[1]),
                 "assertion assert0: declaration is not an object", id="assertion-number"),
    pytest.param(lambda d: d["events"][0].update(id=["a"]),
                 "event ev0: key 'id' is not a string", id="event-id-list"),
    pytest.param(lambda d: d["explanations"].update(x=3),
                 "explanation x: declaration is not an object", id="explanation-number"),
    pytest.param(lambda d: d["explanations"]["black-evil-feline"].update(shape=["a1"]),
                 "explanation black-evil-feline: key 'shape' is not an object", id="shape-list"),
    pytest.param(lambda d: d["categories"].update(
                     q={"kind": "free", "vertices": ["a"], "edges": [{"src": "a", "tgt": "a"}]}),
                 "category q: free category edge 0 is missing key 'id'", id="edge-without-id"),
])
def test_a_nested_entry_of_the_wrong_json_type_is_refused(edit, message, tmp_path):
    doc = evil_cat_with(lambda e: None)
    edit(doc)
    _refused_everywhere(doc, message, tmp_path)
    jsonschema = pytest.importorskip("jsonschema")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, json.loads((SCENARIOS / "schema.json").read_text()))


@pytest.mark.parametrize("decl, message", [
    pytest.param({"kind": "discrete"}, "discrete category is missing key 'objects'",
                 id="discrete-objects"),
    pytest.param({"kind": "pregroup", "basics": ["n"]},
                 "pregroup category is missing key 'phrases'", id="pregroup-phrases"),
    pytest.param({"kind": "free", "vertices": ["a"], "edges": {"f": "a"}},
                 "free category: key 'edges' is not a list", id="free-edges-object"),
    pytest.param({"objects": ["a"], "morphisms": [{"id": "f", "src": "a"}]},
                 "explicit category morphism 0 is missing key 'tgt'", id="explicit-morphism-tgt"),
    pytest.param({"kind": "explicit", "objects": ["a"], "morphisms": ["f"]},
                 "explicit category morphism 0 is not an object", id="explicit-morphism-string"),
    pytest.param({"objects": ["a"], "morphisms": {"f": "a"}},
                 "explicit category: key 'morphisms' is not a list",
                 id="explicit-morphisms-object"),
])
def test_a_category_missing_a_key_is_refused_at_load(decl, message, tmp_path):
    doc = evil_cat_with(lambda e: None)
    doc["categories"]["q"] = decl
    _refused_everywhere(doc, f"category q: {message}", tmp_path)


TEACH = {"event": "paraphrasis", "learner": "p", "teacher": "p", "word": "cat",
         "explanation": "black-evil-feline"}


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda d: d["events"][0].update(speaker=["p"]),
                 "event describe-the-cat: key 'speaker' is not a string", id="event-speaker"),
    pytest.param(lambda d: d["events"][0].update(explanation={"name": "black-evil-feline"}),
                 "event describe-the-cat: key 'explanation' is not a string",
                 id="event-explanation"),
    pytest.param(lambda d: d["events"].append({**TEACH, "learner": ["p"]}),
                 "event ev1: key 'learner' is not a string", id="event-learner"),
    pytest.param(lambda d: d["events"].append({**TEACH, "teacher": {"p": 1}}),
                 "event ev1: key 'teacher' is not a string", id="event-teacher"),
    pytest.param(lambda d: d["assertions"][0].update(event=["describe-the-cat"]),
                 "assertion assert0:explanation: key 'event' is not a string",
                 id="assertion-event"),
    pytest.param(lambda d: d["assertions"].append(
                     {"assert": "fibre-size", "speaker": ["p"], "object": "cat", "equals": 1}),
                 "assertion assert1:fibre-size: key 'speaker' is not a string",
                 id="assertion-speaker"),
    pytest.param(lambda d: d["assertions"].append(
                     {"assert": "speakers-iso", "left": ["p"], "right": "p"}),
                 "assertion assert1:speakers-iso: key 'left' is not a string", id="assertion-left"),
    pytest.param(lambda d: d["assertions"].append(
                     {"assert": "speakers-iso", "left": "p", "right": {"p": "p"}}),
                 "assertion assert1:speakers-iso: key 'right' is not a string",
                 id="assertion-right"),
    pytest.param(lambda d: d["explanations"].update(
                     t={"kind": "tautological", "speaker": ["p"], "target": "cat"}),
                 "explanation t: key 'speaker' is not a string", id="tautological-speaker"),
])
def test_a_reference_that_is_not_a_string_is_refused(edit, message, tmp_path):
    # a list or an object names no speaker, event or explanation, and
    # cannot even be looked up in a table of names
    doc = evil_cat_with(lambda e: None)
    edit(doc)
    _refused_everywhere(doc, message, tmp_path)
    jsonschema = pytest.importorskip("jsonschema")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, json.loads((SCENARIOS / "schema.json").read_text()))


# --- explanations over free shapes -------------------------------------------------

# a free language with two paths from feline to animal, f then g and k
FREE_LANGUAGE = {"kind": "free", "vertices": ["cat", "feline", "mammal", "animal", "black"],
                 "edges": [{"id": "f", "src": "feline", "tgt": "mammal"},
                           {"id": "g", "src": "mammal", "tgt": "animal"},
                           {"id": "k", "src": "feline", "tgt": "animal"},
                           {"id": "b", "src": "black", "tgt": "animal"},
                           {"id": "d", "src": "black", "tgt": "feline"}]}
FIBRES = {"feline": ["tom", "felix"], "mammal": ["m1", "m2", "m3"], "animal": ["a1", "a2"],
          "black": ["k1", "k2"]}
# actions are contravariant: each runs from the fibre over its morphism's target
ACTIONS = {"f": {"m1": "tom", "m2": "felix", "m3": "tom"}, "g": {"a1": "m1", "a2": "m2"},
           "g∘f": {"a1": "tom", "a2": "felix"}, "k": {"a1": "felix", "a2": "tom"},
           "b": {"a1": "k1", "a2": "k1"}, "d": {"tom": "k1", "felix": "k2"},
           "f∘d": {"m1": "k1", "m2": "k2", "m3": "k1"}, "g∘f∘d": {"a1": "k1", "a2": "k2"},
           "k∘d": {"a1": "k2", "a2": "k1"}}
SHAPES = {
    # p → q → r onto feline → mammal → animal, the path t∘s onto g∘f
    "chain": ({"kind": "free", "vertices": ["p", "q", "r"],
               "edges": [{"id": "s", "src": "p", "tgt": "q"}, {"id": "t", "src": "q", "tgt": "r"}]},
              {"p": "feline", "q": "mammal", "r": "animal"},
              {"s": "f", "t": "g", "t∘s": "g∘f"}),
    # x ← c → y onto animal ← black → feline
    "span": ({"kind": "free", "vertices": ["c", "x", "y"],
              "edges": [{"id": "u", "src": "c", "tgt": "x"}, {"id": "v", "src": "c", "tgt": "y"}]},
             {"c": "black", "x": "animal", "y": "feline"},
             {"u": "b", "v": "d"}),
    # the chain with t∘s sent to k, the other path from feline to animal
    "not-a-functor": ({"kind": "free", "vertices": ["p", "q", "r"],
                       "edges": [{"id": "s", "src": "p", "tgt": "q"},
                                 {"id": "t", "src": "q", "tgt": "r"}]},
                      {"p": "feline", "q": "mammal", "r": "animal"},
                      {"s": "f", "t": "g", "t∘s": "k"}),
    # a loop on feline, its paths cut at two edges
    "bounded-loop": ({"kind": "free", "vertices": ["p"], "bound": 2,
                      "edges": [{"id": "l", "src": "p", "tgt": "p"}]},
                     {"p": "feline"},
                     {"l": "id_feline", "l∘l": "id_feline"}),
    # a → b → d and a → c → d onto feline → mammal → animal and feline → animal
    # → animal: the two paths from feline to animal act differently on
    # every element over animal, so the limit is empty
    "diamond": ({"kind": "free", "vertices": ["a", "b", "c", "d"],
                 "edges": [{"id": "u", "src": "a", "tgt": "b"}, {"id": "v", "src": "a", "tgt": "c"},
                           {"id": "w", "src": "b", "tgt": "d"}, {"id": "x", "src": "c", "tgt": "d"}]},
                {"a": "feline", "b": "mammal", "c": "animal", "d": "animal"},
                {"u": "f", "v": "k", "w": "g", "x": "id_animal", "w∘u": "g∘f", "x∘v": "k"}),
}


def free_shape_doc(names, event="paraphrasis"):
    """Alice knows a cat; one learner per explanation in ``names`` learns
    it from her by paraphrasis, or checks it (``validate-explanation``)."""
    speakers = {"alice": {"language": "lang", "fibres": {**FIBRES, "cat": ["c1", "c2"]},
                          "actions": ACTIONS}}
    explanations, events = {}, []
    for name in names:
        shape, diagram, morphisms = SHAPES[name]
        explanations[name] = {"language": "lang", "target": "cat", "shape": shape,
                              "diagram": diagram, "diagram_morphisms": morphisms}
        if event == "paraphrasis":
            speakers[f"bob-{name}"] = {"language": "lang", "fibres": FIBRES, "actions": ACTIONS}
            events.append({"event": "paraphrasis", "learner": f"bob-{name}", "teacher": "alice",
                           "word": "cat", "explanation": name})
        else:
            events.append({"event": "validate-explanation", "speaker": "alice",
                           "explanation": name})
    return {"name": "free-shapes", "categories": {"lang": FREE_LANGUAGE}, "speakers": speakers,
            "explanations": explanations, "events": events}


def run_both_ways(doc, monkeypatch):
    """The store and canonical reports of a run, and of a run that checks
    every explanation with the oracle and takes every limit, the learner's
    too, over every morphism of the opposite shape."""
    out = []
    for oracle in (False, True):
        with monkeypatch.context() as patch:
            if oracle:
                for module in (scenario_mod, speaker_mod):
                    patch.setattr(module, "validate_explanation",
                                  validate_explanation_over_every_path)
                patch.setattr(speaker_mod, "_limit", reference.limit_over_every_path)
            scenario = load_scenario(json.loads(json.dumps(doc)))
            store, reports = run_events(scenario)
            out.append((store, canonical_dumps(reports)))
    return out


def test_paraphrasis_over_free_shapes_learns_as_over_every_path(monkeypatch):
    doc = free_shape_doc(["chain", "span"])
    checks = count_calls(monkeypatch, fincat.validate_functor)
    (store, reports), (oracle_store, oracle_reports) = run_both_ways(doc, monkeypatch)
    assert reports == oracle_reports
    assert store == oracle_store
    for event, name, apex in ((0, "chain", ["(felix,m2,a2)", "(tom,m1,a1)"]),
                              (1, "span", ["(k1,a1,tom)", "(k1,a2,tom)"])):
        assert sorted(store[f"bob-{name}"].fibre("cat")) == [f"ev{event}:{t}" for t in apex]
    # the engine checked both free shapes along their edges, for teacher and learner
    assert checks == []


@pytest.mark.parametrize("name", ["not-a-functor", "bounded-loop", "diamond", "chain", "span"])
def test_a_free_shape_explanation_reports_as_over_every_path(name, monkeypatch):
    doc = free_shape_doc([name], event="validate-explanation")
    (_, reports), (_, oracle_reports) = run_both_ways(doc, monkeypatch)
    assert reports == oracle_reports


def test_a_diagram_that_is_no_functor_and_a_bounded_shape_take_the_whole_shape(monkeypatch):
    checks = count_calls(monkeypatch, fincat.validate_functor)
    limits = count_calls(monkeypatch, fincat.set_limit)
    scenario = load_scenario(free_shape_doc(["not-a-functor", "bounded-loop", "chain"],
                                            event="validate-explanation"))
    _, reports = run_events(scenario)
    assert [len(args[0].dom.morphisms) for args in checks] == [6, 3]
    # over every morphism of the shape, and over the edges of the chain
    assert [len(args[0].base.morphisms) for args in limits] == [6, 3, 5]
    problems = [e["report"]["problems"] for e in reports]
    assert problems == [["composition of (t, s) is not preserved"], [], []]


def test_an_empty_limit_over_a_free_shape_is_witnessed_by_an_edge():
    # Along the edges the walk from d meets a again through v; over every
    # morphism of the shape it met a through the path x∘v first, which
    # is what `fiblex explain` named before the limit was taken along the
    # edges.
    scenario = load_scenario(free_shape_doc(["diamond"], event="validate-explanation"))
    report = scenario_mod.explain_report(scenario, "alice", "diamond")
    assert (report["valid"], report["vacuous"], report["apex"]) == (True, True, [])
    assert report["empty_witness"] == {"kind": "arrow", "root": "d", "morphism": "v"}


def test_a_cyclic_shape_without_a_bound_is_refused_where_it_is_resolved(tmp_path):
    doc = free_shape_doc(["bounded-loop"], event="validate-explanation")
    del doc["explanations"]["bounded-loop"]["shape"]["bound"]
    unbounded = "collage has unboundedly long words; an edge bound is required"
    scenario = load_scenario(doc)
    with pytest.raises(UnboundedHomSet, match=unbounded):
        run_events(scenario)
    assert validate_scenario(scenario)["checks"] == [
        {"explanation": "bounded-loop", "problems": [unbounded]}]
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["validate", str(path)])
    assert result.exit_code == 2
    assert json.loads(result.output)["checks"][0]["problems"] == [unbounded]


def count_glue_passes(monkeypatch):
    """Count the composition tables a collage glues, with the suite's
    checks of declared categories and derived explanation shapes, which
    read (and so glue) every shape's table, taken off."""
    for name in ("_category_from_decl", "_derived"):
        monkeypatch.setattr(scenario_mod, name, getattr(scenario_mod, name).__wrapped__)
    return count_calls(monkeypatch, collage_mod._glue)


def test_an_explain_limits_pass_glues_no_shape_and_checks_diagrams_along_edges(monkeypatch):
    doc = bench_generate.generate("explain-limits", 1)[0]
    glued = count_glue_passes(monkeypatch)
    checks = count_calls(monkeypatch, fincat.validate_functor)
    scenario = load_scenario(doc)
    assert len(glued) == len(doc["categories"])  # each free language once, at load
    glued.clear()
    code, _ = run_scenario(scenario)
    assert code == 0
    assert (glued, checks) == ([], [])

    # one diagram that is no functor: its shape is glued and checked once
    name, explanation = next(iter(doc["explanations"].items()))
    assert sum(e.get("explanation") == name for e in doc["events"]) == 1
    edge = explanation["shape"]["edges"][0]["id"]
    explanation["diagram_morphisms"][edge] = "nowhere"
    scenario = load_scenario(doc)
    glued.clear()
    run_scenario(scenario)
    assert (len(glued), len(checks)) == (1, 1)


def test_a_learn_paraphrasis_pass_checks_and_limits_its_discrete_shapes_along_edges(monkeypatch):
    # a discrete shape is free on no edges: neither the teacher's check nor
    # the learner's limit checks the diagram as a functor, which any limit
    # over every arrow of the shape would
    doc = bench_generate.generate("learn-paraphrasis", 1)[0]
    assert all(e["shape"]["kind"] == "discrete" for e in doc["explanations"].values())
    assert all(e["event"] == "paraphrasis" for e in doc["events"])
    checks = count_calls(monkeypatch, fincat.validate_functor)
    limits = count_calls(monkeypatch, fincat.set_limit)
    code, _ = run_scenario(load_scenario(doc))
    assert code == 0
    assert (checks, len(limits)) == ([], 2 * len(doc["events"]))  # the teacher's and the learner's

    # one diagram that is no functor is checked over the whole shape, and
    # refused before any limit is taken
    name, explanation = next(iter(doc["explanations"].items()))
    first = next(i for i, e in enumerate(doc["events"]) if e["explanation"] == name)
    obj = sorted(explanation["diagram"])[0]
    explanation["diagram_morphisms"] = {f"id_{obj}": "nowhere"}
    limits.clear()
    code, report = run_scenario(load_scenario(doc))
    assert code == 2 and "not valid and non-vacuous" in report["error"]
    assert (len(checks), len(limits)) == (1, 2 * first)
