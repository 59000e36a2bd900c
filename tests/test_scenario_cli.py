import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from fiblex.cli import main
import fiblex.fincat as fincat
import fiblex.speaker as speaker_module
from fiblex.errors import ScenarioError
from fiblex.jsonio import canonical_dumps
from fiblex.scenario import (
    export_dot,
    load_scenario,
    run_scenario,
    validate_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
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
     "speaker bob: speaker bob: invalid meaning: action of composite h disagrees with the "
     "composite action at c"),
    (THREE_ARROWS, {**FUNCTORIAL, "f": {"b": "zz"}},
     "speaker bob: speaker bob: invalid meaning: action of f leaves the target value set"),
    (THREE_ARROWS, {"f": {"b": "a1"}, "g": {"c": "b"}},
     "speaker bob: speaker bob: no action table for h"),
    ({**THREE_ARROWS, "compose": []}, FUNCTORIAL,
     "category lang: category lang: no composite for composable pair (g, f)"),
])
def test_bad_declarations_name_their_cause(language, actions, message):
    with pytest.raises(ScenarioError) as err:
        load_scenario(one_speaker_doc(language, actions))
    assert str(err.value) == message


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


@pytest.mark.parametrize("name", SHIPPED)
def test_a_run_checks_each_declaration_once(name, monkeypatch):
    categories = count_calls(monkeypatch, fincat.validate_category)
    meanings = count_calls(monkeypatch, fincat.validate_setfunctor)
    explanations = count_calls(monkeypatch, speaker_module.validate_explanation)
    doc = json.loads((SCENARIOS / name).read_text())
    code, _ = run_scenario(load_scenario(doc))
    assert code == 0
    # one check of each explanation's shape, none of any derived speaker
    assert len(explanations) == sum(
        e["event"] in ("paraphrasis", "validate-explanation") for e in doc["events"]
    )
    assert len(categories) == len(doc["categories"]) + len(explanations)
    assert len(meanings) == len(doc["speakers"])


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
