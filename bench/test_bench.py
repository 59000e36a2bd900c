"""Checks of the benchmark itself: ``python3 -m pytest bench``."""

import json
import sys
from pathlib import Path

import pytest

import run
from generate import WORKLOADS, generate
from tracing import Tracer, per_layer_metrics

ENGINE = run.import_engine()


def engine_run():
    return run.Run(ENGINE["scenario"], ENGINE["jsonio"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_document(workload):
    first, sizes = generate(workload, 7)
    again, sizes_again = generate(workload, 7)
    other, _ = generate(workload, 8)
    assert json.dumps(first) == json.dumps(again)
    assert sizes == sizes_again
    assert json.dumps(first) != json.dumps(other)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_expectations_agree_with_fiblex(workload, seed):
    doc, sizes = generate(workload, seed)
    scenario = ENGINE["scenario"].load_scenario(doc)
    code, report = ENGINE["scenario"].run_scenario(scenario)
    failures = [a["name"] + ": " + a["detail"] for a in report["assertions"] if not a["passed"]]
    assert (code, report["status"], failures) == (0, "pass", [])
    assert len(report["events"]) == sizes["events"]
    # every event has its outcome or explanation asserted, and its target fibre
    for event in scenario.events:
        kinds = {a["assert"] for a in doc["assertions"]
                 if a["name"].split(":")[0] == event["id"]}
        assert "fibre-size" in kinds and kinds & {"outcome", "explanation"}


def test_counts_repeat_and_wrappers_come_off():
    doc, _ = generate("learn-paraphrasis", 3)
    text = json.dumps(doc)
    scenario_mod = ENGINE["scenario"]
    originals = (scenario_mod.run_events, sys.modules["fiblex.speaker"].set_limit,
                 sys.modules["fiblex.speaker"].Speaker.__post_init__)
    counts = []
    for _ in range(2):
        tracer, _ = run.traced_pass(engine_run(), text, None)
        metrics = tracer.layer_metrics()
        counts.append({k: v for k, v in metrics.items() if not k.endswith(".self_s")})
    assert counts[0] == counts[1]
    assert counts[0]["fincat.set_limit.apex_per_candidate"] == 1
    assert counts[0]["speaker.acquire_by_paraphrasis.limits_per_event"] == 2
    assert (scenario_mod.run_events, sys.modules["fiblex.speaker"].set_limit,
            sys.modules["fiblex.speaker"].Speaker.__post_init__) == originals


def test_traced_report_matches_untraced():
    doc, _ = generate("learn-example", 1)
    text = json.dumps(doc)
    bench = engine_run()
    untraced = bench.execute(bench.setup(text), "untraced")
    run.traced_pass(bench, text, untraced)
    assert (bench.failed, bench.problems) == (0, [])


def test_failures_are_counted_per_event():
    doc, sizes = generate("learn-paraphrasis", 1)
    wrong = dict(doc, assertions=[dict(doc["assertions"][0], equals="wrong")])
    broken = json.loads(json.dumps(doc))
    event = broken["events"][0]
    broken["speakers"][event["learner"]]["fibres"][event["word"]] = ["taken"]
    bench = engine_run()
    for document in (wrong, broken):
        bench.execute(ENGINE["scenario"].load_scenario(document), "bad")
    # one wrong expectation fails its event; an engine error fails them all
    assert (bench.attempted, bench.failed) == (2 * sizes["events"], 1 + sizes["events"])


def test_benchmark_json_names_every_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_metrics()


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans += [("fincat.opposite", 0.0, 10.0, -1), ("fincat.set_limit", 2.0, 5.0, 0)]
    metrics = tracer.layer_metrics()
    assert metrics["fincat.opposite.self_s"] == 7.0
    assert metrics["fincat.set_limit.self_s"] == 3.0
