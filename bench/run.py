"""The fiblex benchmark: one seeded workload, end to end and per layer.

    python3 bench/run.py --workload explain-limits --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository. The engine is imported from
``src/`` of that checkout; it is pure Python, so there is nothing to
build. One run, in one process and one thread:

1. runs every shipped scenario in ``scenarios/`` through the path of
   ``fiblex run`` (JSON parse, ``load_scenario``, ``run_scenario``,
   ``canonical_dumps``); each must pass with exit code 0;
2. generates the workload's scenario document from the seed;
3. sets it up (JSON parse plus ``load_scenario``), runs it and dumps its
   canonical report, over and over, for ``--seconds`` (and at least 100
   events), with tracing off. Two ``perf_counter`` stamps around each
   call the scenario layer makes into ``fiblex.speaker`` give the
   per-event latencies. ``events_per_s`` is the events of one pass over
   the fastest pass; the latency percentiles and the median ``setup_s``
   come from the fastest passes that hold 100 events (see ``fastest``).
   Every report must pass all of its generated assertions and be
   byte-identical to the first;
4. reads the process's peak RSS;
5. sets up and runs the document once more with every layer traced, and
   checks that this report is byte-identical to the untraced one.

It prints every metric by name with its unit, writes the result and the
spans to ``bench/out/``, and ends with one JSON line: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``. The
exit code is 0 when every check passed, 1 when one failed and 2 when
the engine's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from generate import WORKLOADS, generate
from tracing import Tracer, per_layer_metrics, rebind, restore

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
MIN_EVENTS = 100
# the calls from the scenario layer into fiblex.speaker that make up an event
EVENT_CALLS = ("acquire_by_example", "acquire_by_example_merged", "acquire_by_paraphrasis",
               "validate_explanation")

END_TO_END = [
    ("events_per_s", "events/s"),
    ("event_ms.p50", "ms"),
    ("event_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def import_engine():
    """Import fiblex from this checkout's ``src/``, or None when absent."""
    src = ROOT / "src"
    if not (src / "fiblex" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    engine = {name: importlib.import_module(f"fiblex.{name}") for name in ("scenario", "jsonio")}
    if Path(engine["scenario"].__file__).resolve().parent != src / "fiblex":
        return None
    return engine


class Run:
    """One workload run: counts attempted and failed events."""

    def __init__(self, scenario_mod, jsonio_mod):
        # functions are looked up on each call so that a traced pass sees the wrappers
        self.scenario = scenario_mod
        self.jsonio = jsonio_mod
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def setup(self, text: str):
        return self.scenario.load_scenario(json.loads(text))

    def execute(self, scenario, label: str, expect: str | None = None) -> str | None:
        """Run a loaded scenario and check its report; returns the
        canonical text. Events whose assertions fail count as failed; a
        report that errs, or differs from ``expect``, fails every event."""
        events = [e["id"] for e in scenario.events]
        self.attempted += len(events)
        try:
            code, report = self.scenario.run_scenario(scenario)
            text = self.jsonio.canonical_dumps(report)
        except Exception:  # a crash inside the engine is a failed run, not a benchmark error
            self._fail(len(events), f"{label}: raised\n{traceback.format_exc()}")
            return None
        if expect is not None and text != expect:
            self._fail(len(events), f"{label}: report differs from the first run")
        elif report["status"] != "pass" or code != 0:
            failed = {a["name"].split(":")[0] for a in report["assertions"] if not a["passed"]}
            # a structural error, or a failed check that names no single
            # event, fails every event
            bad = failed if failed and failed <= set(events) else events
            detail = report.get("error") or report.get("first_failure")
            self._fail(len(bad), f"{label}: status {report['status']} ({detail})")
        return text

    def _fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def shipped_scenarios(run: Run) -> None:
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        if path.name != "schema.json":
            run.execute(run.setup(path.read_text()), f"scenarios/{path.name}")


def timed_passes(run: Run, text: str, scenario_mod, seconds: float):
    """Set up the document and run it, over and over, until ``seconds``
    and ``MIN_EVENTS`` events have passed. Returns the first report and,
    per pass, its busy time, the set-up time before it and its event
    latencies."""
    latencies: list[float] = []

    def stamped(fn):
        def call(*args, **kwargs):
            start = perf_counter()
            out = fn(*args, **kwargs)
            latencies.append(perf_counter() - start)
            return out
        return call

    patched = []
    for name in EVENT_CALLS:
        fn = getattr(scenario_mod, name)
        patched += rebind(fn, stamped(fn), [scenario_mod])
    first, passes, events = None, [], 0
    end = perf_counter() + seconds
    try:
        while perf_counter() < end or events < MIN_EVENTS:
            gc.collect()
            start = perf_counter()
            scenario = run.setup(text)
            setup_s = perf_counter() - start
            gc.collect()
            latencies = []
            start = perf_counter()
            report = run.execute(scenario, f"timed pass {len(passes)}", expect=first)
            passes.append((perf_counter() - start, setup_s, latencies))
            events += len(scenario.events)
            first = first or report
    finally:
        restore(patched)
    return first, passes


def fastest(passes, events_per_pass: int) -> list:
    """The fastest passes that together hold ``MIN_EVENTS`` events.

    Other load on the host makes it up to 1.7 times slower, in stretches
    that last from seconds to minutes. The fastest passes are the ones it
    touched least, so figures drawn from them repeat across runs where a
    median over all passes does not."""
    return sorted(passes, key=lambda p: p[0])[:-(-MIN_EVENTS // events_per_pass)]


def traced_pass(run: Run, text: str, expect: str | None):
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        start = perf_counter()
        scenario = run.setup(text)
        run.execute(scenario, "traced pass", expect=expect)
        elapsed = perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    engine = import_engine()
    if engine is None:
        print(f"error: no fiblex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(engine["scenario"], engine["jsonio"])
    shipped_scenarios(run)

    doc, sizes = generate(args.workload, args.seed)
    text = json.dumps(doc, ensure_ascii=False)
    report, passes = timed_passes(run, text, engine["scenario"], args.seconds)
    chosen = fastest(passes, sizes["events"])
    latencies = [x for p in chosen for x in p[2]]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer, traced_s = traced_pass(run, text, report)
    # the untraced set-up and pass on either side of the traced one, so
    # that all three ran at about the same host speed
    gc.collect()
    start = perf_counter()
    run.execute(run.setup(text), "untraced pass after tracing", expect=report)
    untraced_s = (passes[-1][1] + passes[-1][0] + perf_counter() - start) / 2

    deciles = statistics.quantiles(latencies, n=10)
    end_to_end = {
        "events_per_s": sizes["events"] / chosen[0][0],
        "event_ms.p50": statistics.median(latencies) * 1e3,
        "event_ms.p90": deciles[-1] * 1e3,
        "setup_s": statistics.median(p[1] for p in chosen),
        "peak_rss_mb": peak_rss_mb,
    }
    per_layer = tracer.layer_metrics()
    per_layer["trace.overhead_frac"] = traced_s / untraced_s - 1

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"events {len(passes) * sizes['events']}  latencies from the fastest {len(latencies)}")
    print(f"{'failed_frac':48s} {run.failed / run.attempted:14.6g} ratio  "
          f"({run.failed} failed of {run.attempted} attempted)")
    for problem in run.problems:
        print(f"FAILED {problem}")
    for name, unit in END_TO_END:
        print(f"{name:48s} {end_to_end[name]:14.6g} {unit}")
    units = dict(per_layer_metrics())
    for name, value in per_layer.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    for name, value in sizes.items():
        print(f"size.{name:43s} {value:14d}")

    correct = run.failed == 0
    reported = per_layer_metrics() if args.trace else END_TO_END
    values = per_layer if args.trace else end_to_end
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in reported},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    tracer.write_spans(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "passes": len(passes), "sizes": sizes,
        "pass_s": [p[0] for p in passes],
        "end_to_end": end_to_end, "per_layer": per_layer, "problems": run.problems,
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
    }, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
