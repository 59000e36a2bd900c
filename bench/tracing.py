"""Spans and size counters around fiblex's layers, installed from outside.

A ``Tracer`` replaces each public function of the traced modules, in
every fiblex module that binds it, by a wrapper that records a span
(name, start, end, parent) and, for the layers listed in ``LAYERS``,
counters computed from the call's inputs and outputs. ``Speaker`` is
traced through ``__post_init__`` on the class. Spans stay in memory until
``write_spans``. Nothing under ``src/`` is modified: the wrappers are
removed again by ``uninstall``.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

TRACED_MODULES = ("fincat", "fibration", "collage", "speaker", "pregroup", "scenario", "jsonio")

# Naming helpers run once per element inside the constructions; their
# spans would outnumber all others and their wrappers would dominate the
# traced time, so they stay inside their callers' self time.
UNTRACED = {"tuple_name", "comma_object_id", "pair_object_id", "pair_morphism_id",
            "word_id", "format_type"}

UNITS = {"calls": "count", "self_s": "s", "candidates": "count", "apex": "count",
         "apex_per_candidate": "ratio", "compose_entries": "count", "pairs_tried": "count",
         "compose_per_pair": "ratio", "comma_objects": "count", "words": "count",
         "graph_entries": "count", "limits_per_event": "count", "morphisms": "count",
         "bytes": "bytes", "overhead_frac": "ratio"}

# The per-layer metrics the benchmark reports, by traced name.
LAYERS = {
    "fincat.set_limit": ("calls", "self_s", "candidates", "apex", "apex_per_candidate"),
    "fincat.validate_category": ("calls", "self_s", "compose_entries"),
    "fincat.validate_setfunctor": ("self_s",),
    "fincat.validate_functor": ("self_s",),
    "fincat.opposite": ("calls", "self_s"),
    "fincat.free_category_with_paths": ("self_s",),
    "fibration.grothendieck": ("calls", "self_s", "pairs_tried", "compose_entries",
                               "compose_per_pair"),
    "fibration.component_presheaf": ("calls", "self_s", "comma_objects"),
    "fibration.comprehensive_factorization": ("self_s",),
    "collage.fp_collage": ("calls", "self_s", "words", "pairs_tried", "compose_entries",
                           "compose_per_pair"),
    "collage.extend_set_functor": ("self_s", "graph_entries"),
    "speaker.Speaker": ("calls", "self_s"),
    "speaker.validate_explanation": ("self_s",),
    "speaker.acquire_by_example": ("self_s",),
    "speaker.acquire_by_example_merged": ("self_s",),
    "speaker.acquire_by_paraphrasis": ("self_s", "limits_per_event"),
    "pregroup.language_category_from_lexicon": ("self_s", "morphisms"),
    "scenario.load_scenario": ("self_s",),
    "scenario.resolve_explanation": ("self_s",),
    "scenario.run_events": ("self_s",),
    "jsonio.speaker_from_dict": ("self_s",),
    "jsonio.canonical_dumps": ("self_s", "bytes"),
}
RATIOS = {
    "apex_per_candidate": ("apex", "candidates"),
    "compose_per_pair": ("compose_entries", "pairs_tried"),
}


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    out = [(f"{layer}.{m}", UNITS[m]) for layer, metrics in LAYERS.items() for m in metrics]
    return out + [("trace.overhead_frac", UNITS["overhead_frac"])]


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


# Counters per layer: each maps a call's (args, kwargs, result) to the
# amounts it adds. They read only inputs and outputs, so they repeat
# exactly for a given document.
COUNTERS: dict[str, Callable[..., dict[str, int]]] = {
    "fincat.set_limit": lambda a, k, out: {
        "candidates": math.prod(len(v) for v in _first(a, k).value.values()),
        "apex": len(out.apex),
    },
    "fincat.validate_category": lambda a, k, out: {
        "compose_entries": len(_first(a, k).compose),
    },
    # grothendieck and fp_collage try every ordered pair of morphisms
    "fibration.grothendieck": lambda a, k, out: {
        "pairs_tried": len(out.total.morphisms) ** 2,
        "compose_entries": len(out.total.compose),
    },
    "fibration.component_presheaf": lambda a, k, out: {
        "comma_objects": sum(len(pairs) for pairs in out[1].values()),
    },
    "collage.fp_collage": lambda a, k, out: {
        "words": len(out.words),
        "pairs_tried": len(out.words) ** 2,
        "compose_entries": len(out.category.compose),
    },
    "collage.extend_set_functor": lambda a, k, out: {
        "graph_entries": sum(len(graph) for graph in out.action.values()),
    },
    "pregroup.language_category_from_lexicon": lambda a, k, out: {
        "morphisms": len(out.morphisms),
    },
    "jsonio.canonical_dumps": lambda a, k, out: {"bytes": len(out.encode("utf-8"))},
}


def rebind(original, replacement, modules=None) -> list[tuple[object, str, object]]:
    """Point every name bound to ``original`` in the given modules (all
    loaded fiblex modules by default) at ``replacement``; returns what
    ``restore`` needs to undo it."""
    if modules is None:
        modules = [m for n, m in sys.modules.items() if n == "fiblex" or n.startswith("fiblex.")]
    done = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                done.append((mod, attr, original))
    return done


def restore(done) -> None:
    for owner, attr, original in reversed(done):
        setattr(owner, attr, original)


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._installed: list = []

    def _wrap(self, name: str, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)
        counts = self.counts[name]

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                for key, amount in counter(args, kwargs, out).items():
                    counts[key] += amount
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for short in TRACED_MODULES:
            module = sys.modules[f"fiblex.{short}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or attr in UNTRACED or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or inspect.isgeneratorfunction(fn)):
                    continue
                self._installed += rebind(fn, self._wrap(f"{short}.{attr}", fn))
        speaker_cls = sys.modules["fiblex.speaker"].Speaker
        post_init = speaker_cls.__post_init__
        speaker_cls.__post_init__ = self._wrap("speaker.Speaker", post_init)
        self._installed.append((speaker_cls, "__post_init__", post_init))

    def uninstall(self) -> None:
        restore(self._installed)
        self._installed = []

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and counters of every layer in ``LAYERS``."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        limits_in_paraphrasis = 0
        for name, _, _, parent in self.spans:
            if name == "fincat.set_limit" and self._under(parent, "speaker.acquire_by_paraphrasis"):
                limits_in_paraphrasis += 1

        out = {}
        for layer, metrics in LAYERS.items():
            counts = self.counts[layer]
            for m in metrics:
                if m == "calls":
                    value = calls[layer]
                elif m == "self_s":
                    value = self_s[layer]
                elif m == "limits_per_event":
                    events = calls[layer]
                    value = limits_in_paraphrasis / events if events else 0
                elif m in RATIOS:
                    num, den = (counts[k] for k in RATIOS[m])
                    value = num / den if den else 0
                else:
                    value = counts[m]
                out[f"{layer}.{m}"] = value
        return out

    def _under(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def write_spans(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent}) + "\n")
