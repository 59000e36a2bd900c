import random

import pytest

import fiblex.fincat as fincat_module
from fiblex.collage import free_category
from fiblex.fincat import _plan_limit, quiver_from_edges
from genlib import random_free_shape
from shape_probe import KINDS, edge_base, main, shape


def free_shapes():
    """The probe's shapes at a few sizes, and random free shapes on acyclic
    quivers: those that no bound cut short."""
    rng = random.Random(30)
    shapes = [random_free_shape(rng) for _ in range(60)]
    return [shape(kind, k) for kind in KINDS for k in (1, 2, 5, 9)] + [
        free for free in shapes if free.closed]


@pytest.fixture
def reach_calls(monkeypatch):
    calls = []
    reach = fincat_module._reach

    def counted_reach(arcs, start):
        calls.append(start)
        return reach(arcs, start)

    monkeypatch.setattr(fincat_module, "_reach", counted_reach)
    return calls


def test_planning_an_acyclic_base_computes_no_reach_set(reach_calls):
    for free in free_shapes():
        _plan_limit(edge_base(free))
    assert reach_calls == []
    # a cycle is what makes the planner take reach sets
    cycle = free_category(quiver_from_edges(["a", "b"], [("f", "a", "b"), ("g", "b", "a")]),
                          bound=1)
    _plan_limit(edge_base(cycle))
    assert reach_calls


def test_each_walk_takes_each_arrow_of_its_roots_reach_once():
    for free in free_shapes():
        base = edge_base(free)
        arrows = [m for m in base.morphisms if m not in base.identities()]
        _, blocks, _ = _plan_limit(base)
        for _, walks in blocks:
            for root, steps, _ in walks:
                reach = fincat_module._reach(
                    lambda o: [base.tgt[m] for m in arrows if base.src[m] == o], root)
                taken = [m for m, *_ in steps]
                assert sorted(taken) == sorted(m for m in arrows if base.src[m] in reach)


def test_probe_prints_one_row_per_leg_count(capsys):
    main(["1", "3"])
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["k", "span:build", "span:plan", "cospan:build", "cospan:plan",
                               "chain:build", "chain:plan"]
    assert [row.split()[0] for row in rows[1:]] == ["1", "3"]
