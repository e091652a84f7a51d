"""Fixed-seed engine outputs against values recorded before the engines shared one skeleton.

``golden_engines.json`` holds, per run, the archive members (genome and
objectives) and the per-generation statistics, or for the scalarized GA its
best genome, best value and trace. The values are compared exactly: a change
in RNG draw order, tie-breaking or the budget check shows up here even when
two runs of the new code still agree with each other.
"""

import json
from pathlib import Path

import pytest

from conftest import MockProblem, make_planted_splits
from coevonet.baselines import scalarized_search
from coevonet.genome import SearchSpaceConfig
from coevonet.moea import EagdConfig, Nsga2Config, eagd_run, nsga2_run, random_search_run
from coevonet.neural import ScgConfig
from coevonet.objectives import CoevolutionProblem, EvalConfig, ScalarizedConfig

GOLDEN = json.loads((Path(__file__).with_name("golden_engines.json")).read_text())

RUNS = {
    "nsga2/3": lambda: nsga2_run(MockProblem(), Nsga2Config(population=8, max_evaluations=60, seed=3)),
    "nsga2/11": lambda: nsga2_run(MockProblem(), Nsga2Config(population=8, max_evaluations=60, seed=11)),
    "nsga2/small-budget": lambda: nsga2_run(
        MockProblem(), Nsga2Config(population=8, max_evaluations=5, seed=2)),
    "eagd/3": lambda: eagd_run(MockProblem(), EagdConfig(
        population=8, learning_generations=2, max_evaluations=60, seed=3)),
    "eagd/11": lambda: eagd_run(MockProblem(), EagdConfig(
        population=8, learning_generations=2, max_evaluations=60, seed=11)),
    "eagd/small-budget": lambda: eagd_run(
        MockProblem(), EagdConfig(population=8, max_evaluations=5, seed=2)),
    "random/3": lambda: (random_search_run(MockProblem(), 40, 3), None),
    "random/11": lambda: (random_search_run(MockProblem(), 40, 11), None),
}


def _members(archive):
    return [[bits, list(obj.as_tuple())] for bits, obj in archive.members()]


def _stats(stats):
    return [[s.generation, s.evaluations, s.front_size, list(s.best), list(s.mean),
             float(s.hypervolume)] for s in stats]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_engine_matches_recorded_run(name):
    archive, stats = RUNS[name]()
    expected = GOLDEN[name]
    assert _members(archive) == expected["members"]
    if stats is not None:
        assert _stats(stats) == expected["stats"]


def test_scalarized_matches_recorded_run():
    splits = make_planted_splits(n_features=8, seed=14)
    problem = CoevolutionProblem(splits, SearchSpaceConfig(n_features=8),
                                 EvalConfig(cycles=2, scg=ScgConfig(max_iter=15), master_seed=3))
    archive, trace = scalarized_search(problem, ScalarizedConfig(),
                                       Nsga2Config(population=6, max_evaluations=30, seed=3))
    expected = GOLDEN["scalarized"]
    [(best_bits, _)] = archive.members()
    assert best_bits == expected["best_bits"]
    assert trace[-1].best_value == expected["best_value"]
    assert [[t.generation, t.evaluations, t.best_value] for t in trace] == expected["trace"]
