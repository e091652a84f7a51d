import json

import numpy as np
import pytest

from conftest import is_dominance_fixed_point, make_planted_splits
from coevonet import baselines, runner
from coevonet.moea import merge_archives
from coevonet.objectives import SCORE_NAMES


@pytest.fixture(scope="module")
def splits():
    return make_planted_splits(n_features=8, seed=21)


def _settings(algorithm, **overrides):
    base = dict(algorithm=algorithm, max_evaluations=10, runs=1, master_seed=1, cycles=1,
                scg_max_iter=10, population=4, reduction="mrmr", reduction_k=3,
                scenario="balanced")
    return runner.SearchSettings(**{**base, **overrides})


def _run(splits, settings, run_seed=3):
    """(archive, generation stats, problem) of one run of ``settings``."""
    problem = runner.make_problem(splits, settings)(run_seed)
    return (*runner.run_single_seed(problem, settings, run_seed), problem)


def test_archive_jsonl_round_trip(splits, tmp_path):
    for algorithm in ("nsga2", "topology-only"):
        archive, _, problem = _run(splits, _settings(algorithm))
        path = tmp_path / algorithm / "archive.jsonl"
        runner.write_archive_jsonl(archive, path, {"config_hash": "abc"}, problem)
        loaded, meta, architectures = runner.read_archive_jsonl(path)
        assert loaded.members() == archive.members()
        assert meta["config_hash"] == "abc" and meta["record"] == "header"
        assert architectures == {bits: problem.describe(bits) for bits, _ in archive.members()}


@pytest.mark.parametrize("algorithm", runner.ALGORITHMS)
def test_every_algorithm_runs_within_budget(splits, algorithm):
    archive, stats, problem = _run(splits, _settings(algorithm))
    assert len(archive) >= 1
    assert is_dominance_fixed_point(archive)
    assert problem.fe_count <= 10
    if algorithm != "random":
        assert stats[0].evaluations <= stats[-1].evaluations == problem.fe_count


@pytest.mark.parametrize("reduction", baselines.REDUCTIONS)
def test_topology_only_uses_the_named_reduction(splits, reduction):
    _, _, problem = _run(splits, _settings("topology-only", reduction=reduction))
    expected = baselines.fit_reduction(reduction, splits.d_train, 3).n_retained
    assert problem.splits.d_train.n_features == expected


def test_unknown_algorithm():
    with pytest.raises(ValueError):
        _settings("tabu")


@pytest.mark.parametrize("overrides", [{"max_evaluations": 0}, {"runs": 0}])
def test_settings_reject_empty_searches(overrides):
    with pytest.raises(ValueError):
        _settings("nsga2", **overrides)


@pytest.mark.parametrize("algorithm, population",
                         [("nsga2", 3), ("scalarized", 0), ("topology-only", 5)])
def test_settings_refuse_a_population_below_2_or_odd(algorithm, population):
    with pytest.raises(ValueError, match="population must be even and >= 2"):
        _settings(algorithm, population=population)


@pytest.mark.parametrize("algorithm", ["nsga2", "topology-only"])
def test_holdout_decodes_through_the_run_problem(splits, algorithm):
    archive, _, problem = _run(splits, _settings(algorithm))
    bits = archive.members()[0][0]
    result = runner.holdout_evaluate_genome(bits, problem, 10, seed=1, cycles=2)
    assert result["genome"] == bits and result["cycles"] == 2
    assert all(0.0 <= result[name] <= 1.0 for name in ("accuracy", "balanced_error"))


def test_holdout_reports_every_cycle_and_the_spread(splits):
    archive, _, problem = _run(splits, _settings("nsga2"))
    bits = archive.members()[0][0]
    result = runner.holdout_evaluate_genome(bits, problem, 10, seed=4, cycles=3)
    for k in range(3):
        single = runner.holdout_evaluate_genome(bits, problem, 10, seed=4 + k)
        for name in SCORE_NAMES:
            assert result["per_cycle"][name][k] == single[name] == single["per_cycle"][name][0]
            assert single["std"][name] == 0.0
    for name in SCORE_NAMES:
        assert result[name] == float(np.mean(result["per_cycle"][name]))
        assert result["std"][name] == float(np.std(result["per_cycle"][name]))


def test_protocol_merges_runs_and_writes_artifacts(splits, tmp_path):
    settings = _settings("nsga2", runs=2)
    merged, meta = runner.run_search_protocol(splits, settings, tmp_path)
    assert meta["config_hash"] == runner.config_hash(settings.to_dict())
    assert runner.SearchSettings(**meta["settings"]) == settings
    per_run = [runner.read_archive_jsonl(tmp_path / "nsga2" / f"seed-{k}" / "archive.jsonl")[0]
               for k in (1, 2)]
    assert merged.members() == merge_archives(per_run).members()
    assert set(json.loads((tmp_path / "timing.json").read_text())) == {"seed-1", "seed-2"}


def test_two_run_topology_only_search_fits_its_reduction_once(splits, monkeypatch):
    fits = []
    fit = baselines.fit_reduction

    def counted(*args, **kwargs):
        fits.append(args[0])
        return fit(*args, **kwargs)

    monkeypatch.setattr(baselines, "fit_reduction", counted)
    runner.run_search_protocol(splits, _settings("topology-only", runs=2))
    assert fits == ["mrmr"]
