import json

import pytest

from conftest import make_planted_splits
from coevonet import baselines, runner
from coevonet.genome import SearchSpaceConfig
from coevonet.moea import ParetoArchive, merge_archives
from coevonet.neural import ScgConfig
from coevonet.objectives import ObjectiveVector

SPACE = SearchSpaceConfig(n_features=8)


@pytest.fixture(scope="module")
def splits():
    return make_planted_splits(n_features=8, seed=21)


def _settings(algorithm, **overrides):
    base = dict(algorithm=algorithm, max_evaluations=10, runs=1, master_seed=1, cycles=1,
                scg_max_iter=10, population=4, reduction_k=3)
    return runner.SearchSettings(**{**base, **overrides})


def test_archive_jsonl_round_trip(tmp_path):
    archive = ParetoArchive()
    archive.add("01", ObjectiveVector(0.1, 0.3, 0.2))
    archive.add("10", ObjectiveVector(0.3, 0.1, 0.2))
    path = tmp_path / "a" / "archive.jsonl"
    runner.write_archive_jsonl(archive, path, {"config_hash": "abc"})
    loaded, meta = runner.read_archive_jsonl(path)
    assert loaded.members() == archive.members()
    assert meta["config_hash"] == "abc" and meta["record"] == "header"


@pytest.mark.parametrize("algorithm", runner.ALGORITHMS)
def test_every_algorithm_runs_within_budget(splits, algorithm):
    archive, stats, problem = runner.run_single_seed(splits, SPACE, _settings(algorithm), 3)
    assert len(archive) >= 1
    assert archive.is_dominance_fixed_point()
    assert problem.fe_count <= 10
    if algorithm != "random":
        assert stats[0].evaluations <= stats[-1].evaluations == problem.fe_count


@pytest.mark.parametrize("reduction", baselines.REDUCTIONS)
def test_topology_only_uses_the_named_reduction(splits, reduction):
    _, _, problem = runner.run_single_seed(
        splits, SPACE, _settings("topology-only", reduction=reduction), 3)
    expected = baselines.fit_reduction(reduction, splits.d_train, 3).n_retained
    assert problem.splits.d_train.n_features == expected


def test_unknown_algorithm():
    with pytest.raises(ValueError):
        _settings("tabu")


@pytest.mark.parametrize("overrides", [{"max_evaluations": 0}, {"runs": 0}])
def test_settings_reject_empty_searches(overrides):
    with pytest.raises(ValueError):
        _settings("nsga2", **overrides)


@pytest.mark.parametrize("algorithm", ["nsga2", "topology-only"])
def test_holdout_decodes_through_the_run_problem(splits, algorithm):
    archive, _, problem = runner.run_single_seed(splits, SPACE, _settings(algorithm), 3)
    bits = archive.members()[0][0]
    result = runner.holdout_evaluate_genome(bits, problem, ScgConfig(max_iter=10), seed=1,
                                            cycles=2)
    assert result["genome"] == bits and result["cycles"] == 2
    assert all(0.0 <= result[name] <= 1.0 for name in ("accuracy", "balanced_error"))


def test_protocol_merges_runs_and_writes_artifacts(splits, tmp_path):
    settings = _settings("nsga2", runs=2)
    merged, meta = runner.run_search_protocol(splits, SPACE, settings, tmp_path)
    assert meta["config_hash"] == runner.config_hash(settings.to_dict())
    assert runner.SearchSettings(**meta["settings"]) == settings
    per_run = [runner.read_archive_jsonl(tmp_path / "nsga2" / f"seed-{k}" / "archive.jsonl")[0]
               for k in (1, 2)]
    assert merged.members() == merge_archives(per_run).members()
    assert set(json.loads((tmp_path / "timing.json").read_text())) == {"seed-1", "seed-2"}
