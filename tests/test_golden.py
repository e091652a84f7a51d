"""Fixed-seed engine and CLI outputs against values recorded by earlier code.

``golden_engines.json`` holds, per run, the archive members (genome and
objectives) and the per-generation statistics, or for the scalarized GA its
best genome, best value and trace. The values are compared exactly: a change
in RNG draw order, tie-breaking or the budget check shows up here even when
two runs of the new code still agree with each other. ``CLI_ARCHIVE_DIGESTS``
does the same for a small real run: ``ingest`` of 300 synthetic bars, then a
two-run ``search`` of every ``--algo`` (and of NSGA-II at two cycles), pinned
by a digest of the merged archive's genomes and objectives; the ingested
split files are pinned by ``INGEST_SPLITS_DIGEST``, the ``baseline``
artifacts of each reduction by ``CLI_BASELINE_DIGESTS``, and the ``select``
and ``holdout-eval`` records of two of the runs by ``CLI_HOLDOUT_DIGESTS``.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import TINY_SEARCHES, MockProblem, make_planted_splits
from coevonet import moea
from coevonet.baselines import scalarized_search
from coevonet.moea import eagd_run, nsga2_run, random_search_run
from coevonet.objectives import CoevolutionProblem

GOLDEN = json.loads((Path(__file__).with_name("golden_engines.json")).read_text())

RUNS = {
    "nsga2/3": lambda: nsga2_run(MockProblem(), population=8, max_evaluations=60, seed=3),
    "nsga2/11": lambda: nsga2_run(MockProblem(), population=8, max_evaluations=60, seed=11),
    "nsga2/small-budget": lambda: nsga2_run(MockProblem(), population=8, max_evaluations=5,
                                            seed=2),
    "eagd/3": lambda: eagd_run(MockProblem(), population=8, max_evaluations=60, seed=3),
    "eagd/11": lambda: eagd_run(MockProblem(), population=8, max_evaluations=60, seed=11),
    "eagd/small-budget": lambda: eagd_run(MockProblem(), population=8, max_evaluations=5,
                                          seed=2),
    "random/3": lambda: (random_search_run(MockProblem(), 40, 3), None),
    "random/11": lambda: (random_search_run(MockProblem(), 40, 11), None),
}

#: Runs recorded with the archive guiding EAGD every 2 generations, not every
#: ``moea.LEARNING_GENERATIONS``, so that a 60-FE run is guided at all.
GUIDED_EVERY_2 = {"eagd/3", "eagd/11"}


def _members(archive):
    return [[bits, list(obj.as_tuple())] for bits, obj in archive.members()]


def _stats(stats):
    return [[s.generation, s.evaluations, s.front_size, list(s.best), list(s.mean),
             float(s.hypervolume)] for s in stats]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_engine_matches_recorded_run(name, monkeypatch):
    if name in GUIDED_EVERY_2:
        monkeypatch.setattr(moea, "LEARNING_GENERATIONS", 2)
    archive, stats = RUNS[name]()
    expected = GOLDEN[name]
    assert _members(archive) == expected["members"]
    if stats is not None:
        assert _stats(stats) == expected["stats"]


def test_scalarized_matches_recorded_run():
    splits = make_planted_splits(n_features=8, seed=14)
    problem = CoevolutionProblem(splits, cycles=2, max_iter=15, master_seed=3)
    archive, trace = scalarized_search(problem, (0.5, 0.5), population=6, max_evaluations=30,
                                       seed=3)
    expected = GOLDEN["scalarized"]
    [(best_bits, _)] = archive.members()
    assert best_bits == expected["best_bits"]
    assert trace[-1].best_value == expected["best_value"]
    assert [[t.generation, t.evaluations, t.best_value] for t in trace] == expected["trace"]


# ---------------------------------------------------------------------------
# a small real run through the CLI
# ---------------------------------------------------------------------------

#: ``search`` flags of the pinned CLI runs: every --algo, and NSGA-II with two
#: cycles, whose trainings run side by side.
GOLDEN_SEARCHES = {**TINY_SEARCHES,
                   "nsga2-cycles2": [*TINY_SEARCHES["nsga2"], "--cycles", "2"]}

#: sha256 of the merged archive's (genome, e_cv, c, e_pr) rows, recorded before
#: archive rows carried their architecture (``nsga2-cycles2``: before a
#: genome's cycles trained concurrently).
CLI_ARCHIVE_DIGESTS = {
    "nsga2": "be0a63e3e634e88c9c4c0c0d17f571c6df36afc6141f4d179333e07662854e69",
    "nsga2-cycles2": "ee17c9fcf46e204ee05f991ae6c3b6cdcad86ff11b2d967a9e8537cc2bc89890",
    "eagd": "e827ee6f4de1e064946c80c8f636958737f6caba4e315ed5efbfe050d890dfa3",
    "scalarized": "659bc1826adc6ab8933cb52083e43bbadb0cd997904dfbba0036802adc5dd79b",
    "random": "68e55d7f8aae8a31fb5c4359b5594105f9b8a4866c09c2d0bc4a1e9294113829",
    "topology-only-mrmr": "a141316d04d981c8e82ea91bf809729e5b629da450f0325a86bf094595f3b2e8",
    "topology-only-pca": "2e36bb42fec4f3e7a5c25e8ad83905e1152aac545a312b0856fcb395eb294e1c",
}

#: sha256 over the name and bytes of each ``splits/*.csv`` that ``ingest
#: --synthetic --seed 7 --bars 300`` writes, in name order.
INGEST_SPLITS_DIGEST = "e6bbf17324810c2946332272c1ebb66fb4c30cc668c1fbfd02c77f451f0e6a31"

#: sha256 over the name and bytes of ``rules.csv`` and ``reduction.json`` that
#: ``baseline --method M`` (default flags) writes on that ingest.
CLI_BASELINE_DIGESTS = {
    "mrmr": "6da4fbe542f01867308c0b1e874d03a7072e39fd2dea4a0d0b9e14ceba9a738f",
    "cfs": "5b16634b030ca11f6bbeb67e02a6de55fbf65fe633b2fc4d9a8a6ed400d4a961",
    "pca": "7906d64af97993ec3b3688c3bb506aad03ee63ae54a239d93ef0a35e9f90e94c",
}

#: sha256 over the name and bytes of ``selected/O2.json`` and ``holdout/O2.json``
#: after ``select --preset O2`` and ``holdout-eval --cycles 2 --scg-iters 50``
#: on the run of that name.
CLI_HOLDOUT_DIGESTS = {
    "nsga2-cycles2": "43604be869686ddb5720744866f33fbdec48e6f3d7dde00ccf52bb38e74e784d",
    "topology-only-pca": "762583d543f0bb14a2f0670471a9a0600700da42c9645996897b8198780dee7a",
}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The steps run in one subprocess, so that the BLAS variables in its
# environment act before numpy loads: the thread count changes the last bits
# of matrix products, and with them the archive.
_CLI_SCRIPT = """
import json, sys
from coevonet import cli
for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(f"step failed: {argv}")
"""


def _env(**blas) -> dict:
    """This environment with ``src`` importable, the BLAS variables replaced by ``blas``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    return {**env, **blas}


def _run_searches(root: Path, names, env, methods=(), holdouts=()) -> None:
    """Ingest, search each of ``names``, fit the baseline of each of ``methods``,
    and select and hold-out-evaluate the O2 preset of each run in ``holdouts``."""
    data = root / "data"
    steps = [["ingest", "--synthetic", "--seed", "7", "--bars", "300", "--out", str(data)]]
    for name in names:
        steps.append(["search", "--data", str(data), *GOLDEN_SEARCHES[name],
                      "--out", str(root / name)])
    for method in methods:
        steps.append(["baseline", "--data", str(data), "--method", method,
                      "--out", str(root / f"baseline-{method}")])
    for name in holdouts:
        steps.append(["select", "--run", str(root / name), "--preset", "O2"])
        steps.append(["holdout-eval", "--data", str(data), "--run", str(root / name),
                      "--preset", "O2", "--cycles", "2", "--scg-iters", "50"])
    subprocess.run([sys.executable, "-c", _CLI_SCRIPT, json.dumps(steps)], env=env,
                   check=True)


def _member_digest(path: Path) -> str:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    members = [[r["genome"], r["e_cv"], r["c"], r["e_pr"]]
               for r in rows if r.get("record") != "header"]
    return hashlib.sha256(json.dumps(members).encode()).hexdigest()


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-cli")
    _run_searches(root, GOLDEN_SEARCHES, _env(OPENBLAS_NUM_THREADS="1"), CLI_BASELINE_DIGESTS,
                  CLI_HOLDOUT_DIGESTS)
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN_SEARCHES))
def test_cli_archive_matches_recorded_run(cli_runs, name):
    digest = _member_digest(cli_runs / name / "merged" / "archive.jsonl")
    assert digest == CLI_ARCHIVE_DIGESTS[name]


def test_ingested_splits_match_recorded_bytes(cli_runs):
    digest = hashlib.sha256()
    for path in sorted((cli_runs / "data" / "splits").glob("*.csv")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == INGEST_SPLITS_DIGEST


@pytest.mark.parametrize("method", sorted(CLI_BASELINE_DIGESTS))
def test_baseline_artifacts_match_recorded_bytes(cli_runs, method):
    digest = hashlib.sha256()
    for name in ("reduction.json", "rules.csv"):
        digest.update(name.encode() + b"\0" + (cli_runs / f"baseline-{method}" / name).read_bytes())
    assert digest.hexdigest() == CLI_BASELINE_DIGESTS[method]


@pytest.mark.parametrize("name", sorted(CLI_HOLDOUT_DIGESTS))
def test_holdout_record_matches_recorded_bytes(cli_runs, name):
    digest = hashlib.sha256()
    for path in ("selected/O2.json", "holdout/O2.json"):
        digest.update(path.encode() + b"\0" + (cli_runs / name / path).read_bytes())
    assert digest.hexdigest() == CLI_HOLDOUT_DIGESTS[name]


def test_cli_archive_matches_with_blas_variables_unset(tmp_path):
    # ``import coevonet`` sets one BLAS thread itself
    _run_searches(tmp_path, ["nsga2-cycles2"], _env())
    digest = _member_digest(tmp_path / "nsga2-cycles2" / "merged" / "archive.jsonl")
    assert digest == CLI_ARCHIVE_DIGESTS["nsga2-cycles2"]


@pytest.mark.parametrize("preset, expected", [
    ({}, ("1", "1", "1")),
    ({"OPENBLAS_NUM_THREADS": "3"}, ("3", "1", "1")),
])
def test_import_sets_only_unset_blas_variables(preset, expected):
    probe = ("import json, os, coevonet; "
             f"print(json.dumps([os.environ[v] for v in {BLAS_THREAD_VARS!r}]))")
    done = subprocess.run([sys.executable, "-c", probe], env=_env(**preset),
                          capture_output=True, text=True, check=True)
    assert tuple(json.loads(done.stdout)) == expected
