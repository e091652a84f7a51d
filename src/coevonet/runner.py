"""Experiment orchestration: multi-seed searches, artifact files, hold-out reporting.

Artifact layout under an output directory:

    <out>/<algo>/seed-<k>/archive.jsonl     per-run non-dominated set
    <out>/<algo>/seed-<k>/generations.csv   per-generation metrics
    <out>/merged/archive.jsonl              dominance-filtered union over runs
    <out>/selected/<preset>.json            a-posteriori selection + audit
    <out>/holdout/<preset>.json             hold-out metrics of the selection

Every archive row, selection and hold-out record carries an ``architecture``
record, written once by the run's evaluation problem (``describe``):
``feature_indices`` (catalog positions, null for a topology-only member whose
inputs were fixed a priori), ``n_inputs`` and ``layers`` ([size, activation]
per hidden-layer slot, size 0 inactive). Readers copy it and never read an
architecture from the bits themselves.

Every artifact embeds the config hash and master seed. Deterministic outputs
contain no wall-clock values; timing lives in a sidecar ``timing.json``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baselines, moea, neural
from .decision import PreferenceSpec, select_architecture
from .market_data import DatasetSplits
from .moea import ParetoArchive, merge_archives
from .neural import ActivationKind, Topology
from .objectives import (SCORE_NAMES, CoevolutionProblem, ObjectiveVector, TopologyOnlyProblem,
                         queue_trainings, split_scores, training_workers)

logger = logging.getLogger(__name__)

ALGORITHMS = ("nsga2", "eagd", "scalarized", "topology-only", "random")


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def write_archive_jsonl(archive: ParetoArchive, path, meta: dict, problem) -> None:
    """Header row, then one row per member with the architecture ``problem`` describes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(json.dumps({"record": "header", **meta}, sort_keys=True) + "\n")
        for bits, obj in archive.members():
            row = {"record": "member", "genome": bits, "e_cv": obj.e_cv, "c": obj.c,
                   "e_pr": obj.e_pr, "architecture": problem.describe(bits)}
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_archive_jsonl(path) -> tuple[ParetoArchive, dict, dict]:
    """(archive, header, architecture record by genome); a row without one maps to None."""
    archive = ParetoArchive()
    meta = {}
    architectures = {}
    with Path(path).open() as fh:
        for line in fh:
            row = json.loads(line)
            if row.get("record") == "header":
                meta = row
            else:
                archive.add(row["genome"],
                            ObjectiveVector(row["e_cv"], row["c"], row["e_pr"]))
                architectures[row["genome"]] = row.get("architecture")
    return archive, meta, architectures


@dataclass
class SearchSettings:
    """The one settings object of a search; the ``search`` flags give the defaults.

    Every engine and evaluation problem of the search reads its settings from
    here, and a value that no run could use, whatever the data, is refused when
    the object is built, before a search forks its workers. The population is
    ignored by ``random``.
    """

    algorithm: str
    max_evaluations: int
    runs: int
    master_seed: int
    cycles: int
    scg_max_iter: int
    population: int
    reduction: str          # topology-only: mrmr | cfs | pca
    reduction_k: int
    scenario: str           # scalarized preset weights

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value, kind = getattr(self, field.name), {"int": int, "str": str}[field.type]
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValueError(f"search setting {field.name} must be {kind.__name__}, "
                                 f"got {value!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        if self.reduction not in baselines.REDUCTIONS:
            raise ValueError(f"unknown reduction {self.reduction!r}; "
                             f"choose from {baselines.REDUCTIONS}")
        if self.scenario not in baselines.SCALARIZED_SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; "
                             f"choose from {tuple(baselines.SCALARIZED_SCENARIOS)}")
        if self.max_evaluations < 1:
            raise ValueError(f"max_evaluations {self.max_evaluations} must be >= 1")
        if self.runs < 1:
            raise ValueError(f"runs {self.runs} must be >= 1")
        if self.cycles < 1:
            raise ValueError("cycles must be >= 1")
        neural.check_max_iter(self.scg_max_iter)
        even = self.population >= 2 and self.population % 2 == 0
        if self.algorithm in ("nsga2", "scalarized", "topology-only") and not even:
            raise ValueError("population must be even and >= 2")
        if self.algorithm == "eagd" and self.population < 2:
            raise ValueError("population must be >= 2")

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def make_problem(splits: DatasetSplits, settings: SearchSettings):
    """The function that builds each run's evaluation problem from ``(run_seed, workers=None)``.

    The problem is the one owner of what a run's genomes mean. Topology-only
    runs search topologies over the splits reduced a priori, charging
    complexity against the column count of ``splits``; the reduction is
    fitted here, once, on the training split, since it does not depend on
    the run seed. Every other algorithm searches the full co-evolution
    genome, one feature bit per column. ``workers``, when given, minimize a
    problem's cycles.
    """
    training = (settings.cycles, settings.scg_max_iter)
    if settings.algorithm == "topology-only":
        reduction = baselines.fit_reduction(settings.reduction, splits.d_train,
                                            settings.reduction_k)
        return functools.partial(TopologyOnlyProblem, baselines.reduce_splits(splits, reduction),
                                 splits.d_train.n_features, *training)
    return functools.partial(CoevolutionProblem, splits, *training)


def run_single_seed(problem, settings: SearchSettings, run_seed: int):
    """One search run on a problem ``make_problem`` built; returns (archive, generation stats)."""
    engine = dict(population=settings.population,
                  max_evaluations=settings.max_evaluations, seed=run_seed)
    algo = settings.algorithm
    if algo == "eagd":
        archive, stats = moea.eagd_run(problem, **engine)
    elif algo == "scalarized":
        archive, stats = baselines.scalarized_search(
            problem, baselines.SCALARIZED_SCENARIOS[settings.scenario], **engine)
    elif algo == "random":
        archive, stats = moea.random_search_run(problem, settings.max_evaluations, run_seed), []
    else:   # nsga2, and topology-only over its reduced inputs
        archive, stats = moea.nsga2_run(problem, **engine)
    return archive, stats


def run_search_protocol(splits: DatasetSplits, settings: SearchSettings,
                        out_dir=None) -> tuple[ParetoArchive, dict]:
    """Run seeds master_seed+1 .. master_seed+runs and merge the archives.

    The runs' problems come from one ``make_problem``, called before any
    worker forks, so a topology-only search fits its reduction once and a
    reduction the data refuses fails before the fork. The runs then share
    one ``training_workers(cycles)``, forked before the first run and joined
    after the last, so a single cycle trains inline.
    """
    cfg_hash = config_hash(settings.to_dict())
    meta = {"config_hash": cfg_hash, "master_seed": settings.master_seed,
            "algorithm": settings.algorithm, "settings": settings.to_dict()}
    out = Path(out_dir) if out_dir is not None else None
    new_problem = make_problem(splits, settings)
    per_run = []
    timing = {}
    with training_workers(settings.cycles) as workers:
        for run in range(1, settings.runs + 1):
            run_seed = settings.master_seed + run
            started = time.perf_counter()
            problem = new_problem(run_seed, workers)
            archive, stats = run_single_seed(problem, settings, run_seed)
            timing[f"seed-{run}"] = time.perf_counter() - started
            per_run.append(archive)
            logger.info("%s seed %d: archive %d, FE %d (+%d cached)",
                        settings.algorithm, run, len(archive), problem.fe_count,
                        problem.cache_hits)
            if out is not None:
                seed_dir = out / settings.algorithm / f"seed-{run}"
                seed_dir.mkdir(parents=True, exist_ok=True)
                write_archive_jsonl(archive, seed_dir / "archive.jsonl",
                                    {**meta, "run_seed": run_seed}, problem)
                preamble = (f"config_hash={cfg_hash} master_seed={settings.master_seed} "
                            f"run_seed={run_seed}")
                moea.write_generation_csv(seed_dir / "generations.csv", stats, preamble)
    merged = merge_archives(per_run)
    if out is not None:
        # a genome's architecture does not depend on the run seed, so the last
        # run's problem describes the union
        write_archive_jsonl(merged, out / "merged" / "archive.jsonl", meta, problem)
        (out / "timing.json").write_text(json.dumps(timing, indent=2, sort_keys=True))
    return merged, meta


def select_and_write(archive: ParetoArchive, architectures: dict, spec: PreferenceSpec,
                     preset_name: str, meta: dict, out_dir=None) -> dict:
    """Select from ``archive``; the record copies the chosen row's architecture."""
    bits, obj, result = select_architecture(archive, spec)
    record = {
        **meta,
        "preset": preset_name,
        "rankings": list(spec.rankings),
        "intensity": spec.intensity,
        "weights": result.weights.tolist(),
        "genome": bits,
        "objectives": {"e_cv": obj.e_cv, "c": obj.c, "e_pr": obj.e_pr},
        "tournament": result.to_json_dict(),
        "architecture": architectures[bits],
    }
    if out_dir is not None:
        sel_dir = Path(out_dir) / "selected"
        sel_dir.mkdir(parents=True, exist_ok=True)
        (sel_dir / f"{preset_name}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    return record


def record_topology(architecture: dict) -> Topology:
    """The hidden topology of an ``architecture`` record."""
    return Topology(tuple((size, ActivationKind(act)) for size, act in architecture["layers"]))


def train_final_model(topology: Topology, feature_indices, splits: DatasetSplits,
                      max_iter: int, seed: int, minimized=None) -> neural.TrainedModel:
    """One final training on ``splits.d_train``; ``minimized`` as in ``neural.scg_train``."""
    train = splits.d_train
    return neural.scg_train(topology, train.inputs(feature_indices), train.labels, max_iter, seed,
                            minimized=minimized)


def train_final_models(jobs, splits: DatasetSplits, max_iter: int) -> list[neural.TrainedModel]:
    """The model of each (topology, feature indices, seed) of ``jobs``, in order.

    The jobs are queued on ``training_workers(len(jobs))``, as a search
    queues its cycles, then collected through ``train_final_model`` on this
    thread; ``max_iter`` is checked before the fork.
    """
    neural.check_max_iter(max_iter)
    with training_workers(len(jobs)) as workers:
        queued = queue_trainings(workers, splits.d_train, max_iter, jobs)
        return [train_final_model(topology, columns, splits, max_iter, seed, minimized=future)
                for (topology, columns, seed), future in zip(jobs, queued)]


def holdout_evaluate_genome(bits: str, problem, max_iter: int, seed: int,
                            cycles: int = 1) -> dict:
    """Retrain the selected architecture at final quality; report hold-out metrics.

    ``problem`` is a run's evaluation problem (see ``make_problem``): it
    decodes and describes the genome and holds the splits the search trained
    on; a topology-only architecture reads every reduced input. Cycle k trains
    with seed ``seed + k`` through ``train_final_models``, so several cycles
    train on the worker processes. Each score is reported as its mean over
    the cycles, with its values in seed order under ``per_cycle`` and their
    population standard deviation under ``std``; ``cycles`` below 1 is a
    ``ValueError``.
    """
    if cycles < 1:
        raise ValueError(f"holdout cycles must be >= 1, got {cycles}")
    columns, _, topology = problem.decode(bits)
    hold = problem.splits.open_holdout()
    models = train_final_models([(topology, columns, seed + k) for k in range(cycles)],
                                problem.splits, max_iter)
    scores = [split_scores(model, hold, columns) for model in models]
    per_cycle = {name: [float(v) for v in values]
                 for name, values in zip(SCORE_NAMES, zip(*scores))}
    return {
        "genome": bits,
        "architecture": problem.describe(bits),
        "cycles": cycles,
        **{name: float(np.mean(values)) for name, values in per_cycle.items()},
        "per_cycle": per_cycle,
        "std": {name: float(np.std(values)) for name, values in per_cycle.items()},
    }
