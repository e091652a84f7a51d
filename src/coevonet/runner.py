"""Experiment orchestration: multi-seed searches, artifact files, hold-out reporting.

Artifact layout under an output directory:

    <out>/<algo>/seed-<k>/archive.jsonl     per-run non-dominated set
    <out>/<algo>/seed-<k>/generations.csv   per-generation metrics
    <out>/merged/archive.jsonl              dominance-filtered union over runs
    <out>/selected/<preset>.json            a-posteriori selection + audit
    <out>/holdout/<preset>.json             hold-out metrics of the selection

Every artifact embeds the config hash and master seed. Deterministic outputs
contain no wall-clock values; timing lives in a sidecar ``timing.json``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baselines, moea, neural
from .decision import PreferenceSpec, preference_weights, select_architecture
from .genome import SearchSpaceConfig, decode
from .market_data import DatasetSplits
from .moea import EagdConfig, Nsga2Config, ParetoArchive, merge_archives
from .neural import ScgConfig, Topology
from .objectives import (SCORE_NAMES, CoevolutionProblem, EvalConfig, ObjectiveVector,
                         TopologyOnlyProblem, split_scores)

logger = logging.getLogger(__name__)

ALGORITHMS = ("nsga2", "eagd", "scalarized", "topology-only", "random")


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def write_archive_jsonl(archive: ParetoArchive, path, meta: dict,
                        space: SearchSpaceConfig | None = None) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(json.dumps({"record": "header", **meta}, sort_keys=True) + "\n")
        for bits, obj in archive.members():
            row = {"record": "member", "genome": bits,
                   "e_cv": obj.e_cv, "c": obj.c, "e_pr": obj.e_pr}
            if space is not None and len(bits) == space.genome_length:
                arch = decode(bits, space)
                row["architecture"] = arch.to_json_dict()
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_archive_jsonl(path) -> tuple[ParetoArchive, dict]:
    archive = ParetoArchive()
    meta = {}
    with Path(path).open() as fh:
        for line in fh:
            row = json.loads(line)
            if row.get("record") == "header":
                meta = row
            else:
                archive.add(row["genome"],
                            ObjectiveVector(row["e_cv"], row["c"], row["e_pr"]))
    return archive, meta


@dataclass
class SearchSettings:
    """Desk-scale defaults; the paper-scale protocol is one flag away."""

    algorithm: str = "nsga2"
    max_evaluations: int = 2000
    runs: int = 5
    master_seed: int = 1
    cycles: int = 2
    scg_max_iter: int = 200
    population: int = 50
    reduction: str = "mrmr"        # topology-only: mrmr | cfs | pca
    reduction_k: int = 17
    scenario: str = "balanced"     # scalarized preset weights

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        if self.max_evaluations < 1:
            raise ValueError(f"max_evaluations {self.max_evaluations} must be >= 1")
        if self.runs < 1:
            raise ValueError(f"runs {self.runs} must be >= 1")

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def make_problem(splits: DatasetSplits, space: SearchSpaceConfig,
                 settings: SearchSettings, run_seed: int):
    """The evaluation problem of one run, the one owner of what its genomes mean.

    Topology-only runs fit the a-priori reduction on the training split and
    search topologies over the reduced splits; every other algorithm searches
    the full co-evolution genome.
    """
    cfg = EvalConfig(cycles=settings.cycles, scg=ScgConfig(max_iter=settings.scg_max_iter),
                     master_seed=run_seed)
    if settings.algorithm == "topology-only":
        reduction = baselines.fit_reduction(settings.reduction, splits.d_train,
                                            settings.reduction_k)
        return TopologyOnlyProblem(baselines.reduce_splits(splits, reduction), space, cfg)
    return CoevolutionProblem(splits, space, cfg)


def run_single_seed(splits: DatasetSplits, space: SearchSpaceConfig,
                    settings: SearchSettings, run_seed: int):
    """One search run; returns (archive, generation stats, problem)."""
    problem = make_problem(splits, space, settings, run_seed)
    engine = dict(population=settings.population,
                  max_evaluations=settings.max_evaluations, seed=run_seed)
    algo = settings.algorithm
    if algo == "eagd":
        archive, stats = moea.eagd_run(problem, EagdConfig(**engine))
    elif algo == "scalarized":
        archive, stats = baselines.scalarized_search(
            problem, baselines.SCALARIZED_SCENARIOS[settings.scenario], Nsga2Config(**engine))
    elif algo == "random":
        archive, stats = moea.random_search_run(problem, settings.max_evaluations, run_seed), []
    else:   # nsga2, and topology-only over its reduced inputs
        archive, stats = moea.nsga2_run(problem, Nsga2Config(**engine))
    return archive, stats, problem


def _write_trace_csv(path, stats, preamble: str) -> None:
    if stats and isinstance(stats[0], baselines.ScalarizedTracePoint):
        with open(path, "w", newline="") as fh:
            fh.write(f"# {preamble}\n")
            fh.write("generation,evaluations,best_scalarized\n")
            for p in stats:
                fh.write(f"{p.generation},{p.evaluations},{p.best_value!r}\n")
    else:
        moea.write_generation_csv(path, stats, preamble=preamble)


def run_search_protocol(splits: DatasetSplits, space: SearchSpaceConfig,
                        settings: SearchSettings, out_dir=None) -> tuple[ParetoArchive, dict]:
    """Run seeds master_seed+1 .. master_seed+runs and merge the archives."""
    cfg_hash = config_hash(settings.to_dict())
    meta = {"config_hash": cfg_hash, "master_seed": settings.master_seed,
            "algorithm": settings.algorithm, "settings": settings.to_dict()}
    out = Path(out_dir) if out_dir is not None else None
    per_run = []
    timing = {}
    for run in range(1, settings.runs + 1):
        run_seed = settings.master_seed + run
        started = time.perf_counter()
        archive, stats, problem = run_single_seed(splits, space, settings, run_seed)
        timing[f"seed-{run}"] = time.perf_counter() - started
        per_run.append(archive)
        logger.info("%s seed %d: archive %d, FE %d (+%d cached)",
                    settings.algorithm, run, len(archive), problem.fe_count,
                    problem.cache_hits)
        if out is not None:
            seed_dir = out / settings.algorithm / f"seed-{run}"
            seed_dir.mkdir(parents=True, exist_ok=True)
            write_archive_jsonl(archive, seed_dir / "archive.jsonl",
                                {**meta, "run_seed": run_seed}, space=space)
            preamble = (f"config_hash={cfg_hash} master_seed={settings.master_seed} "
                        f"run_seed={run_seed}")
            _write_trace_csv(seed_dir / "generations.csv", stats, preamble)
    merged = merge_archives(per_run)
    if out is not None:
        write_archive_jsonl(merged, out / "merged" / "archive.jsonl", meta, space=space)
        (out / "timing.json").write_text(json.dumps(timing, indent=2, sort_keys=True))
    return merged, meta


def select_and_write(archive: ParetoArchive, spec: PreferenceSpec, preset_name: str,
                     meta: dict, out_dir=None, space: SearchSpaceConfig | None = None) -> dict:
    bits, obj, result = select_architecture(archive, spec)
    record = {
        **meta,
        "preset": preset_name,
        "rankings": list(spec.rankings),
        "intensity": spec.intensity,
        "weights": preference_weights(spec).tolist(),
        "genome": bits,
        "objectives": {"e_cv": obj.e_cv, "c": obj.c, "e_pr": obj.e_pr},
        "tournament": result.to_json_dict(),
    }
    if space is not None and len(bits) == space.genome_length:
        record["architecture"] = decode(bits, space).to_json_dict()
    if out_dir is not None:
        sel_dir = Path(out_dir) / "selected"
        sel_dir.mkdir(parents=True, exist_ok=True)
        (sel_dir / f"{preset_name}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    return record


def train_final_model(topology: Topology, feature_indices, splits: DatasetSplits,
                      scg_cfg: ScgConfig, seed: int) -> neural.TrainedModel:
    train = splits.d_train
    x = train.features[:, list(feature_indices)] if feature_indices is not None else train.features
    return neural.scg_train(topology, x, train.labels, scg_cfg, seed,
                            feature_indices=feature_indices)


def holdout_evaluate_genome(bits: str, problem, scg_cfg: ScgConfig, seed: int,
                            cycles: int = 1) -> dict:
    """Retrain the selected architecture at final quality; report hold-out metrics.

    ``problem`` is the run's evaluation problem (see ``make_problem``): it
    decodes the genome and holds the splits the search trained on; a
    topology-only architecture reads every reduced input (``feature_indices``
    null). With cycles > 1 the metrics are means over independently seeded
    trainings.
    """
    columns, _, topology = problem.decode(bits)
    hold = problem.splits.open_holdout()
    scores = []
    for k in range(cycles):
        model = train_final_model(topology, columns, problem.splits, scg_cfg, seed + k)
        scores.append(split_scores(model, hold, columns))
    return {
        "genome": bits,
        "architecture": {"feature_indices": columns,
                         "layers": [[s, a.value] for s, a in topology.layers]},
        "cycles": cycles,
        **{name: float(np.mean(values)) for name, values in zip(SCORE_NAMES, zip(*scores))},
    }


def rule_of_thumb_topologies(n_features: int, n_classes: int, n_train: int) -> dict[str, Topology]:
    """All six rule topologies (tanh hidden layers) for a given input width."""
    out = {}
    for rule in baselines.RULE_NAMES:
        s1, s2 = baselines.rule_of_thumb(rule, n_features=n_features,
                                         n_classes=n_classes, n_train=n_train)
        layers = [(s1, neural.ActivationKind.TANH)]
        if s2 > 0:
            layers.append((s2, neural.ActivationKind.TANH))
        out[rule] = Topology(tuple(layers))
    return out
