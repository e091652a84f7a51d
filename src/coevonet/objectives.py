"""Candidate evaluation: decode, train over repeated cycles, score objectives.

Evaluating a genome yields the minimization vector (e_cv, c, e_pr): balanced
error on the within-regime test window, architectural complexity, and
balanced error on the earlier-regime window. Weight estimation repeats over
``cycles`` independently seeded trainings and the errors are cycle means;
cycle k of genome g is seeded by hash(master_seed, bits, k), so re-evaluation
is reproducible and results can be cached by bitstring.

The scalarized single-objective variant combines overall test error and
complexity under preference weights plus a 5x epsilon-constraint penalty on
test/pre-regime correlation (MCC) and pre-regime error.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import genome as genome_mod
from . import neural
from .genome import SearchSpaceConfig, decode_topology, repair_feature_prefix
from .market_data import DatasetSplits, PatternSet
from .neural import ScgConfig

logger = logging.getLogger(__name__)


@dataclass
class EvalConfig:
    cycles: int = 3
    scg: ScgConfig = field(default_factory=ScgConfig)
    master_seed: int = 0

    def __post_init__(self):
        if self.cycles < 1:
            raise ValueError("cycles must be >= 1")


@dataclass(frozen=True)
class ObjectiveVector:
    e_cv: float
    c: float
    e_pr: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.e_cv, self.c, self.e_pr)

    def __post_init__(self):
        for name, v in zip(("e_cv", "c", "e_pr"), self.as_tuple()):
            if not np.isfinite(v) or not 0.0 <= v <= 1.0:
                raise ValueError(f"objective {name}={v} outside [0, 1]")


@dataclass(frozen=True)
class EvalRecord:
    """Objectives plus the reporting metrics averaged over cycles."""

    objectives: ObjectiveVector
    cycle_errors_test: tuple[float, ...]
    cycle_errors_pr: tuple[float, ...]
    test_error_rate: float   # 1 - overall accuracy on the test window
    pr_error_rate: float
    test_mcc: float
    pr_mcc: float


def cycle_seed(master_seed: int, bits_str: str, k: int) -> int:
    digest = hashlib.sha256(f"{master_seed}|{bits_str}|{k}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


#: The scores ``split_scores`` returns, in order.
SCORE_NAMES = ("accuracy", "mcc", "balanced_error")

#: Worst-case scores of an aborted training, on the test window and then on
#: the earlier-regime window.
_ABORTED_CYCLE = (0.0, -1.0, 1.0, 0.0, -1.0, 1.0)


def split_scores(model, patterns: PatternSet, columns) -> tuple[float, float, float]:
    """(accuracy, mcc, balanced_error) on one pattern set; ``columns`` None feeds all."""
    x = patterns.features[:, columns] if columns is not None else patterns.features
    c = neural.confusion(neural.predict(model, x), patterns.labels)
    return neural.accuracy(c), neural.mcc(c), neural.balanced_error(c)


class _EvaluationProblem:
    """Shared machinery: bitstring cache, FE accounting, cycle loop, trace log."""

    def __init__(self, splits: DatasetSplits, space: SearchSpaceConfig,
                 cfg: EvalConfig, trace_path=None):
        self.splits = splits
        self.space = space
        self.cfg = cfg
        self.cache: dict[str, EvalRecord] = {}
        self.fe_count = 0
        self.cache_hits = 0
        self._trace_path = trace_path

    # subclasses define n_bits, repair(bits, rng) and decode(bits_str), which
    # returns (input columns or None for all, input count, topology)

    def evaluate(self, bits) -> EvalRecord:
        bits_str = bits if isinstance(bits, str) else genome_mod.bits_to_string(bits)
        hit = self.cache.get(bits_str)
        if hit is not None:
            self.cache_hits += 1
            return hit
        started = time.perf_counter()
        record = self._evaluate_fresh(bits_str)
        self.fe_count += 1
        self.cache[bits_str] = record
        if self._trace_path is not None:
            self._append_trace(bits_str, record, time.perf_counter() - started)
        return record

    def _evaluate_fresh(self, bits_str: str) -> EvalRecord:
        columns, n_selected, topology = self.decode(bits_str)
        c = genome_mod.complexity_of(n_selected, topology, self.space)
        train = self.splits.d_train
        x_train = train.features[:, columns] if columns is not None else train.features
        rows = []   # per cycle: split_scores on d_test, then on d_pr
        for k in range(1, self.cfg.cycles + 1):
            seed = cycle_seed(self.cfg.master_seed, bits_str, k)
            model = neural.scg_train(topology, x_train, train.labels, self.cfg.scg, seed)
            if model.aborted:
                logger.warning("cycle %d aborted for genome %s; worst-case errors assigned",
                               k, bits_str[:16])
                rows.append(_ABORTED_CYCLE)
                continue
            rows.append(split_scores(model, self.splits.d_test, columns)
                        + split_scores(model, self.splits.d_pr, columns))
        accs_test, mccs_test, errs_test, accs_pr, mccs_pr, errs_pr = zip(*rows)
        return EvalRecord(
            objectives=ObjectiveVector(
                e_cv=float(np.mean(errs_test)), c=c, e_pr=float(np.mean(errs_pr))
            ),
            cycle_errors_test=errs_test,
            cycle_errors_pr=errs_pr,
            test_error_rate=float(np.mean([1.0 - a for a in accs_test])),
            pr_error_rate=float(np.mean([1.0 - a for a in accs_pr])),
            test_mcc=float(np.mean(mccs_test)),
            pr_mcc=float(np.mean(mccs_pr)),
        )

    def _append_trace(self, bits_str, record, wall_time):
        entry = {
            "genome": bits_str,
            "objectives": record.objectives.as_tuple(),
            "cycle_errors_test": record.cycle_errors_test,
            "cycle_errors_pr": record.cycle_errors_pr,
            "wall_time": wall_time,
        }
        with open(self._trace_path, "a") as fh:
            fh.write(json.dumps(entry) + "\n")


class CoevolutionProblem(_EvaluationProblem):
    """Full genome: feature-subset prefix plus hidden-layer blocks."""

    @property
    def n_bits(self) -> int:
        return self.space.genome_length

    def repair(self, bits: np.ndarray, rng) -> np.ndarray:
        return repair_feature_prefix(bits, self.space, rng)

    def decode(self, bits_str: str):
        arch = genome_mod.decode(bits_str, self.space)
        return arch.feature_indices, len(arch.feature_indices), arch.topology


class TopologyOnlyProblem(_EvaluationProblem):
    """Topology bits only; the feature subset was fixed a priori.

    ``splits`` must already be restricted (or projected) to the fixed inputs;
    complexity charges the fixed input count against the full-catalog size.
    """

    def __init__(self, splits: DatasetSplits, space: SearchSpaceConfig,
                 cfg: EvalConfig, fixed_feature_count: int | None = None,
                 trace_path=None):
        super().__init__(splits, space, cfg, trace_path)
        self.fixed_feature_count = (
            splits.d_train.n_features if fixed_feature_count is None else fixed_feature_count
        )

    @property
    def n_bits(self) -> int:
        return self.space.topology_bits

    def repair(self, bits: np.ndarray, rng) -> np.ndarray:
        return bits

    def decode(self, bits_str: str):
        topology = decode_topology(genome_mod.string_to_bits(bits_str), self.space)
        return None, self.fixed_feature_count, topology


def evaluate(genome_bits, splits: DatasetSplits, cfg: EvalConfig,
             space: SearchSpaceConfig = SearchSpaceConfig()) -> ObjectiveVector:
    """One-off evaluation of a single genome (no cache reuse)."""
    return CoevolutionProblem(splits, space, cfg).evaluate(genome_bits).objectives


@dataclass
class ScalarizedConfig:
    """Preference weights and epsilon-constraint thresholds for the scalar objective."""

    theta_e: float = 0.5
    theta_c: float = 0.5
    eps1: float = 0.05
    eps2: float = 0.05
    eps3: float = 0.50

    def __post_init__(self):
        if self.theta_e < 0 or self.theta_c < 0:
            raise ValueError("preference weights must be nonnegative")
        if not (-1 <= self.eps1 <= 1 and -1 <= self.eps2 <= 1 and 0 <= self.eps3 <= 1):
            raise ValueError("epsilon thresholds out of range")


def penalty(record: EvalRecord, cfg: ScalarizedConfig) -> float:
    return 5.0 * (
        max(0.0, cfg.eps1 - record.test_mcc)
        + max(0.0, cfg.eps2 - record.pr_mcc)
        + max(0.0, record.pr_error_rate - cfg.eps3)
    )


def scalarized_value(record: EvalRecord, cfg: ScalarizedConfig) -> float:
    return (cfg.theta_e * record.test_error_rate
            + cfg.theta_c * record.objectives.c
            + penalty(record, cfg))
