"""Candidate evaluation: decode, train over repeated cycles, score objectives.

Evaluating a genome yields the minimization vector (e_cv, c, e_pr): balanced
error on the within-regime test window, architectural complexity, and
balanced error on the earlier-regime window. Weight estimation repeats over
``cycles`` independently seeded trainings and the errors are cycle means;
cycle k of genome g is seeded by hash(master_seed, bits, k), so re-evaluation
is reproducible and results can be cached by bit string (the genome itself).

Evaluation has one path: queue, then collect. ``start`` takes a batch of
genomes and decodes each fresh one once; given the worker processes of
``training_workers``, it also queues every cycle of the genome on them, as a
future of its minimization. ``evaluate`` runs once per genome, in the
caller's order, on the caller's thread: it starts the genome if nothing did,
then collects its cycles in cycle order through ``neural.scg_train``, which
takes a cycle's future or, without workers, trains inline, and scores each
model in this process. Each cycle's seed depends only on (master seed, bits,
k), so a record does not depend on the workers or the core count, and the
cache and the FE count behave the same. The baseline's and the hold-out's
trainings take the same path: ``queue_trainings``, then ``neural.scg_train``.

The scalarized single-objective variant combines overall test error and
complexity under the preference weights ``theta_e`` and ``theta_c``, plus a
5x epsilon-constraint penalty on test/pre-regime correlation (MCC) and
pre-regime error, at the thresholds ``EPS_TEST_MCC``, ``EPS_PR_MCC`` and
``EPS_PR_ERROR``.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import logging
import os
import signal
import sys
from dataclasses import dataclass

import numpy as np

from . import genome as genome_mod
from . import neural
from .genome import TOPOLOGY_BITS, decode_topology, repair_feature_prefix
from .market_data import DatasetSplits, PatternSet

logger = logging.getLogger(__name__)


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
    c = neural.confusion(neural.predict(model, patterns.inputs(columns)), patterns.labels)
    return neural.accuracy(c), neural.mcc(c), neural.balanced_error(c)


def usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity on this platform
        return os.cpu_count() or 1


_PR_SET_PDEATHSIG = 1     # from <linux/prctl.h>


def _end_with_parent(parent_pid: int) -> None:
    """Worker initializer: on Linux, the worker is killed when its parent ends.

    A step killed before it could join its workers would otherwise leave
    them waiting for work forever.
    """
    if not sys.platform.startswith("linux"):
        return
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0 or os.getppid() != parent_pid:
        os._exit(1)     # could not tie this worker to its parent, or the parent is gone


@contextlib.contextmanager
def training_workers(trainings: int):
    """A pool of worker processes, one per usable core, or None for a single training.

    ``trainings`` counts the trainings that make one result: a genome's
    cycles, a hold-out's cycles or a baseline's rules. Below 2 nothing forks
    and the trainings run inline, as measured on 2 cores: a one-cycle
    ``holdout-eval`` took 0.30 s inline against 0.34 s pooled, and EAGD's
    200-genome initial batch of 3-iteration trainings 0.63 s inline against
    0.74-0.90 s pooled, since each ~3 ms job waits for the pool while the
    engine scores. A step enters the block only after every refusal.

    Entering forks every worker at once; a forked worker inherits the loaded
    program, its data and the caller's warning filters. Leaving the ``with``
    block cancels what has not started and joins every worker. On Linux a
    worker also ends when the thread that entered the block does, so enter
    it on the thread that uses it.
    """
    if trainings < 2:
        yield None
        return
    # imported here: they add ~16 ms and 2 MB to every step that forks no worker
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(usable_cores(), mp_context=multiprocessing.get_context("fork"),
                               initializer=_end_with_parent, initargs=(os.getpid(),))
    try:
        pool.submit(int).result()    # a fork pool forks every worker at once
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _minimize_cycle(d_train: PatternSet, max_iter: int, topology, columns, seed: int):
    """``neural._minimize`` of one cycle, slicing its inputs where it runs; picklable."""
    return neural._minimize(topology, d_train.inputs(columns), d_train.labels, max_iter, seed)


def queue_trainings(workers, d_train: PatternSet, max_iter: int, jobs) -> list:
    """The future on ``workers`` of each (topology, columns, seed) of ``jobs``, or None each
    without workers; ``neural.scg_train(..., minimized=)`` collects it or trains inline.
    Identical jobs of one call share one future, so each distinct job trains once."""
    futures = {}
    for job in jobs:
        if workers is not None and job not in futures:
            futures[job] = workers.submit(_minimize_cycle, d_train, max_iter, *job)
    return [futures.get(job) for job in jobs]


def _record(c: float, rows) -> EvalRecord:
    """The record of a genome of complexity ``c`` from its per-cycle score rows.

    Each score's cycles form one contiguous row, so its mean sums them as
    ``np.mean`` of that score's list does; accuracies become error rates first.
    """
    scores = np.array(list(zip(*rows)))
    scores[0::3] = 1.0 - scores[0::3]
    test_err, test_mcc, e_cv, pr_err, pr_mcc, e_pr = scores.mean(axis=1).tolist()
    return EvalRecord(objectives=ObjectiveVector(e_cv=e_cv, c=c, e_pr=e_pr),
                      test_error_rate=test_err, pr_error_rate=pr_err,
                      test_mcc=test_mcc, pr_mcc=pr_mcc)


class _EvaluationProblem:
    """Shared machinery: bitstring cache, FE accounting, and the loop of a
    genome's ``cycles`` trainings of ``max_iter`` SCG iterations each.

    ``workers``, the pool of ``training_workers``, minimizes the cycles when given.
    """

    def __init__(self, splits: DatasetSplits, cycles: int, max_iter: int, master_seed: int,
                 workers=None):
        self.splits = splits
        self.cycles = cycles
        self.max_iter = max_iter
        self.master_seed = master_seed
        self.cache: dict[str, EvalRecord] = {}
        self.fe_count = 0
        self.cache_hits = 0
        self._workers = workers
        # bits -> (columns, complexity, topology, [(seed, future or None) per cycle])
        self._started: dict[str, tuple] = {}

    # subclasses define n_features (the data columns that complexity charges
    # against), n_bits, repair(bits, rng) and decode(bits_str), which returns
    # (input columns or None for all, input count, topology)

    def describe(self, bits_str: str) -> dict:
        """The architecture record of a genome, as every artifact stores it.

        ``feature_indices`` are catalog positions, or None when the inputs
        were fixed a priori; ``n_inputs`` counts the network's inputs.
        """
        columns, n_inputs, topology = self.decode(bits_str)
        return {"feature_indices": None if columns is None else list(columns),
                "n_inputs": n_inputs,
                "layers": [[size, act.value] for size, act in topology.layers]}

    def start(self, genomes) -> None:
        """Decode the fresh genomes among ``genomes`` (bit strings), once each.

        With workers, every cycle of such a genome is queued on them
        (``queue_trainings``).
        """
        for bits_str in genomes:
            if bits_str in self.cache or bits_str in self._started:
                continue
            columns, n_inputs, topology = self.decode(bits_str)
            seeds = [cycle_seed(self.master_seed, bits_str, k) for k in range(1, self.cycles + 1)]
            futures = queue_trainings(self._workers, self.splits.d_train, self.max_iter,
                                      [(topology, columns, seed) for seed in seeds])
            c = genome_mod.complexity_of(n_inputs, topology, self.n_features)
            self._started[bits_str] = columns, c, topology, list(zip(seeds, futures))

    def evaluate(self, bits_str: str) -> EvalRecord:
        """The genome's record; a cycle's row is ``split_scores`` on d_test, then on d_pr."""
        hit = self.cache.get(bits_str)
        if hit is not None:
            self.cache_hits += 1
            return hit
        self.start([bits_str])
        columns, c, topology, cycles = self._started.pop(bits_str)
        train = self.splits.d_train
        x_train = train.inputs(columns)
        rows = []
        for k, (seed, minimized) in enumerate(cycles, start=1):
            model = neural.scg_train(topology, x_train, train.labels, self.max_iter, seed,
                                     minimized=minimized)
            if model.aborted:
                logger.warning("cycle %d aborted for genome %s; worst-case errors assigned",
                               k, bits_str[:16])
                rows.append(_ABORTED_CYCLE)
            else:
                rows.append(split_scores(model, self.splits.d_test, columns)
                            + split_scores(model, self.splits.d_pr, columns))
        record = _record(c, rows)
        self.fe_count += 1
        self.cache[bits_str] = record
        return record


class CoevolutionProblem(_EvaluationProblem):
    """Full genome: a feature-subset prefix, one bit per data column, then hidden-layer blocks."""

    @property
    def n_features(self) -> int:
        return self.splits.d_train.n_features

    @property
    def n_bits(self) -> int:
        return self.n_features + TOPOLOGY_BITS

    def repair(self, bits: np.ndarray, rng) -> np.ndarray:
        return repair_feature_prefix(bits, self.n_features, rng)

    def decode(self, bits_str: str):
        arch = genome_mod.decode(bits_str, self.n_features)
        return arch.feature_indices, len(arch.feature_indices), arch.topology


class TopologyOnlyProblem(_EvaluationProblem):
    """Topology bits only; the feature subset was fixed a priori.

    ``splits`` must already be restricted (or projected) to the fixed inputs;
    complexity charges their count against ``n_features``, the column count
    of the data before the reduction.
    """

    n_bits = TOPOLOGY_BITS

    def __init__(self, splits: DatasetSplits, n_features: int, cycles: int, max_iter: int,
                 master_seed: int, workers=None):
        super().__init__(splits, cycles, max_iter, master_seed, workers)
        self.n_features = n_features

    def repair(self, bits: np.ndarray, rng) -> np.ndarray:
        return bits

    def decode(self, bits_str: str):
        return None, self.splits.d_train.n_features, decode_topology(bits_str)


#: Epsilon thresholds: the least test and earlier-regime MCC, the most earlier-regime error.
EPS_TEST_MCC = 0.05
EPS_PR_MCC = 0.05
EPS_PR_ERROR = 0.50


def penalty(record: EvalRecord) -> float:
    return 5.0 * (
        max(0.0, EPS_TEST_MCC - record.test_mcc)
        + max(0.0, EPS_PR_MCC - record.pr_mcc)
        + max(0.0, record.pr_error_rate - EPS_PR_ERROR)
    )


def scalarized_value(record: EvalRecord, theta_e: float, theta_c: float) -> float:
    return theta_e * record.test_error_rate + theta_c * record.objectives.c + penalty(record)
