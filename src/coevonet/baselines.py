"""Comparison pipelines: filter/PCA reduction with rule-of-thumb topologies,
reduced splits for the topology-only search over a frozen feature subset,
and a scalarized single-objective co-evolution GA.

Feature filters work on ``BINS``-bin equal-frequency discretized columns.
mRmR greedily maximizes label relevance minus mean redundancy (both discrete
mutual information); CFS runs a best-first search over Hall's merit with
symmetrical uncertainty as the correlation, stopping after ``CFS_MAX_STALE``
consecutive non-improving expansions. Both score each feature pair once.

The six rules of thumb (Kolmogorov, Hush, Wang, Ripley, Fletcher-Goss and
Huang) are one table, ``RULES``, from the input, class and training-pattern
counts to the sizes of up to two hidden layers.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import moea
from .market_data import DatasetSplits, PatternSet
from .objectives import CoevolutionProblem, scalarized_value

logger = logging.getLogger(__name__)


class BaselineError(ValueError):
    pass


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray            # d x n_features, rows ordered by eigenvalue
    explained_variance_ratio: np.ndarray

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) @ self.components.T


def pca_reduce(train_x: np.ndarray, variance_target: float) -> PcaModel:
    """Principal components of the training matrix only: the fewest whose cumulative
    variance share reaches ``variance_target`` (``fit_reduction`` passes
    ``PCA_VARIANCE_TARGET`` by default), at most the matrix rank and at least one."""
    x = np.asarray(train_x, dtype=float)
    mean = x.mean(axis=0)
    u, s, vt = np.linalg.svd(x - mean, full_matrices=False)
    var = s ** 2
    total = var.sum()
    ratio = var / total if total > 0 else np.zeros_like(var)
    rank = int((s > s[0] * 1e-12).sum()) if s.size and s[0] > 0 else 0
    d = min(int(np.searchsorted(np.cumsum(ratio), variance_target) + 1), rank if rank else 1)
    return PcaModel(mean=mean, components=vt[:d], explained_variance_ratio=ratio[:d])


# ---------------------------------------------------------------------------
# discretization, mutual information, filters
# ---------------------------------------------------------------------------

BINS = 10           # equal-frequency bins of every discretized column
CFS_MAX_STALE = 5   # consecutive non-improving expansions after which CFS stops


def discretize_equal_frequency(column: np.ndarray) -> np.ndarray:
    """Integer codes from ``BINS`` equal-frequency bins (duplicate edges collapsed)."""
    qs = np.quantile(column, np.linspace(0, 1, BINS + 1)[1:-1])
    edges = np.unique(qs)
    return np.searchsorted(edges, column, side="right").astype(np.int64)


def mutual_information(a_codes: np.ndarray, b_codes: np.ndarray) -> float:
    """Discrete MI in nats from the joint empirical distribution."""
    n = len(a_codes)
    joint = {}
    for key in zip(a_codes.tolist(), b_codes.tolist()):
        joint[key] = joint.get(key, 0) + 1
    pa, pb = {}, {}
    for (a, b), c in joint.items():
        pa[a] = pa.get(a, 0) + c
        pb[b] = pb.get(b, 0) + c
    mi = 0.0
    for (a, b), c in joint.items():
        mi += (c / n) * math.log(c * n / (pa[a] * pb[b]))
    return max(mi, 0.0)


def entropy(codes: np.ndarray) -> float:
    _, counts = np.unique(codes, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def symmetrical_uncertainty(a_codes: np.ndarray, b_codes: np.ndarray) -> float:
    ha, hb = entropy(a_codes), entropy(b_codes)
    if ha + hb == 0:
        return 0.0
    return 2.0 * mutual_information(a_codes, b_codes) / (ha + hb)


@dataclass
class ReductionResult:
    method: str
    feature_indices: tuple[int, ...] | None = None
    pca: PcaModel | None = None
    score_trace: tuple[float, ...] = ()

    @property
    def n_retained(self) -> int:
        if self.feature_indices is not None:
            return len(self.feature_indices)
        return self.pca.n_components

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.pca is not None:
            return self.pca.transform(x)
        return x[:, list(self.feature_indices)]

    def to_json_dict(self) -> dict:
        d = {"method": self.method, "n_retained": self.n_retained,
             "score_trace": list(self.score_trace)}
        if self.feature_indices is not None:
            d["feature_indices"] = list(self.feature_indices)
        else:
            d["explained_variance_ratio"] = self.pca.explained_variance_ratio.tolist()
        return d


def _pair_cache(score, codes: list[np.ndarray]):
    """``score`` of two columns by index, each unordered pair computed once."""
    cache: dict[tuple[int, int], float] = {}

    def pair(i: int, j: int) -> float:
        key = (min(i, j), max(i, j))
        if key not in cache:
            cache[key] = score(codes[i], codes[j])
        return cache[key]

    return pair


def mrmr_select(train_x: np.ndarray, labels: np.ndarray, k: int) -> ReductionResult:
    """Greedy forward relevance-minus-mean-redundancy selection."""
    n_features = train_x.shape[1]
    if not 1 <= k <= n_features:
        raise BaselineError(f"k={k} outside [1, {n_features}]")
    codes = [discretize_equal_frequency(column) for column in train_x.T]
    y = np.asarray(labels)
    relevance = np.array([mutual_information(c, y) for c in codes])
    selected = [int(np.argmax(relevance))]
    trace = [float(relevance[selected[0]])]
    redundancy = _pair_cache(mutual_information, codes)
    while len(selected) < k:
        best_j, best_score = -1, -math.inf
        for j in range(n_features):
            if j in selected:
                continue
            score = relevance[j] - sum(redundancy(j, s) for s in selected) / len(selected)
            if score > best_score:
                best_j, best_score = j, score
        selected.append(best_j)
        trace.append(float(best_score))
    return ReductionResult("mRmR", tuple(selected), score_trace=tuple(trace))


def cfs_merit(subset, su_fc: np.ndarray, su_ff) -> float:
    k = len(subset)
    mean_fc = float(np.mean([su_fc[j] for j in subset]))
    if k == 1:
        return mean_fc
    pair_sum = sum(su_ff(i, j) for a, i in enumerate(subset) for j in subset[a + 1:])
    mean_ff = 2.0 * pair_sum / (k * (k - 1))
    return k * mean_fc / math.sqrt(k + k * (k - 1) * mean_ff)


def cfs_select(train_x: np.ndarray, labels: np.ndarray) -> ReductionResult:
    """Best-first search over Hall's merit; stops after ``CFS_MAX_STALE`` stale expansions."""
    n_features = train_x.shape[1]
    codes = [discretize_equal_frequency(column) for column in train_x.T]
    y = np.asarray(labels)
    su_fc = np.array([symmetrical_uncertainty(c, y) for c in codes])
    su_ff = _pair_cache(symmetrical_uncertainty, codes)
    start = (int(np.argmax(su_fc)),)
    best_subset, best_merit = start, cfs_merit(start, su_fc, su_ff)
    open_list = [(best_merit, start)]
    visited = {start}
    stale = 0
    trace = [best_merit]
    while open_list and stale < CFS_MAX_STALE:
        open_list.sort(key=lambda kv: kv[0])
        merit, subset = open_list.pop()
        improved = False
        for j in range(n_features):
            if j in subset:
                continue
            cand = tuple(sorted(subset + (j,)))
            if cand in visited:
                continue
            visited.add(cand)
            m = cfs_merit(cand, su_fc, su_ff)
            open_list.append((m, cand))
            if m > best_merit:
                best_subset, best_merit = cand, m
                trace.append(m)
                improved = True
        stale = 0 if improved else stale + 1
    return ReductionResult("CFS", tuple(best_subset), score_trace=tuple(trace))


#: Reduction methods of ``fit_reduction``, and PCA's default variance target.
REDUCTIONS = ("mrmr", "cfs", "pca")
PCA_VARIANCE_TARGET = 0.9999


def fit_reduction(method: str, train: PatternSet, k: int,
                  variance_target: float = PCA_VARIANCE_TARGET) -> ReductionResult:
    """Fit a named a-priori reduction on the training split.

    ``k`` is the mRmR subset size; ``variance_target`` is PCA's retained
    variance share. CFS sizes its own subset.
    """
    if method == "mrmr":
        return mrmr_select(train.features, train.labels, k)
    if method == "cfs":
        return cfs_select(train.features, train.labels)
    if method == "pca":
        return ReductionResult("PCA", pca=pca_reduce(train.features, variance_target))
    raise BaselineError(f"unknown reduction {method!r}; choose from {REDUCTIONS}")


# ---------------------------------------------------------------------------
# rules of thumb
# ---------------------------------------------------------------------------

def _round_half_away(x: float) -> int:
    """Nearest integer, halves away from zero; every rule's argument is positive."""
    return int(math.floor(x + 0.5))


#: Hidden-layer sizes (s1, s2) of each rule of thumb from the input count d,
#: the class count m and the training-pattern count n; s2 = 0 means no second
#: layer. The order is the row order of ``rules.csv``.
RULES = {
    "kolmogorov": lambda d, m, n: (2 * d + 1, 0),
    "hush": lambda d, m, n: (_round_half_away(4.0 * d), _round_half_away(2.0 * m)),
    "wang": lambda d, m, n: (_round_half_away(2.0 * d / 3.0), 0),
    "ripley": lambda d, m, n: (_round_half_away((d + m) / 2.0), 0),
    "fletcher_goss": lambda d, m, n: (_round_half_away(2.0 * math.sqrt(d) + m), 0),
    "huang": lambda d, m, n: (
        _round_half_away(math.sqrt((m + 2) * n) + 2.0 * math.sqrt(n / (m + 2))),
        _round_half_away(m * math.sqrt(n / (m + 2)))),
}


def rule_of_thumb(rule: str, n_features: int, n_classes: int, n_train: int) -> tuple[int, int]:
    """Hidden-layer sizes (s1, s2) of the rule of thumb named ``rule`` in ``RULES``."""
    if rule not in RULES:
        raise BaselineError(f"unknown rule {rule!r}; choose from {tuple(RULES)}")
    if min(n_features, n_classes, n_train) < 1:
        raise BaselineError(f"rule {rule!r} needs counts of at least 1, got n_features="
                            f"{n_features}, n_classes={n_classes}, n_train={n_train}")
    return RULES[rule](n_features, n_classes, n_train)


# ---------------------------------------------------------------------------
# reduced splits and searches
# ---------------------------------------------------------------------------

def reduce_splits(splits: DatasetSplits, reduction: ReductionResult) -> DatasetSplits:
    """Apply a fitted reduction to every split (hold stays sealed)."""
    return splits.map(reduction.apply)


@dataclass
class ScalarizedTracePoint:
    generation: int
    evaluations: int
    best_value: float

    @staticmethod
    def csv_header() -> list[str]:
        return ["generation", "evaluations", "best_scalarized"]

    def csv_row(self) -> list:
        return [self.generation, self.evaluations, repr(float(self.best_value))]


def scalarized_search(problem: CoevolutionProblem, weights: tuple[float, float],
                      population: int, max_evaluations: int,
                      seed: int) -> tuple[moea.ParetoArchive, list[ScalarizedTracePoint]]:
    """Single-objective elitist GA over the co-evolution genome.

    Uses the same offspring pipeline and budget check as the multi-objective
    engine, with binary tournament selection on the scalarized value under
    ``weights`` (theta_e, theta_c). The archive holds the best genome; the
    trace its value per generation.
    """
    rng = np.random.default_rng(seed)
    cap = max_evaluations

    evaluated, exhausted = moea._evaluate_batch(
        problem, [moea._random_genome(problem, rng) for _ in range(population)], cap)
    pop = [bits_str for bits_str, _ in evaluated]
    values = {b: scalarized_value(record, *weights) for b, record in evaluated}

    def pick_parent():
        a, b = rng.choice(len(pop), size=2)
        pa, pb = pop[a], pop[b]
        return pa if (values[pa], pa) <= (values[pb], pb) else pb

    best_bits = min(pop, key=lambda b: (values[b], b))
    trace = [ScalarizedTracePoint(0, problem.fe_count, values[best_bits])]
    gen = 0
    while not exhausted and problem.fe_count < cap:
        gen += 1
        offspring = moea._make_offspring(pick_parent, problem, population, rng)
        evaluated, exhausted = moea._evaluate_batch(problem, offspring, cap)
        for bits_str, record in evaluated:
            if bits_str not in values:
                values[bits_str] = scalarized_value(record, *weights)
                pop.append(bits_str)
        # elitist truncation back to the population size
        pop = sorted(set(pop), key=lambda b: (values[b], b))[:population]
        best_bits = pop[0]
        trace.append(ScalarizedTracePoint(gen, problem.fe_count, values[best_bits]))
    logger.info("scalarized GA: %d generations, %d evaluations, best %.4f",
                gen, problem.fe_count, values[best_bits])
    archive = moea.ParetoArchive()
    archive.add(best_bits, problem.cache[best_bits].objectives)
    return archive, trace


#: The three preference scenarios of the scalarized baseline: (theta_e, theta_c).
SCALARIZED_SCENARIOS = {
    "efficacy": (0.75, 0.25),
    "balanced": (0.50, 0.50),
    "complexity": (0.25, 0.75),
}
