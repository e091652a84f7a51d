"""Comparison pipelines: filter/PCA reduction with rule-of-thumb topologies,
reduced splits for the topology-only search over a frozen feature subset,
and a scalarized single-objective co-evolution GA.

Feature filters work on 10-bin equal-frequency discretized columns. mRmR
greedily maximizes label relevance minus mean redundancy (both discrete
mutual information); CFS runs a best-first search over Hall's merit with
symmetrical uncertainty as the correlation, stopping after five consecutive
non-improving expansions.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import moea
from .genome import string_to_bits
from .market_data import DatasetSplits, PatternSet
from .moea import Nsga2Config
from .objectives import CoevolutionProblem, ScalarizedConfig, scalarized_value

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

    def inverse_transform(self, z: np.ndarray) -> np.ndarray:
        return z @ self.components + self.mean


def pca_reduce(train_x: np.ndarray, n_components: int | None = None,
               variance_target: float | None = None) -> PcaModel:
    """Fit principal components on the training matrix only."""
    if (n_components is None) == (variance_target is None):
        raise BaselineError("specify exactly one of n_components / variance_target")
    x = np.asarray(train_x, dtype=float)
    mean = x.mean(axis=0)
    u, s, vt = np.linalg.svd(x - mean, full_matrices=False)
    var = s ** 2
    total = var.sum()
    ratio = var / total if total > 0 else np.zeros_like(var)
    rank = int((s > s[0] * 1e-12).sum()) if s.size and s[0] > 0 else 0
    if n_components is not None:
        if n_components < 1:
            raise BaselineError("n_components must be positive")
        d = min(n_components, rank)
        if d < n_components:
            logger.warning("pca: rank-deficient input, returning %d of %d requested components",
                           d, n_components)
    else:
        cum = np.cumsum(ratio)
        d = int(np.searchsorted(cum, variance_target) + 1)
        d = min(d, rank if rank else 1)
    return PcaModel(mean=mean, components=vt[:d], explained_variance_ratio=ratio[:d])


# ---------------------------------------------------------------------------
# discretization, mutual information, filters
# ---------------------------------------------------------------------------

def discretize_equal_frequency(column: np.ndarray, bins: int = 10) -> np.ndarray:
    """Integer codes from equal-frequency binning (duplicate edges collapsed)."""
    qs = np.quantile(column, np.linspace(0, 1, bins + 1)[1:-1])
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
        return len(self.feature_indices) if self.feature_indices is not None else self.pca.n_components

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


def _discretize_matrix(x: np.ndarray, bins: int = 10) -> list[np.ndarray]:
    return [discretize_equal_frequency(x[:, j], bins) for j in range(x.shape[1])]


def mrmr_select(train_x: np.ndarray, labels: np.ndarray, k: int,
                bins: int = 10) -> ReductionResult:
    """Greedy forward relevance-minus-mean-redundancy selection."""
    n_features = train_x.shape[1]
    if not 1 <= k <= n_features:
        raise BaselineError(f"k={k} outside [1, {n_features}]")
    codes = _discretize_matrix(train_x, bins)
    y = np.asarray(labels)
    relevance = np.array([mutual_information(c, y) for c in codes])
    selected = [int(np.argmax(relevance))]
    trace = [float(relevance[selected[0]])]
    redundancy_cache: dict[tuple[int, int], float] = {}

    def redundancy(i: int, j: int) -> float:
        key = (min(i, j), max(i, j))
        if key not in redundancy_cache:
            redundancy_cache[key] = mutual_information(codes[i], codes[j])
        return redundancy_cache[key]

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


def cfs_select(train_x: np.ndarray, labels: np.ndarray, bins: int = 10,
               max_stale: int = 5) -> ReductionResult:
    """Best-first forward search over Hall's merit; stops after 5 stale expansions."""
    n_features = train_x.shape[1]
    codes = _discretize_matrix(train_x, bins)
    y = np.asarray(labels)
    su_fc = np.array([symmetrical_uncertainty(c, y) for c in codes])
    ff_cache: dict[tuple[int, int], float] = {}

    def su_ff(i: int, j: int) -> float:
        key = (min(i, j), max(i, j))
        if key not in ff_cache:
            ff_cache[key] = symmetrical_uncertainty(codes[i], codes[j])
        return ff_cache[key]

    start = (int(np.argmax(su_fc)),)
    best_subset, best_merit = start, cfs_merit(start, su_fc, su_ff)
    open_list = [(best_merit, start)]
    visited = {start}
    stale = 0
    trace = [best_merit]
    while open_list and stale < max_stale:
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
        return ReductionResult("PCA", pca=pca_reduce(train.features,
                                                      variance_target=variance_target))
    raise BaselineError(f"unknown reduction {method!r}; choose from {REDUCTIONS}")


# ---------------------------------------------------------------------------
# rules of thumb
# ---------------------------------------------------------------------------

def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


HUSH_C1 = 4.0
HUSH_C2 = 2.0

RULE_NAMES = ("kolmogorov", "hush", "wang", "ripley", "fletcher_goss", "huang")


def rule_of_thumb(rule: str, n_features: int | None = None, n_classes: int | None = None,
                  n_train: int | None = None) -> tuple[int, int]:
    """Hidden-layer sizes (s1, s2) from a named closed-form heuristic.

    All formulas round to the nearest integer, half away from zero.
    """
    rule = rule.lower().replace("-", "_")

    def need(value, name):
        if value is None or value <= 0:
            raise BaselineError(f"rule {rule!r} needs positive {name}, got {value}")
        return value

    if rule == "kolmogorov":
        return (2 * need(n_features, "n_features") + 1, 0)
    if rule == "hush":
        return (_round_half_away(HUSH_C1 * need(n_features, "n_features")),
                _round_half_away(HUSH_C2 * need(n_classes, "n_classes")))
    if rule == "wang":
        return (_round_half_away(2.0 * need(n_features, "n_features") / 3.0), 0)
    if rule == "ripley":
        return (_round_half_away((need(n_features, "n_features") + need(n_classes, "n_classes")) / 2.0), 0)
    if rule == "fletcher_goss":
        return (_round_half_away(2.0 * math.sqrt(need(n_features, "n_features"))
                                 + need(n_classes, "n_classes")), 0)
    if rule == "huang":
        m = need(n_classes, "n_classes")
        n = need(n_train, "n_train")
        s1 = _round_half_away(math.sqrt((m + 2) * n) + 2.0 * math.sqrt(n / (m + 2)))
        s2 = _round_half_away(m * math.sqrt(n / (m + 2)))
        return (s1, s2)
    raise BaselineError(f"unknown rule {rule!r}; choose from {RULE_NAMES}")


# ---------------------------------------------------------------------------
# reduced splits and searches
# ---------------------------------------------------------------------------

def reduce_splits(splits: DatasetSplits, reduction: ReductionResult) -> DatasetSplits:
    """Apply a fitted reduction to every split (hold stays sealed)."""
    def conv(ps: PatternSet) -> PatternSet:
        return ps.with_features(reduction.apply(ps._features))

    return DatasetSplits(
        d_pr=conv(splits.d_pr), d_train=conv(splits.d_train),
        d_test=conv(splits.d_test), d_hold=conv(splits.d_hold),
        spec=splits.spec,
    )


@dataclass
class ScalarizedTracePoint:
    generation: int
    evaluations: int
    best_value: float


def scalarized_search(problem: CoevolutionProblem, scalar_cfg: ScalarizedConfig,
                      ga_cfg: Nsga2Config) -> tuple[moea.ParetoArchive, list[ScalarizedTracePoint]]:
    """Single-objective elitist GA over the co-evolution genome.

    Uses the same offspring pipeline and budget check as the multi-objective
    engine, with binary tournament selection on the scalarized value. The
    archive holds the best genome; the trace its value per generation.
    """
    rng = np.random.default_rng(ga_cfg.seed)
    cap = ga_cfg.max_evaluations

    evaluated, exhausted = moea._evaluate_batch(
        problem, [moea._random_genome(problem, rng) for _ in range(ga_cfg.population)], cap)
    pop = [bits_str for bits_str, _ in evaluated]
    values = {b: scalarized_value(record, scalar_cfg) for b, record in evaluated}

    def pick_parent():
        a, b = rng.choice(len(pop), size=2)
        pa, pb = pop[a], pop[b]
        return string_to_bits(pa if (values[pa], pa) <= (values[pb], pb) else pb)

    best_bits = min(pop, key=lambda b: (values[b], b))
    trace = [ScalarizedTracePoint(0, problem.fe_count, values[best_bits])]
    gen = 0
    while not exhausted and problem.fe_count < cap:
        gen += 1
        offspring = moea._make_offspring(pick_parent, problem, ga_cfg, rng)
        evaluated, exhausted = moea._evaluate_batch(problem, offspring, cap)
        for bits_str, record in evaluated:
            if bits_str not in values:
                values[bits_str] = scalarized_value(record, scalar_cfg)
                pop.append(bits_str)
        # elitist truncation back to the population size
        pop = sorted(set(pop), key=lambda b: (values[b], b))[:ga_cfg.population]
        best_bits = pop[0]
        trace.append(ScalarizedTracePoint(gen, problem.fe_count, values[best_bits]))
    logger.info("scalarized GA: %d generations, %d evaluations, best %.4f",
                gen, problem.fe_count, values[best_bits])
    archive = moea.ParetoArchive()
    archive.add(best_bits, problem.cache[best_bits].objectives)
    return archive, trace


#: The three preference scenarios used with the scalarized baseline.
SCALARIZED_SCENARIOS = {
    "efficacy": ScalarizedConfig(theta_e=0.75, theta_c=0.25),
    "balanced": ScalarizedConfig(theta_e=0.50, theta_c=0.50),
    "complexity": ScalarizedConfig(theta_e=0.25, theta_c=0.75),
}
