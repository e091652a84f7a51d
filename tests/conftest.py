import functools

import numpy as np
import pytest

from coevonet import moea
from coevonet.genome import string_to_bits
from coevonet.market_data import DatasetSplits, OhlcvSeries, PatternSet, SplitSpec
from coevonet.objectives import CoevolutionProblem, EvalRecord, ObjectiveVector


#: ``search`` flags of a tiny two-run search per --algo; topology-only under
#: both a-priori reductions.
TINY_SEARCHES = {
    name: [*flags, "--fe", "6", "--population", "4", "--cycles", "1", "--scg-iters", "10",
           "--runs", "2"]
    for name, flags in {
        "nsga2": ["--algo", "nsga2"],
        "eagd": ["--algo", "eagd"],
        "scalarized": ["--algo", "scalarized"],
        "random": ["--algo", "random"],
        "topology-only-mrmr": ["--algo", "topology-only", "--reduction", "mrmr",
                               "--reduction-k", "5"],
        "topology-only-pca": ["--algo", "topology-only", "--reduction", "pca"],
    }.items()
}


def random_walk_series(n_bars, seed, start="2017-01-02", vol=0.012):
    """Plain random-walk OHLCV series on consecutive weekdays."""
    rng = np.random.default_rng(seed)
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, vol, n_bars)))
    opens = np.empty(n_bars)
    opens[0] = closes[0]
    opens[1:] = closes[:-1] * np.exp(rng.normal(0, vol / 3, n_bars - 1))
    highs = np.maximum(opens, closes) * np.exp(np.abs(rng.normal(0, vol / 2, n_bars)))
    lows = np.minimum(opens, closes) * np.exp(-np.abs(rng.normal(0, vol / 2, n_bars)))
    volumes = np.round(1e6 * np.exp(rng.normal(0, 0.3, n_bars)))
    days = np.arange(np.datetime64(start), np.datetime64(start) + 2 * n_bars)
    days = days[(days.astype("datetime64[D]").astype(int) - 4) % 7 < 5][:n_bars]
    return OhlcvSeries(days, opens, highs, lows, closes, volumes)


def truncated(series, n_bars):
    """The first ``n_bars`` bars of ``series`` as a new series."""
    return OhlcvSeries(series.dates[:n_bars], series.open[:n_bars], series.high[:n_bars],
                       series.low[:n_bars], series.close[:n_bars], series.volume[:n_bars])


@functools.cache
def _problem_over(n_features):
    return CoevolutionProblem(make_planted_splits(n_features), cycles=1, max_iter=0,
                              master_seed=0)     # draws genomes only: never trains


def random_genome(n_features, rng):
    """A uniform co-evolution genome over ``n_features`` data columns, drawn and
    repaired as the engines draw one."""
    return moea._random_genome(_problem_over(n_features), rng)


def evaluate(genome, splits, **training):
    """Objectives of one genome on a fresh problem (no cache reuse); ``training``
    holds the problem's ``cycles``, ``max_iter`` and ``master_seed``."""
    return CoevolutionProblem(splits, **training).evaluate(genome).objectives


def objective_matrix(archive):
    """(n, 3) objective rows of an archive's members, in member order."""
    return np.array([obj.as_tuple() for _, obj in archive.members()]).reshape(-1, 3)


def is_dominance_fixed_point(archive):
    """No member of the archive dominates another."""
    return not moea._dominance_matrix(objective_matrix(archive)).any()


def make_planted_splits(n_features=8, n_informative=1, n_train=120, n_other=80,
                        seed=0, flip=0.0):
    """Tiny splits where label = sign of the first informative feature(s)."""
    rng = np.random.default_rng(seed)

    def block(n, day0):
        x = rng.normal(size=(n, n_features))
        score = x[:, :n_informative].sum(axis=1)
        y = (score > 0).astype(int)
        if flip > 0:
            flips = rng.random(n) < flip
            y[flips] = 1 - y[flips]
        days = np.arange(np.datetime64(day0), np.datetime64(day0) + n)
        return PatternSet(x, y, days)

    spec = SplitSpec.from_boundaries(
        np.datetime64("2019-01-01").astype(object), np.datetime64("2019-06-01").astype(object),
        np.datetime64("2020-01-01").astype(object), np.datetime64("2020-06-01").astype(object),
        np.datetime64("2021-01-01").astype(object))
    return DatasetSplits(
        d_pr=block(n_other, "2019-01-01"),
        d_train=block(n_train, "2019-06-01"),
        d_test=block(n_other, "2020-01-01"),
        d_hold=PatternSet(*_arrays(block(n_other, "2020-06-01")), sealed=True),
        spec=spec,
    )


def _arrays(ps: PatternSet):
    return ps._features, ps._labels, ps._dates


class MockProblem:
    """Cheap 3-objective problem over 28 bits for engine-level tests.

    Two 2-bit blocks set a coarse trade-off position; the remaining 24 bits
    form a distance term every objective wants at zero, so uniform sampling
    sits far from the best front and selection pressure pays off.
    """

    def __init__(self):
        self.n_bits = 28
        self.cache = {}
        self.fe_count = 0
        self.cache_hits = 0

    def repair(self, bits, rng):
        return bits

    def start(self, genomes):
        pass        # evaluation is instant: nothing to queue

    def evaluate(self, bits_str):
        if bits_str in self.cache:
            self.cache_hits += 1
            return self.cache[bits_str]
        b = string_to_bits(bits_str)
        u = b[:2].mean()
        v = b[2:4].mean()
        g = b[4:].mean()
        scale = 0.05 + 0.95 * g
        rec = EvalRecord(
            objectives=ObjectiveVector(scale * u * v, scale * u * (1 - v), scale * (1 - u)),
            test_error_rate=0.0, pr_error_rate=0.0, test_mcc=0.0, pr_mcc=0.0,
        )
        self.fe_count += 1
        self.cache[bits_str] = rec
        return rec


@pytest.fixture(scope="session")
def walk_series():
    return random_walk_series(260, seed=11)
