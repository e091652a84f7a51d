import itertools

import numpy as np
import pytest
from scipy.stats import chi2, norm, rankdata

from coevonet.stats import (FriedmanResult, StatsError, average_ranks, chi2_sf,
                            friedman_ranks, hommel_apv, normal_sf)


def friedman_oracle(table, higher_is_better=True):
    """Direct-formula recomputation with explicit loops."""
    n, k = table.shape
    ranks = np.empty_like(table, dtype=float)
    for i in range(n):
        row = -table[i] if higher_is_better else table[i]
        ranks[i] = rankdata(row, method="average")
    mean = ranks.mean(axis=0)
    stat = 12.0 * n / (k * (k + 1)) * sum((m - (k + 1) / 2) ** 2 for m in mean)
    return mean, stat


def simes_p(ps):
    ps = np.sort(np.asarray(ps))
    m = len(ps)
    return (m * ps / np.arange(1, m + 1)).min()


def hommel_oracle(p_values):
    """Closed-testing procedure with Simes local tests, enumerated exactly."""
    p = np.asarray(p_values, dtype=float)
    n = p.size
    adjusted = np.zeros(n)
    for i in range(n):
        worst = 0.0
        for r in range(1, n + 1):
            for subset in itertools.combinations(range(n), r):
                if i in subset:
                    worst = max(worst, simes_p(p[list(subset)]))
        adjusted[i] = min(worst, 1.0)
    return adjusted


class TestFriedman:
    def test_always_wins_two_methods(self):
        table = np.column_stack([np.arange(10) + 1.0, np.arange(10)])
        res = friedman_ranks(table)
        assert np.allclose(res.mean_ranks, [1.0, 2.0])
        assert res.statistic == pytest.approx(10.0)

    def test_identical_columns(self):
        table = np.tile(np.arange(6.0)[:, None], (1, 4))
        res = friedman_ranks(table)
        assert np.allclose(res.mean_ranks, 2.5)
        assert res.statistic == pytest.approx(0.0)
        assert res.p_value == pytest.approx(1.0)

    def test_matches_oracle_on_random_tables(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(2, 8))
            table = rng.random((n, k)).round(1)  # rounding provokes ties
            res = friedman_ranks(table)
            mean, stat = friedman_oracle(table)
            assert np.allclose(res.mean_ranks, mean)
            assert res.statistic == pytest.approx(stat)

    def test_lower_is_better_flips_ranks(self):
        table = np.array([[0.1, 0.9], [0.2, 0.8]])
        hi = friedman_ranks(table, higher_is_better=True)
        lo = friedman_ranks(table, higher_is_better=False)
        assert np.allclose(hi.mean_ranks, lo.mean_ranks[::-1])

    def test_degenerate_tables_rejected(self):
        with pytest.raises(StatsError):
            friedman_ranks(np.zeros((1, 3)))
        with pytest.raises(StatsError):
            friedman_ranks(np.zeros((3, 1)))
        with pytest.raises(StatsError):
            friedman_ranks(np.array([[np.nan, 1.0], [0.0, 1.0]]))


def _tables():
    """The tables of TestFriedman, then random ones rounded to provoke ties."""
    yield np.column_stack([np.arange(10) + 1.0, np.arange(10)])
    yield np.tile(np.arange(6.0)[:, None], (1, 4))
    yield np.array([[0.1, 0.9], [0.2, 0.8]])
    rng = np.random.default_rng(21)
    for _ in range(40):
        n, k = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        yield rng.random((n, k)).round(1)


class TestScipyParity:
    """The numpy/math helpers agree with scipy, which the package does not import."""

    def test_average_ranks(self):
        for table in _tables():
            for row in np.vstack([table, -table]):
                assert np.abs(average_ranks(row) - rankdata(row, method="average")).max() <= 1e-12

    def test_friedman_p_value(self):
        for table in _tables():
            for higher in (True, False):
                res = friedman_ranks(table, higher_is_better=higher)
                assert abs(res.p_value - chi2.sf(res.statistic, table.shape[1] - 1)) <= 1e-12

    def test_chi2_sf_grid(self):
        for df in range(1, 30):
            for x in np.r_[0.0, 1e-9, np.linspace(0.01, 8.0 * df, 60), 500.0, 2000.0]:
                assert abs(chi2_sf(float(x), df) - chi2.sf(x, df)) <= 1e-12, (x, df)

    def test_normal_sf(self):
        for z in np.r_[np.linspace(-9.0, 9.0, 721), 40.0, -40.0]:
            assert abs(normal_sf(float(z)) - norm.sf(z)) <= 1e-12, z


class TestHommel:
    def test_single_comparison_unadjusted(self):
        res = hommel_apv([0.03])
        assert res.adjusted.tolist() == [0.03]
        assert res.reject.tolist() == [True]

    def test_all_ones_no_rejections(self):
        res = hommel_apv([1.0, 1.0, 1.0])
        assert np.all(res.adjusted == 1.0)
        assert not res.reject.any()

    def test_three_value_case_matches_oracle(self):
        p = np.array([0.01, 0.02, 0.03])
        assert np.allclose(hommel_apv(p).adjusted, hommel_oracle(p))

    def test_matches_closed_testing_oracle_random(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            p = rng.random(n).round(3)
            res = hommel_apv(p)
            assert np.allclose(res.adjusted, hommel_oracle(p), atol=1e-12)

    def test_rejection_level(self):
        res = hommel_apv([0.001, 0.5], alpha=0.025)
        assert res.reject.tolist() == [True, False]

    def test_invalid_pvalues(self):
        with pytest.raises(StatsError):
            hommel_apv([0.5, 1.5])
        with pytest.raises(StatsError):
            hommel_apv([])
