import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_walk_series, truncated
from coevonet.indicators import (
    IndicatorError, IndicatorId, catalog_index, catalog_to_json, compute_column,
    compute_matrix, default_catalog,
)
from coevonet.market_data import OhlcvSeries


def constant_series(n=60, price=100.0, volume=1000.0):
    days = np.arange(np.datetime64("2020-01-01"), np.datetime64("2020-01-01") + n)
    p = np.full(n, price)
    return OhlcvSeries(days, p, p, p, p, np.full(n, volume))


def series_from_closes(closes):
    closes = np.asarray(closes, dtype=float)
    n = len(closes)
    days = np.arange(np.datetime64("2020-01-01"), np.datetime64("2020-01-01") + n)
    return OhlcvSeries(days, closes, closes, closes, closes, np.full(n, 1000.0))


class TestCatalog:
    def test_has_68_unique_entries(self):
        cat = default_catalog()
        assert len(cat) == 68
        labels = [iid.label() for iid in cat]
        assert len(set(labels)) == 68

    def test_order_is_stable(self):
        cat = default_catalog()
        assert [c.label() for c in cat[:5]] == ["open", "high", "low", "close", "ma_5"]
        assert cat[-1].label() == "ulcer_14"
        assert cat[catalog_index(cat, "oscp_5_20")].params == (5, 20)

    def test_json_dump(self):
        rows = json.loads(catalog_to_json())
        assert len(rows) == 68
        assert rows[0] == {"index": 1, "kind": "open", "params": [], "label": "open"}
        assert rows[67]["index"] == 68

    def test_family_counts(self):
        kinds = {}
        for iid in default_catalog():
            kinds[iid.kind] = kinds.get(iid.kind, 0) + 1
        assert kinds["oscp"] == 6
        assert kinds["ma"] == kinds["ema"] == kinds["rsi"] == kinds["wr"] == 4
        assert kinds["stoch_k"] == kinds["stoch_d"] == 2
        assert sum(kinds.values()) == 68


class TestConstantAndMonotone:
    def test_constant_series_values(self):
        s = constant_series()
        t = 50
        assert compute_column(s, IndicatorId("ma", (5,)))[t] == 100.0
        assert compute_column(s, IndicatorId("mtm", (5,)))[t] == 0.0
        assert compute_column(s, IndicatorId("roc", (5,)))[t] == 100.0
        assert compute_column(s, IndicatorId("rdp", (5,)))[t] == 0.0
        assert compute_column(s, IndicatorId("ema", (10,)))[t] == 100.0
        # flat-window guards
        assert compute_column(s, IndicatorId("rsi", (5,)))[t] == 50.0
        assert compute_column(s, IndicatorId("wr", (5,)))[t] == 50.0
        assert compute_column(s, IndicatorId("vr", (10,)))[t] == 0.5
        for kind, params in (("stoch_k", (5,)), ("stoch_d", (9,))):
            assert abs(compute_column(s, IndicatorId(kind, params))[t] - 50.0) < 1e-12
        assert compute_column(s, IndicatorId("ar", (20,)))[t] == 1.0
        assert compute_column(s, IndicatorId("br", (20,)))[t] == 1.0
        assert compute_column(s, IndicatorId("uo", (10, 20, 30)))[t] == 50.0
        assert compute_column(s, IndicatorId("dis_up", (5,)))[t] == 0.0
        assert compute_column(s, IndicatorId("dis_down", (5,)))[t] == 0.0

    def test_br_keeps_a_negative_denominator(self):
        # every bar gaps up: its low sits 3 above the prior close, its high 5 above
        n = 50
        close = 100.0 + 4.0 * np.arange(n)
        days = np.arange(np.datetime64("2020-01-01"), np.datetime64("2020-01-01") + n)
        s = OhlcvSeries(days, close, close + 1.0, close - 1.0, close, np.full(n, 1000.0))
        assert compute_column(s, IndicatorId("br", (20,)))[n - 1] == pytest.approx(-5.0 / 3.0)

    @pytest.mark.parametrize("label, burn_in", [
        ("rsi_10", 10), ("psy_10", 10), ("wr_10", 9), ("stoch_k_9", 8), ("vr_10", 10),
        ("ar_20", 19), ("br_20", 20), ("uo_10_20_30", 29), ("dis_up_10", 10), ("dis_down_10", 10),
    ])
    def test_guarded_families_are_nan_through_their_burn_in(self, label, burn_in):
        cat = default_catalog()
        for s in (constant_series(), random_walk_series(60, seed=3)):
            col = compute_column(s, cat[catalog_index(cat, label)])
            assert np.isnan(col[:burn_in]).all() and not np.isnan(col[burn_in:]).any()

    def test_monotone_up_run(self):
        closes = np.concatenate([100 + np.zeros(50), 100 + np.arange(1, 11)])
        s = series_from_closes(closes)
        t = len(closes) - 1  # 10 consecutive up days behind us
        assert compute_column(s, IndicatorId("psy", (5,)))[t] == 100.0
        assert compute_column(s, IndicatorId("rsi", (5,)))[t] == 100.0

    def test_monotone_down_rsi_zero(self):
        closes = np.concatenate([100 + np.zeros(50), 100 - np.arange(1, 11)])
        s = series_from_closes(closes)
        assert compute_column(s, IndicatorId("rsi", (5,)))[len(closes) - 1] == 0.0

    def test_oscp_rejects_a_window_of_zero_closes(self):
        s = series_from_closes(
            np.concatenate([np.full(20, 100.0), np.zeros(5), np.full(20, 100.0)]))
        with pytest.raises(IndicatorError, match="oscp_5_10"):
            compute_column(s, IndicatorId("oscp", (5, 10)))


class TestEmaRecursion:
    def test_hand_recursion(self):
        s = series_from_closes([1, 2, 3, 4, 5, 6])
        col = compute_column(s, IndicatorId("ema", (5,)))
        assert col[0] == 1.0
        assert np.isclose(col[1], 4.0 / 3.0)
        assert np.isclose(col[2], 17.0 / 9.0)

    def test_macd_seed_is_zero_on_day_one(self):
        s = series_from_closes(np.linspace(100, 120, 50))
        col = compute_column(s, IndicatorId("macd", (9,)))
        assert col[0] == 0.0
        assert np.isfinite(col).all()


@st.composite
def ohlcv_seeds(draw):
    return draw(st.integers(min_value=0, max_value=10_000))


class TestBoundedFamilies:
    @settings(max_examples=25, deadline=None)
    @given(seed=ohlcv_seeds())
    def test_wr_within_0_100(self, seed):
        s = random_walk_series(90, seed=seed)
        for tau in (5, 10, 15, 20):
            col = compute_column(s, IndicatorId("wr", (tau,)))[40:]
            assert np.all((col >= 0) & (col <= 100))

    @settings(max_examples=25, deadline=None)
    @given(seed=ohlcv_seeds())
    @example(seed=0)  # wr_5 once reached 100 + 1.4e-14 here
    def test_range_families_with_closes_on_session_extremes(self, seed):
        s = random_walk_series(90, seed=seed)
        close = np.where(np.arange(90) % 2 == 0, s.low, s.high)
        s = OhlcvSeries(s.dates, s.open, s.high, s.low, close, s.volume)
        for kind, taus in (("wr", (5, 10, 15, 20)), ("stoch_k", (5, 9)), ("stoch_d", (5, 9))):
            for tau in taus:
                col = compute_column(s, IndicatorId(kind, (tau,)))[tau - 1:]
                assert np.all((col >= 0) & (col <= 100)), (kind, tau)

    @settings(max_examples=25, deadline=None)
    @given(seed=ohlcv_seeds())
    def test_vr_within_0_1(self, seed):
        s = random_walk_series(90, seed=seed)
        col = compute_column(s, IndicatorId("vr", (10,)))[40:]
        assert np.all((col >= 0) & (col <= 1))

    @settings(max_examples=15, deadline=None)
    @given(seed=ohlcv_seeds())
    @example(seed=200)  # rsi_5 once came out at 100 + 1.4e-14 here
    def test_rsi_psy_k_d_uo_bounds(self, seed):
        s = random_walk_series(90, seed=seed)
        for kind, taus in (("rsi", (5, 20)), ("psy", (5, 20)),
                           ("stoch_k", (5, 9)), ("stoch_d", (5, 9))):
            for tau in taus:
                col = compute_column(s, IndicatorId(kind, (tau,)))[40:]
                assert np.all((col >= 0) & (col <= 100)), (kind, tau)
        uo = compute_column(s, IndicatorId("uo", (10, 20, 30)))[40:]
        assert np.all((uo >= 0) & (uo <= 100))


SCALE_LINEAR = ["ma_5", "ema_10", "mtm_15", "hh_10", "ll_10", "mp_10", "atr_10"]
SCALE_INVARIANT = ["rsi_10", "psy_10", "wr_10", "roc_10", "rdp_10", "bias_10", "oscp_5_20"]


class TestPriceScale:
    @pytest.mark.parametrize("label", SCALE_LINEAR)
    def test_linear_families(self, label):
        s = random_walk_series(90, seed=23)
        scaled = OhlcvSeries(s.dates, 3.0 * s.open, 3.0 * s.high, 3.0 * s.low,
                             3.0 * s.close, s.volume)
        cat = default_catalog()
        iid = cat[catalog_index(cat, label)]
        a = compute_column(s, iid)[40:]
        b = compute_column(scaled, iid)[40:]
        assert np.allclose(b, 3.0 * a, rtol=1e-9)

    @pytest.mark.parametrize("label", SCALE_INVARIANT)
    def test_invariant_families(self, label):
        s = random_walk_series(90, seed=29)
        scaled = OhlcvSeries(s.dates, 3.0 * s.open, 3.0 * s.high, 3.0 * s.low,
                             3.0 * s.close, s.volume)
        cat = default_catalog()
        iid = cat[catalog_index(cat, label)]
        a = compute_column(s, iid)[40:]
        b = compute_column(scaled, iid)[40:]
        assert np.allclose(b, a, rtol=1e-9, atol=1e-9)


class TestMatrix:
    def test_shape_100_bars(self):
        s = random_walk_series(100, seed=31)
        m = compute_matrix(s)
        assert m.shape == (60, 68)
        assert np.isfinite(m).all()

    def test_appending_bars_never_changes_earlier_rows(self):
        s = random_walk_series(120, seed=37)
        full = compute_matrix(s)
        part = compute_matrix(truncated(s, 100))
        assert np.array_equal(full[:part.shape[0]], part)

    @settings(max_examples=20, deadline=None)
    @given(seed=ohlcv_seeds(), n_bars=st.integers(41, 130),
           cuts=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
    def test_every_column_is_causal_bit_for_bit(self, seed, n_bars, cuts):
        # synth.synth_generate solves the planted walk as a fixed point and relies on this
        s = random_walk_series(n_bars, seed=seed)
        ts = sorted({int(c * (n_bars - 1)) for c in cuts} | {n_bars - 2})
        for iid in default_catalog():
            full = compute_column(s, iid)
            for t in ts:
                prefix = compute_column(truncated(s, t + 1), iid)
                assert full[:t + 1].tobytes() == prefix.tobytes(), (iid.label(), t)

    def test_matrix_matches_per_feature_calls(self):
        s = random_walk_series(70, seed=41)
        cat = default_catalog()
        m = compute_matrix(s)
        for j in (0, 4, 20, 47, 67):
            for t in (40, 55, 69):
                assert m[t - 40, j] == compute_column(s, cat[j])[t]

    def test_warmup_guard(self):
        s = random_walk_series(70, seed=43)
        with pytest.raises(IndicatorError):
            compute_matrix(truncated(s, 30))
        with pytest.raises(IndicatorError):
            compute_matrix(truncated(s, 40))    # no row past the 40-bar warm-up
        assert compute_matrix(truncated(s, 41)).shape == (1, 68)

    def test_unknown_family(self):
        s = random_walk_series(50, seed=47)
        with pytest.raises(IndicatorError):
            compute_column(s, IndicatorId("nope", (5,)))
