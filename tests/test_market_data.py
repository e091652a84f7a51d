import numpy as np
import pytest
from datetime import date

from conftest import random_walk_series, truncated
from coevonet import indicators
from coevonet.market_data import (
    DatasetSplits, HoldoutAccessError, MarketDataError, OhlcvSeries, PatternSet,
    SplitSpec, Standardizer, build_patterns, load_ohlcv_csv,
    load_splits, save_splits, split_by_dates, standardize_splits,
)


def write_csv(tmp_path, rows, header="Date,Open,High,Low,Close,Volume"):
    p = tmp_path / "data.csv"
    p.write_text("\n".join([header] + rows) + "\n")
    return p


class TestLoadCsv:
    def test_three_valid_rows(self, tmp_path):
        p = write_csv(tmp_path, [
            "2020-01-01,10,11,9,10.5,1000",
            "2020-01-02,10.5,12,10,11,1100",
            "2020-01-03,11,11.5,10.5,11,900",
        ])
        s = load_ohlcv_csv(p)
        assert len(s) == 3
        assert s.dates[0].astype(object) == date(2020, 1, 1)
        assert s.close[2] == 11

    def test_rows_out_of_order_get_sorted(self, tmp_path):
        p = write_csv(tmp_path, [
            "2020-01-03,11,11.5,10.5,11,900",
            "2020-01-01,10,11,9,10.5,1000",
            "2020-01-02,10.5,12,10,11,1100",
        ])
        s = load_ohlcv_csv(p)
        assert [b.astype(object).day for b in s.dates] == [1, 2, 3]

    def test_high_below_low_names_date(self, tmp_path):
        p = write_csv(tmp_path, ["2020-02-05,11,10,12,11,900"])
        with pytest.raises(MarketDataError, match="2020-02-05"):
            load_ohlcv_csv(p)

    def test_malformed_row_names_line(self, tmp_path):
        p = write_csv(tmp_path, [
            "2020-01-01,10,11,9,10.5,1000",
            "2020-01-02,not_a_number,12,10,11,1100",
        ])
        with pytest.raises(MarketDataError, match="line 3"):
            load_ohlcv_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(MarketDataError):
            load_ohlcv_csv(p)

    def test_duplicate_dates_rejected(self, tmp_path):
        p = write_csv(tmp_path, [
            "2020-01-01,10,11,9,10.5,1000",
            "2020-01-01,10,11,9,10.5,1000",
        ])
        with pytest.raises(MarketDataError):
            load_ohlcv_csv(p)

    def test_case_insensitive_header(self, tmp_path):
        p = write_csv(tmp_path, ["2020-01-01,10,11,9,10.5,1000"],
                      header="DATE,open,High,LOW,Close,volume")
        assert len(load_ohlcv_csv(p)) == 1


class TestBuildPatterns:
    def test_labels_follow_next_close(self):
        s = random_walk_series(80, seed=3)
        ps = build_patterns(s)
        t = np.arange(40, 79)
        expected = (s.close[t + 1] > s.close[t]).astype(int)
        assert np.array_equal(ps.labels, expected)
        # one pattern per day in [warmup, last-1]
        assert ps.n == 80 - 40 - 1
        assert ps.dates[0] == s.dates[40]

    def test_label_up_and_flat(self):
        # constant bars except a controlled close move at the end
        n = 43
        closes = np.full(n, 100.0)
        closes[41] = 100.0
        closes[42] = 101.0
        days = np.arange(np.datetime64("2020-01-01"), np.datetime64("2020-01-01") + n)
        s = OhlcvSeries(days, closes, closes * 1.001, closes * 0.999, closes,
                        np.full(n, 1000.0))
        ps = build_patterns(s)
        # t=40: close(41)=100 vs close(40)=100 -> flat -> 0; t=41: 101 > 100 -> 1
        assert list(ps.labels) == [0, 1]

    def test_too_short_series_errors(self):
        s = random_walk_series(30, seed=1)
        with pytest.raises(MarketDataError, match="42"):
            build_patterns(s)

    def test_label_partition(self):
        ps = build_patterns(random_walk_series(120, seed=5))
        ups = int(ps.labels.sum())
        downs = int((ps.labels == 0).sum())
        assert ups + downs == ps.n

    def test_ex_ante_truncation_invariance(self):
        s = random_walk_series(90, seed=7)
        full = build_patterns(s)
        trunc = build_patterns(truncated(s, 70))
        # patterns dated before the truncation point are bit-identical
        assert np.array_equal(full.features[:trunc.n], trunc.features)
        assert np.array_equal(full.labels[:trunc.n], trunc.labels)


@pytest.fixture(scope="module")
def long_patterns():
    return build_patterns(random_walk_series(1150, seed=13))


class TestSplits:
    def test_default_assignment(self, long_patterns):
        splits = split_by_dates(long_patterns, SplitSpec.default())
        pr_days = splits.d_pr.dates.astype("datetime64[D]")
        assert np.datetime64("2017-06-01") in pr_days
        hold_days = splits.d_hold.dates.astype("datetime64[D]")
        assert np.datetime64("2021-03-01") in hold_days
        # partition: nothing assigned twice, drops accounted
        total = sum(splits.counts.values())
        assert total <= long_patterns.n

    def test_empty_split_errors(self, long_patterns):
        spec = SplitSpec.from_boundaries(
            date(2017, 1, 1), date(2019, 1, 1), date(2019, 1, 2),
            date(2021, 1, 1), date(2021, 6, 1))
        # test range [2019-01-01, 2019-01-02) likely holds one pattern; use a weekend
        spec = SplitSpec.from_boundaries(
            date(2017, 1, 1), date(2019, 1, 5), date(2019, 1, 6),
            date(2021, 1, 1), date(2021, 6, 1))
        with pytest.raises(MarketDataError, match="train"):
            split_by_dates(long_patterns, spec)

    def test_spec_validation(self):
        with pytest.raises(MarketDataError):
            SplitSpec.from_boundaries(date(2019, 1, 1), date(2018, 1, 1),
                                      date(2020, 1, 1), date(2020, 6, 1), date(2021, 1, 1))

    def test_holdout_sealed(self, long_patterns):
        splits = split_by_dates(long_patterns, SplitSpec.default())
        with pytest.raises(HoldoutAccessError):
            _ = splits.d_hold.features
        with pytest.raises(HoldoutAccessError):
            _ = splits.d_hold.labels
        opened = splits.open_holdout()
        assert opened.features.shape[0] == opened.n


class TestStandardizer:
    def test_hand_computed_column(self):
        ps = PatternSet(np.array([[1.0], [2.0], [3.0]]), [0, 1, 0],
                        np.arange(np.datetime64("2020-01-01"), np.datetime64("2020-01-04")))
        s = Standardizer().fit(ps)
        out = s.apply(ps)
        assert np.allclose(out.features[:, 0], [-1.0, 0.0, 1.0])

    def test_constant_column_passthrough_flagged(self):
        x = np.column_stack([np.full(5, 7.0), np.arange(5.0)])
        ps = PatternSet(x, [0, 1, 0, 1, 0],
                        np.arange(np.datetime64("2020-01-01"), np.datetime64("2020-01-06")))
        s = Standardizer().fit(ps)
        assert s.constant_columns == (0,)
        out = s.apply(ps)
        assert np.allclose(out.features[:, 0], 7.0)

    def test_apply_before_fit(self):
        ps = PatternSet(np.zeros((2, 1)), [0, 1],
                        np.arange(np.datetime64("2020-01-01"), np.datetime64("2020-01-03")))
        with pytest.raises(MarketDataError):
            Standardizer().apply(ps)

    def test_train_moments_and_no_leakage(self):
        splits = split_by_dates(build_patterns(random_walk_series(1150, seed=17)),
                                SplitSpec.default())
        std, _ = standardize_splits(splits)
        x = std.d_train.features
        assert np.all(np.abs(x.mean(axis=0)) < 1e-9)
        sd = x.std(axis=0, ddof=1)
        assert np.all(np.abs(sd[sd > 0] - 1.0) < 1e-9)
        # the same transform leaves the test window off-center in general
        assert np.abs(std.d_test.features.mean(axis=0)).max() > 1e-3


class TestSplitsIO:
    def test_round_trip(self, tmp_path):
        splits = split_by_dates(build_patterns(random_walk_series(1150, seed=19)),
                                SplitSpec.default())
        std, standardizer = standardize_splits(splits)
        save_splits(std, tmp_path / "splits", standardizer, extra_manifest={"x": 1})
        loaded, manifest = load_splits(tmp_path / "splits")
        assert manifest["x"] == 1
        assert loaded.counts == std.counts
        assert np.allclose(loaded.d_train.features, std.d_train.features)
        assert loaded.d_hold.sealed
        assert np.array_equal(loaded.d_pr.dates, std.d_pr.dates)
