import numpy as np
import pytest
from datetime import date

from conftest import random_walk_series, truncated
from coevonet import indicators
from coevonet.market_data import (
    DatasetSplits, HoldoutAccessError, MarketDataError, OhlcvSeries, PatternSet,
    SplitSpec, build_patterns, load_ohlcv_csv,
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


#: One bar breaking each series rule (open, high, low, close, volume), and the
#: error it raises after the bar's date.
BAD_BARS = {
    "high below low": ((11, 10, 12, 11, 900), "high 10.0 below low 12.0"),
    "low above open/close": ((10, 12, 10.5, 11, 900), "low 10.5 above open/close"),
    "high below open/close": ((10, 11, 9, 11.5, 900), "high 11.0 below open/close"),
    "negative volume": ((10, 11, 9, 10.5, -1), "negative volume -1.0"),
    "nan open": ((float("nan"), 11, 9, 10.5, 900), "non-finite open nan"),
    "inf high": ((10, float("inf"), 9, 10.5, 900), "non-finite high inf"),
    "nan volume": ((10, 11, 9, 10.5, float("nan")), "non-finite volume nan"),
}


class TestSeriesChecks:
    """Every series is checked bar by bar where it is built."""

    GOOD = (10, 11, 9, 10.5, 1000)

    @pytest.mark.parametrize("bar, message", BAD_BARS.values(), ids=BAD_BARS)
    def test_built_directly(self, bar, message):
        days = np.arange(np.datetime64("2020-02-03"), np.datetime64("2020-02-07"))
        columns = np.array([self.GOOD, self.GOOD, bar, self.GOOD], dtype=float).T
        with pytest.raises(MarketDataError, match=f"^2020-02-05: {message}$"):
            OhlcvSeries(days, *columns)

    @pytest.mark.parametrize("bar, message", BAD_BARS.values(), ids=BAD_BARS)
    def test_read_from_csv(self, tmp_path, bar, message):
        good = ",".join(map(str, self.GOOD))
        p = write_csv(tmp_path, [f"2020-02-06,{good}", "2020-02-05," + ",".join(map(str, bar)),
                                 f"2020-02-04,{good}"])
        with pytest.raises(MarketDataError, match=f"^2020-02-05: {message}$"):
            load_ohlcv_csv(p)

    def test_first_bad_bar_is_named(self):
        days = np.arange(np.datetime64("2020-02-03"), np.datetime64("2020-02-06"))
        bars = [self.GOOD, (10, 11, 9, 10.5, -1), (11, 10, 12, 11, 900)]
        with pytest.raises(MarketDataError, match="^2020-02-04: negative volume"):
            OhlcvSeries(days, *np.array(bars, dtype=float).T)

    def test_malformed_row_is_reported_before_a_bad_bar(self, tmp_path):
        p = write_csv(tmp_path, ["2020-01-01,11,10,12,11,900", "2020-01-02,10,11,9"])
        with pytest.raises(MarketDataError, match="line 3: cannot parse row"):
            load_ohlcv_csv(p)

    def test_columns_are_read_only(self):
        s = random_walk_series(45, seed=2)
        with pytest.raises(ValueError):
            s.close[0] = 1.0


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


def one_window_splits(x) -> DatasetSplits:
    """The same patterns in all four windows, hold-out sealed."""
    ps = PatternSet(x, np.arange(len(x)) % 2,
                    np.arange(len(x)) + np.datetime64("2020-01-01"))
    return DatasetSplits(ps, ps, ps, PatternSet(x, ps.labels, ps.dates, sealed=True),
                         SplitSpec.default())


class TestDatasetSplitsMap:
    def test_keeps_spec_seal_labels_and_dates(self):
        splits = one_window_splits(np.arange(6.0).reshape(3, 2))
        mapped = splits.map(lambda x: x[:, :1] * 2.0)
        assert mapped.spec == splits.spec
        assert mapped.d_hold.sealed and not mapped.d_train.sealed
        with pytest.raises(HoldoutAccessError):
            _ = mapped.d_hold.features
        for name in ("pr", "train", "test"):
            ps = getattr(mapped, f"d_{name}")
            assert np.array_equal(ps.features, [[0.0], [4.0], [8.0]])
            assert np.array_equal(ps.labels, splits.d_train.labels)
            assert np.array_equal(ps.dates, splits.d_train.dates)
        assert np.array_equal(mapped.open_holdout().features, [[0.0], [4.0], [8.0]])


class TestStandardizer:
    def test_hand_computed_column(self):
        splits = one_window_splits(np.array([[1.0], [2.0], [3.0]]))
        std, standardization = standardize_splits(splits)
        assert np.allclose(std.d_train.features[:, 0], [-1.0, 0.0, 1.0])
        assert standardization == {"mean": [2.0], "scale": [1.0], "constant_columns": []}

    def test_constant_column_passthrough_flagged(self):
        x = np.column_stack([np.full(5, 7.0), np.arange(5.0)])
        std, standardization = standardize_splits(one_window_splits(x))
        assert standardization["constant_columns"] == [0]
        assert (standardization["mean"][0], standardization["scale"][0]) == (0.0, 1.0)
        assert np.allclose(std.d_train.features[:, 0], 7.0)
        assert np.allclose(std.open_holdout().features[:, 0], 7.0)

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
        std, standardization = standardize_splits(splits)
        save_splits(std, tmp_path / "splits", standardization, extra_manifest={"x": 1})
        loaded, manifest = load_splits(tmp_path / "splits")
        assert manifest["x"] == 1
        assert manifest["standardizer"] == standardization
        assert loaded.counts == std.counts
        assert np.allclose(loaded.d_train.features, std.d_train.features)
        assert loaded.d_hold.sealed
        assert np.array_equal(loaded.d_pr.dates, std.d_pr.dates)
