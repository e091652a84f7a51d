"""Daily OHLCV ingestion, sliding-window pattern construction, and date splits.

The data flow is: CSV -> OhlcvSeries -> PatternSet (one row per trading day,
labelled with the next day's close direction) -> DatasetSplits (four disjoint
date windows) -> per-column standardization fitted on the training window only.

The final window (``d_hold``) is sealed at construction: reading its feature
or label arrays raises :class:`HoldoutAccessError` until a caller explicitly
opens it, which keeps searches and training honest about out-of-sample data.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

#: Bars discarded before the first pattern. The longest indicator lookback is
#: 30 trading days; the extra bars let the recursive families run in.
WARMUP_BARS = 40


class MarketDataError(ValueError):
    """Malformed input data or an invalid split specification."""


class HoldoutAccessError(RuntimeError):
    """A sealed hold-out pattern set was read without being opened."""


@dataclass(frozen=True)
class OhlcvBar:
    """One trading day of open/high/low/close prices and volume."""

    day: date
    open: float
    high: float
    low: float
    close: float
    volume: float

    def validate(self) -> None:
        if self.high < self.low:
            raise MarketDataError(f"{self.day}: high {self.high} below low {self.low}")
        if self.low > min(self.open, self.close):
            raise MarketDataError(f"{self.day}: low {self.low} above open/close")
        if self.high < max(self.open, self.close):
            raise MarketDataError(f"{self.day}: high {self.high} below open/close")
        if self.volume < 0:
            raise MarketDataError(f"{self.day}: negative volume {self.volume}")


class OhlcvSeries:
    """Ordered daily bars stored as read-only numpy columns."""

    def __init__(self, dates, opens, highs, lows, closes, volumes):
        self.dates = np.asarray(dates, dtype="datetime64[D]")
        self.open = np.asarray(opens, dtype=float)
        self.high = np.asarray(highs, dtype=float)
        self.low = np.asarray(lows, dtype=float)
        self.close = np.asarray(closes, dtype=float)
        self.volume = np.asarray(volumes, dtype=float)
        n = len(self.dates)
        for arr in (self.open, self.high, self.low, self.close, self.volume):
            if len(arr) != n:
                raise MarketDataError("OHLCV columns have inconsistent lengths")
        if n == 0:
            raise MarketDataError("empty OHLCV series")
        if np.any(np.diff(self.dates).astype(int) <= 0):
            raise MarketDataError("dates must be strictly increasing (no duplicates)")
        for arr in (self.dates, self.open, self.high, self.low, self.close, self.volume):
            arr.setflags(write=False)

    @classmethod
    def from_bars(cls, bars: list[OhlcvBar]) -> "OhlcvSeries":
        if not bars:
            raise MarketDataError("empty OHLCV series")
        bars = sorted(bars, key=lambda b: b.day)
        for b in bars:
            b.validate()
        return cls(
            [b.day for b in bars],
            [b.open for b in bars],
            [b.high for b in bars],
            [b.low for b in bars],
            [b.close for b in bars],
            [b.volume for b in bars],
        )

    def __len__(self) -> int:
        return len(self.dates)

    def bar(self, i: int) -> OhlcvBar:
        return OhlcvBar(
            self.dates[i].astype(object),
            float(self.open[i]),
            float(self.high[i]),
            float(self.low[i]),
            float(self.close[i]),
            float(self.volume[i]),
        )

    def truncated(self, n_bars: int) -> "OhlcvSeries":
        """First ``n_bars`` bars as a new series (used by ex-ante checks)."""
        return OhlcvSeries(
            self.dates[:n_bars], self.open[:n_bars], self.high[:n_bars],
            self.low[:n_bars], self.close[:n_bars], self.volume[:n_bars],
        )


_CSV_COLUMNS = ("date", "open", "high", "low", "close", "volume")


def load_ohlcv_csv(path) -> OhlcvSeries:
    """Load a Date,Open,High,Low,Close,Volume CSV (case-insensitive header).

    Rows may appear in any order on disk; the returned series is sorted by
    date. Malformed rows raise :class:`MarketDataError` naming the line,
    bar-level invariant violations name the offending date.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MarketDataError(f"{path}: empty file") from None
        names = [h.strip().lower() for h in header]
        try:
            cols = {c: names.index(c) for c in _CSV_COLUMNS}
        except ValueError as exc:
            raise MarketDataError(f"{path}: header must name {_CSV_COLUMNS}, got {header}") from exc
        bars = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                bar = OhlcvBar(
                    day=date.fromisoformat(row[cols["date"]].strip()),
                    open=float(row[cols["open"]]),
                    high=float(row[cols["high"]]),
                    low=float(row[cols["low"]]),
                    close=float(row[cols["close"]]),
                    volume=float(row[cols["volume"]]),
                )
            except (ValueError, IndexError) as exc:
                raise MarketDataError(f"{path}: line {lineno}: cannot parse row: {exc}") from exc
            bar.validate()
            bars.append(bar)
    if not bars:
        raise MarketDataError(f"{path}: no data rows")
    return OhlcvSeries.from_bars(bars)


class PatternSet:
    """A feature matrix with binary next-day movement labels and dates.

    ``sealed`` pattern sets refuse feature/label reads until ``opened()``
    is called; shapes and dates stay readable for bookkeeping.
    """

    def __init__(self, features, labels, dates, sealed: bool = False):
        self._features = np.asarray(features, dtype=float)
        self._labels = np.asarray(labels, dtype=np.int8)
        self._dates = np.asarray(dates, dtype="datetime64[D]")
        if self._features.ndim != 2:
            raise MarketDataError("features must be a 2-D matrix")
        if not (self._features.shape[0] == len(self._labels) == len(self._dates)):
            raise MarketDataError("features, labels and dates row counts differ")
        if self._labels.size and not np.isin(self._labels, (0, 1)).all():
            raise MarketDataError("labels must be binary")
        self.sealed = sealed
        for arr in (self._features, self._labels, self._dates):
            arr.setflags(write=False)

    def _check_open(self):
        if self.sealed:
            raise HoldoutAccessError(
                "sealed hold-out data was read; only holdout evaluation may open it"
            )

    @property
    def features(self) -> np.ndarray:
        self._check_open()
        return self._features

    @property
    def labels(self) -> np.ndarray:
        self._check_open()
        return self._labels

    @property
    def dates(self) -> np.ndarray:
        return self._dates

    @property
    def n(self) -> int:
        return len(self._labels)

    @property
    def n_features(self) -> int:
        return self._features.shape[1]

    def opened(self) -> "PatternSet":
        """Unsealed view sharing the same arrays."""
        return PatternSet(self._features, self._labels, self._dates, sealed=False)

    def with_features(self, features, sealed=None) -> "PatternSet":
        return PatternSet(
            features, self._labels, self._dates,
            sealed=self.sealed if sealed is None else sealed,
        )

    def restrict(self, rows) -> "PatternSet":
        return PatternSet(self._features[rows], self._labels[rows], self._dates[rows],
                          sealed=self.sealed)


def build_patterns(series: OhlcvSeries, catalog=None, warmup: int = WARMUP_BARS) -> PatternSet:
    """Compute the full feature matrix and next-day movement labels.

    Row t exists for every bar index in [warmup, len(series)-2]; the label is
    1 when close(t+1) > close(t), else 0. Features at t use bars <= t only.
    """
    from . import indicators  # deferred: indicators consumes OhlcvSeries

    if catalog is None:
        catalog = indicators.default_catalog()
    n = len(series)
    if n < warmup + 2:
        raise MarketDataError(
            f"series has {n} bars; at least {warmup + 2} needed (warm-up {warmup} + label day)"
        )
    matrix = indicators.compute_matrix(series, catalog, warmup=warmup)
    # last feature row has no next-day close to label
    feats = matrix[:-1]
    t_index = np.arange(warmup, n - 1)
    labels = (series.close[t_index + 1] - series.close[t_index] > 0).astype(np.int8)
    return PatternSet(feats, labels, series.dates[t_index])


@dataclass(frozen=True)
class SplitSpec:
    """Four half-open, chronologically ordered, pairwise disjoint date ranges."""

    pr_range: tuple[date, date]
    train_range: tuple[date, date]
    test_range: tuple[date, date]
    hold_range: tuple[date, date]

    def __post_init__(self):
        ranges = self.as_dict()
        for name, (lo, hi) in ranges.items():
            if lo >= hi:
                raise MarketDataError(f"{name} range [{lo}, {hi}) is empty or reversed")
        order = [self.pr_range, self.train_range, self.test_range, self.hold_range]
        for (a_lo, a_hi), (b_lo, b_hi) in zip(order, order[1:]):
            if a_hi > b_lo:
                raise MarketDataError("split ranges must be disjoint and ordered pr < train < test < hold")

    @classmethod
    def from_boundaries(cls, b0, b1, b2, b3, b4) -> "SplitSpec":
        return cls((b0, b1), (b1, b2), (b2, b3), (b3, b4))

    @classmethod
    def default(cls) -> "SplitSpec":
        return cls.from_boundaries(
            date(2017, 1, 1), date(2019, 1, 1), date(2020, 8, 1),
            date(2021, 1, 1), date(2021, 6, 1),
        )

    def as_dict(self):
        return {
            "pr": self.pr_range,
            "train": self.train_range,
            "test": self.test_range,
            "hold": self.hold_range,
        }

    def to_json_dict(self):
        return {k: [v[0].isoformat(), v[1].isoformat()] for k, v in self.as_dict().items()}

    @classmethod
    def from_json_dict(cls, d) -> "SplitSpec":
        def rng(pair):
            return (date.fromisoformat(pair[0]), date.fromisoformat(pair[1]))

        return cls(rng(d["pr"]), rng(d["train"]), rng(d["test"]), rng(d["hold"]))


@dataclass(frozen=True)
class DatasetSplits:
    """The four date-defined pattern sets; ``d_hold`` is sealed."""

    d_pr: PatternSet
    d_train: PatternSet
    d_test: PatternSet
    d_hold: PatternSet
    spec: SplitSpec

    @property
    def counts(self):
        return {
            "pr": self.d_pr.n, "train": self.d_train.n,
            "test": self.d_test.n, "hold": self.d_hold.n,
        }

    def open_holdout(self) -> PatternSet:
        """Explicitly unseal the hold-out split for final reporting."""
        logger.info("hold-out split opened for evaluation (%d patterns)", self.d_hold.n)
        return self.d_hold.opened()


def split_by_dates(patterns: PatternSet, spec: SplitSpec) -> DatasetSplits:
    """Assign every pattern to its date window; drop patterns outside all four."""
    dates = patterns.dates
    parts = {}
    assigned = np.zeros(len(dates), dtype=bool)
    for name, (lo, hi) in spec.as_dict().items():
        mask = (dates >= np.datetime64(lo)) & (dates < np.datetime64(hi))
        if not mask.any():
            raise MarketDataError(f"split '{name}' [{lo}, {hi}) matched no patterns")
        parts[name] = mask
        assigned |= mask
    dropped = int((~assigned).sum())
    if dropped:
        logger.info("split_by_dates: %d patterns outside all ranges were dropped", dropped)
    splits = DatasetSplits(
        d_pr=patterns.restrict(parts["pr"]),
        d_train=patterns.restrict(parts["train"]),
        d_test=patterns.restrict(parts["test"]),
        d_hold=PatternSet(patterns.features[parts["hold"]],
                          patterns.labels[parts["hold"]],
                          dates[parts["hold"]], sealed=True),
        spec=spec,
    )
    logger.info("split sizes: %s (dropped %d)", splits.counts, dropped)
    return splits


class Standardizer:
    """Column-wise (x - mean) / sd with sample (n-1) standard deviation.

    Zero-variance columns on the fit split pass through unscaled and are
    recorded in ``constant_columns``.
    """

    def __init__(self):
        self.mean_ = None
        self.scale_ = None
        self.constant_columns: tuple[int, ...] = ()

    @property
    def fitted(self) -> bool:
        return self.mean_ is not None

    def fit(self, train: PatternSet) -> "Standardizer":
        x = train.features
        self.mean_ = x.mean(axis=0)
        sd = x.std(axis=0, ddof=1)
        constant = sd == 0.0
        self.constant_columns = tuple(int(i) for i in np.flatnonzero(constant))
        if self.constant_columns:
            logger.warning("standardizer: %d constant columns passed through: %s",
                           len(self.constant_columns), self.constant_columns)
        scale = sd.copy()
        scale[constant] = 1.0
        mean = self.mean_.copy()
        mean[constant] = 0.0
        self.mean_, self.scale_ = mean, scale
        return self

    def apply(self, patterns: PatternSet) -> PatternSet:
        if not self.fitted:
            raise MarketDataError("standardizer used before fit")
        # direct array access keeps a sealed split sealed through the transform
        x = (patterns._features - self.mean_) / self.scale_
        return patterns.with_features(x)

    def to_json_dict(self):
        return {
            "mean": self.mean_.tolist(),
            "scale": self.scale_.tolist(),
            "constant_columns": list(self.constant_columns),
        }


def fit_standardizer(train: PatternSet) -> Standardizer:
    return Standardizer().fit(train)


def standardize_splits(splits: DatasetSplits) -> tuple[DatasetSplits, Standardizer]:
    """Fit on d_train only, transform all four splits (no leakage)."""
    s = fit_standardizer(splits.d_train)
    return (
        DatasetSplits(
            d_pr=s.apply(splits.d_pr),
            d_train=s.apply(splits.d_train),
            d_test=s.apply(splits.d_test),
            d_hold=s.apply(splits.d_hold),
            spec=splits.spec,
        ),
        s,
    )


_SPLIT_FILES = {"pr": "pr.csv", "train": "train.csv", "test": "test.csv", "hold": "hold.csv"}


def save_splits(splits: DatasetSplits, out_dir, standardizer: Standardizer | None = None,
                extra_manifest: dict | None = None) -> Path:
    """Write the four splits as CSV plus a JSON manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, fname in _SPLIT_FILES.items():
        ps: PatternSet = getattr(splits, f"d_{name}")
        feats, labels, dates = ps._features, ps._labels, ps._dates
        with (out / fname).open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["date"] + [f"f{j + 1:03d}" for j in range(feats.shape[1])] + ["label"])
            for i in range(len(labels)):
                w.writerow([str(dates[i])] + [repr(float(v)) for v in feats[i]] + [int(labels[i])])
    manifest = {
        "splits": splits.spec.to_json_dict(),
        "counts": splits.counts,
        "n_features": splits.d_train.n_features,
        "standardizer": standardizer.to_json_dict() if standardizer else None,
    }
    manifest.update(extra_manifest or {})
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return out


def load_splits(in_dir) -> tuple[DatasetSplits, dict]:
    """Read back a directory written by :func:`save_splits`; hold stays sealed."""
    src = Path(in_dir)
    manifest = json.loads((src / "manifest.json").read_text())
    parts = {}
    for name, fname in _SPLIT_FILES.items():
        with (src / fname).open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            n_feat = len(header) - 2
            dates, feats, labels = [], [], []
            for row in reader:
                dates.append(row[0])
                feats.append([float(v) for v in row[1:1 + n_feat]])
                labels.append(int(row[-1]))
        parts[name] = PatternSet(np.array(feats), labels, dates, sealed=(name == "hold"))
    spec = SplitSpec.from_json_dict(manifest["splits"])
    return DatasetSplits(parts["pr"], parts["train"], parts["test"], parts["hold"], spec), manifest
