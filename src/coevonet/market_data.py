"""Daily OHLCV ingestion, sliding-window pattern construction, and date splits.

The data flow is one series -> patterns -> splits -> ``map``. An OhlcvSeries,
read from a CSV or generated, checks every bar when it is built. A PatternSet
has one row per trading day, labelled with the next day's close direction.
DatasetSplits cuts it into four disjoint date windows, and its ``map``
transforms every window's features alike: standardization fitted on the
training window only, or an a-priori reduction.

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

from . import indicators
from .indicators import WARMUP_BARS

logger = logging.getLogger(__name__)


class MarketDataError(ValueError):
    """Malformed input data or an invalid split specification."""


class HoldoutAccessError(RuntimeError):
    """A sealed hold-out pattern set was read without being opened."""


_CSV_COLUMNS = ("date", "open", "high", "low", "close", "volume")


class OhlcvSeries:
    """Ordered daily bars stored as read-only numpy columns.

    Construction checks every bar: all values finite, high >= low, low <= min(open,
    close), high >= max(open, close), volume >= 0; an error names the first bad bar's date.
    """

    def __init__(self, dates, opens, highs, lows, closes, volumes):
        self.dates = np.asarray(dates, dtype="datetime64[D]")
        self.open = np.asarray(opens, dtype=float)
        self.high = np.asarray(highs, dtype=float)
        self.low = np.asarray(lows, dtype=float)
        self.close = np.asarray(closes, dtype=float)
        self.volume = np.asarray(volumes, dtype=float)
        n = len(self.dates)
        values = (self.open, self.high, self.low, self.close, self.volume)
        for arr in values:
            if len(arr) != n:
                raise MarketDataError("OHLCV columns have inconsistent lengths")
        if n == 0:
            raise MarketDataError("empty OHLCV series")
        if np.any(np.diff(self.dates).astype(int) <= 0):
            raise MarketDataError("dates must be strictly increasing (no duplicates)")
        finite = np.isfinite(values)
        bad = np.array([
            ~finite.all(axis=0),
            self.high < self.low,
            self.low > np.minimum(self.open, self.close),
            self.high < np.maximum(self.open, self.close),
            self.volume < 0,
        ])
        if bad.any():
            i = int(np.argmax(bad.any(axis=0)))
            j = int(np.argmin(finite[:, i]))
            h, lo, v = self.high[i], self.low[i], self.volume[i]
            messages = (f"non-finite {_CSV_COLUMNS[j + 1]} {values[j][i]}",
                        f"high {h} below low {lo}", f"low {lo} above open/close",
                        f"high {h} below open/close", f"negative volume {v}")
            raise MarketDataError(f"{self.dates[i]}: {messages[int(np.argmax(bad[:, i]))]}")
        for arr in (self.dates, *values):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.dates)


def load_ohlcv_csv(path) -> OhlcvSeries:
    """Load a Date,Open,High,Low,Close,Volume CSV (case-insensitive header).

    Rows may appear in any order on disk; the returned series is sorted by
    date. The whole file is parsed first: a malformed row raises
    :class:`MarketDataError` naming its line, and only then are the bars
    checked, where an error names the offending date.
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
            cols = [names.index(c) for c in _CSV_COLUMNS]
        except ValueError as exc:
            raise MarketDataError(f"{path}: header must name {_CSV_COLUMNS}, got {header}") from exc
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                rows.append((date.fromisoformat(row[cols[0]].strip()),
                             *(float(row[j]) for j in cols[1:])))
            except (ValueError, IndexError) as exc:
                raise MarketDataError(f"{path}: line {lineno}: cannot parse row: {exc}") from exc
    if not rows:
        raise MarketDataError(f"{path}: no data rows")
    return OhlcvSeries(*zip(*sorted(rows)))


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

    def inputs(self, columns=None) -> np.ndarray:
        """The network inputs of these patterns: feature ``columns``, or every column for None."""
        return self.features if columns is None else self.features[:, columns]

    @property
    def n_features(self) -> int:
        return self._features.shape[1]

    def opened(self) -> "PatternSet":
        """Unsealed view sharing the same arrays."""
        return PatternSet(self._features, self._labels, self._dates, sealed=False)


def build_patterns(series: OhlcvSeries) -> PatternSet:
    """Compute the full feature matrix and next-day movement labels.

    Row t exists for every bar index in [WARMUP_BARS, len(series)-2]; the label
    is 1 when close(t+1) > close(t), else 0. Features at t use bars <= t only.
    """
    n = len(series)
    if n < WARMUP_BARS + 2:
        raise MarketDataError(f"series has {n} bars; at least {WARMUP_BARS + 2} needed "
                              f"(warm-up {WARMUP_BARS} + label day)")
    matrix = indicators.compute_matrix(series)
    # last feature row has no next-day close to label
    feats = matrix[:-1]
    t_index = np.arange(WARMUP_BARS, n - 1)
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
                raise MarketDataError(
                    "split ranges must be disjoint and ordered pr < train < test < hold")

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

    def map(self, fn) -> "DatasetSplits":
        """``fn`` applied to every feature matrix, read past the seal; the spec and seals stay."""
        return DatasetSplits(*(PatternSet(fn(ps._features), ps._labels, ps._dates, ps.sealed)
                               for ps in (self.d_pr, self.d_train, self.d_test, self.d_hold)),
                             self.spec)

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
    splits = DatasetSplits(*(PatternSet(patterns.features[rows], patterns.labels[rows],
                                        dates[rows], sealed=name == "hold")
                             for name, rows in parts.items()), spec)
    logger.info("split sizes: %s (dropped %d)", splits.counts, dropped)
    return splits


def standardize_splits(splits: DatasetSplits) -> tuple[DatasetSplits, dict]:
    """Standardize all four splits by column moments of d_train only (no leakage).

    Returns them with ``{"mean", "scale", "constant_columns"}``: each column's mean and
    sample (n-1) sd; a zero-variance column passes through with mean 0 and scale 1.
    """
    x = splits.d_train.features
    mean = x.mean(axis=0)
    scale = x.std(axis=0, ddof=1)
    constant = scale == 0.0
    mean[constant], scale[constant] = 0.0, 1.0
    constant_columns = [int(i) for i in np.flatnonzero(constant)]
    if constant_columns:
        logger.warning("standardize: %d constant columns passed through: %s",
                       len(constant_columns), tuple(constant_columns))
    return (splits.map(lambda features: (features - mean) / scale),
            {"mean": mean.tolist(), "scale": scale.tolist(), "constant_columns": constant_columns})


_SPLIT_FILES = {"pr": "pr.csv", "train": "train.csv", "test": "test.csv", "hold": "hold.csv"}


def label_balance(splits: DatasetSplits) -> dict[str, tuple[int, int]]:
    """(up days, patterns) of every split, the sealed hold-out included."""
    sets = {name: getattr(splits, f"d_{name}") for name in _SPLIT_FILES}
    return {name: (int(ps._labels.sum()), ps.n) for name, ps in sets.items()}


def save_splits(splits: DatasetSplits, out_dir, standardization: dict | None = None,
                extra_manifest: dict | None = None) -> Path:
    """Write the four splits as CSV plus a JSON manifest.

    ``standardization`` is the dict :func:`standardize_splits` returns.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, fname in _SPLIT_FILES.items():
        ps: PatternSet = getattr(splits, f"d_{name}")
        feats, labels, dates = ps._features, ps._labels, ps._dates
        with (out / fname).open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["date"] + [f"f{j + 1:03d}" for j in range(feats.shape[1])] + ["label"])
            for i in range(len(labels)):
                w.writerow([str(dates[i]), *map(repr, feats[i].tolist()), int(labels[i])])
    manifest = {
        "splits": splits.spec.to_json_dict(),
        "counts": splits.counts,
        "n_features": splits.d_train.n_features,
        "standardizer": standardization,
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
