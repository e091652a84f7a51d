"""Synthetic OHLCV generator with a planted set of relevant indicators.

The series is a geometric random walk whose next-day direction is, with
probability ``1 - noise``, the sign of a weighted score of a handful of
bounded indicator features computed on the series so far; with probability
``noise`` the direction is a fair coin. Return magnitudes are drawn
symmetrically and their sign is forced to match the chosen direction, so the
planted labels coincide exactly with the close-to-close movement labels.

``noise = 0`` gives a deterministic function of the planted indicators;
``noise = 1`` is an unpredictable series (long-run accuracy of any model
approaches one half).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np

from . import indicators
from .market_data import WARMUP_BARS, OhlcvSeries, SplitSpec


class SynthError(ValueError):
    pass


def _default_planted() -> tuple[tuple[str, float, float, float], ...]:
    # (catalog label, midpoint, scale, weight): score term = w * (x - mid) / scale
    return (
        ("rsi_10", 50.0, 50.0, 1.0),
        ("wr_5", 50.0, -50.0, 0.8),      # low WR = close near period high
        ("psy_15", 50.0, 50.0, 0.7),
        ("vr_10", 0.5, 0.5, 0.6),
        ("bias_5", 0.0, 1.5, 0.9),
    )


@dataclass
class SynthSpec:
    n_bars: int = 700
    start_day: date = date(2017, 1, 2)
    noise: float = 0.15
    daily_vol: float = 0.012
    base_price: float = 100.0
    planted: tuple[tuple[str, float, float, float], ...] = field(default_factory=_default_planted)
    split_fractions: tuple[float, float, float, float] = (0.38, 0.35, 0.135, 0.135)

    def __post_init__(self):
        if not 0.0 <= self.noise <= 1.0:
            raise SynthError(f"noise {self.noise} outside [0, 1]")
        if self.n_bars < WARMUP_BARS + 10:
            raise SynthError(f"n_bars {self.n_bars} too small for the {WARMUP_BARS}-bar warm-up")
        if abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise SynthError("split fractions must sum to 1")


@dataclass
class SynthTruth:
    """Ground-truth manifest for recovery scoring."""

    relevant_indices: tuple[int, ...]   # 0-based catalog positions
    relevant_labels: tuple[str, ...]
    weights: tuple[float, ...]
    noise: float
    seed: int

    def to_json(self) -> str:
        return json.dumps({
            "relevant_indices": list(self.relevant_indices),
            "relevant_labels": list(self.relevant_labels),
            "weights": list(self.weights),
            "noise": self.noise,
            "seed": self.seed,
        }, indent=2, sort_keys=True)


def _weekdays(start: date, count: int) -> list[date]:
    days, d = [], start
    while len(days) < count:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return days


def synth_generate(spec: SynthSpec, seed: int) -> tuple[OhlcvSeries, SplitSpec, SynthTruth]:
    """Build the series, a split specification aligned to it, and the truth manifest."""
    rng = np.random.default_rng(seed)
    catalog = indicators.default_catalog()
    planted_ids = []
    for label, _, _, _ in spec.planted:
        planted_ids.append(catalog[indicators.catalog_index(catalog, label)])
    n = spec.n_bars
    closes = np.empty(n)
    opens = np.empty(n)
    highs = np.empty(n)
    lows = np.empty(n)
    volumes = np.empty(n)

    def fill_bar(t: int, close: float, prev_close: float):
        closes[t] = close
        opens[t] = prev_close * float(np.exp(rng.normal(0.0, spec.daily_vol / 3.0)))
        hi = max(opens[t], close)
        lo = min(opens[t], close)
        highs[t] = hi * float(np.exp(abs(rng.normal(0.0, spec.daily_vol / 2.0))))
        lows[t] = lo * float(np.exp(-abs(rng.normal(0.0, spec.daily_vol / 2.0))))
        volumes[t] = float(np.round(1e6 * np.exp(rng.normal(0.0, 0.3))))

    closes[0] = spec.base_price
    opens[0] = spec.base_price
    highs[0] = spec.base_price * 1.002
    lows[0] = spec.base_price * 0.998
    volumes[0] = 1e6
    burn_in = WARMUP_BARS
    for t in range(1, burn_in + 1):
        c = closes[t - 1] * float(np.exp(rng.normal(0.0, spec.daily_vol)))
        fill_bar(t, c, closes[t - 1])

    day0 = np.datetime64("2000-01-03")

    def prefix_series(upto: int) -> OhlcvSeries:
        # placeholder consecutive dates; only bar order matters here
        return OhlcvSeries(
            np.arange(day0, day0 + (upto + 1), dtype="datetime64[D]"),
            opens[:upto + 1], highs[:upto + 1], lows[:upto + 1],
            closes[:upto + 1], volumes[:upto + 1],
        )

    for t in range(burn_in, n - 1):
        s = prefix_series(t)
        score = 0.0
        for iid, (_, mid, scale, w) in zip(planted_ids, spec.planted):
            value = float(indicators.compute_column(s, iid)[t])
            score += w * (value - mid) / scale
        if rng.random() < spec.noise:
            up = rng.random() < 0.5
        else:
            up = score > 0.0
        magnitude = abs(rng.normal(0.0, spec.daily_vol)) + 1e-6
        c_next = closes[t] * float(np.exp(magnitude if up else -magnitude))
        fill_bar(t + 1, c_next, closes[t])

    days = _weekdays(spec.start_day, n)
    series = OhlcvSeries(days, opens, highs, lows, closes, volumes)

    # split boundaries positioned so pattern counts follow the quota fractions
    pattern_days = days[WARMUP_BARS:n - 1]
    n_pat = len(pattern_days)
    cum = np.cumsum(spec.split_fractions)
    cut = [int(round(c * n_pat)) for c in cum[:3]]
    boundaries = [
        pattern_days[0],
        pattern_days[cut[0]],
        pattern_days[cut[1]],
        pattern_days[cut[2]],
        pattern_days[-1] + timedelta(days=1),
    ]
    split = SplitSpec.from_boundaries(*boundaries)
    truth = SynthTruth(
        relevant_indices=tuple(indicators.catalog_index(catalog, lbl) for lbl, _, _, _ in spec.planted),
        relevant_labels=tuple(lbl for lbl, _, _, _ in spec.planted),
        weights=tuple(w for _, _, _, w in spec.planted),
        noise=spec.noise,
        seed=seed,
    )
    return series, split, truth


def save_series_csv(series: OhlcvSeries, path) -> None:
    with open(path, "w") as fh:
        fh.write("Date,Open,High,Low,Close,Volume\n")
        for i in range(len(series)):
            prices = (series.open[i], series.high[i], series.low[i], series.close[i],
                      series.volume[i])
            fh.write(f"{series.dates[i]}," + ",".join(repr(float(v)) for v in prices) + "\n")
