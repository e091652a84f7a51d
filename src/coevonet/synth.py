"""Synthetic OHLCV generator with a planted set of relevant indicators.

The series is a geometric random walk (daily log-return scale ``DAILY_VOL``,
first close ``BASE_PRICE``, weekdays from ``START_DAY``) whose next-day
direction is, with probability ``1 - noise``, the sign of a weighted score of
a handful of bounded indicator features computed on the series so far; with
probability ``noise`` the direction is a fair coin. Return magnitudes are
drawn symmetrically and their sign is forced to match the chosen direction,
so the planted labels coincide exactly with the close-to-close movement
labels. The splits follow the pattern shares ``SPLIT_FRACTIONS``.

``noise = 0`` gives a deterministic function of the planted indicators;
``noise = 1`` is an unpredictable series (long-run accuracy of any model
approaches one half).

The walk is generated as a fixed point rather than bar by bar. No random
draw depends on the score, so all of them are taken first, in the walk's
bar order: the burn-in steps, then per scored day the noise draw (and the
coin when it asks for one), the magnitude and the next bar's open, high,
low and volume draws. Each round then builds every bar from the current
directions (closes by ``np.multiply.accumulate``), computes the planted
columns once over the whole series, and sets every score-decided direction
to ``score > 0``; it stops when no direction changes. Every catalog column
at day t reads only bars <= t, bit for bit (``tests/test_indicators.py``
checks this for the whole catalog). So once the directions before day t are
final, the next round makes the direction of day t final: each round fixes
at least one more of the ``n_bars - 41`` directions, the loop settles within
``n_bars - 40`` rounds, and the only fixed point is the bar-by-bar walk, so
the series is byte-identical to it. Over seeds 0-99 at 700 bars the loop
took a median of 48.5 rounds (at most 172); over seeds 0-19 at 2,800 bars,
86.5 (at most 166).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np

from . import indicators
from .indicators import WARMUP_BARS
from .market_data import OhlcvSeries, SplitSpec


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


#: The walk's first weekday, daily log-return scale and first close, and the
#: pattern shares of the train, test, earlier-regime and hold-out splits.
START_DAY = date(2017, 1, 2)
DAILY_VOL = 0.012
BASE_PRICE = 100.0
SPLIT_FRACTIONS = (0.38, 0.35, 0.135, 0.135)


@dataclass
class SynthSpec:
    n_bars: int = 700
    noise: float = 0.15
    planted: tuple[tuple[str, float, float, float], ...] = field(default_factory=_default_planted)

    def __post_init__(self):
        if not 0.0 <= self.noise <= 1.0:
            raise SynthError(f"noise {self.noise} outside [0, 1]")
        if self.n_bars < WARMUP_BARS + 10:
            raise SynthError(f"n_bars {self.n_bars} too small for the {WARMUP_BARS}-bar warm-up")


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
    burn_in = WARMUP_BARS
    # close[t] = close[t-1] * step[t]; every bar t >= 1 also draws its open,
    # high, low and volume factors. Day t (burn_in <= t < n-1) moves close[t+1]
    # by rise[t] or fall[t], up or down as its score says, or as its fair coin
    # says where scored[t] is False.
    step = np.empty(n)
    step[0] = BASE_PRICE
    open_f, high_f, low_f, volumes = np.ones(n), np.ones(n), np.ones(n), np.empty(n)
    high_f[0], low_f[0], volumes[0] = 1.002, 0.998, 1e6
    rise, fall = np.empty(n), np.empty(n)
    scored, up = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)

    def draw_bar(t: int):
        open_f[t] = float(np.exp(rng.normal(0.0, DAILY_VOL / 3.0)))
        high_f[t] = float(np.exp(abs(rng.normal(0.0, DAILY_VOL / 2.0))))
        low_f[t] = float(np.exp(-abs(rng.normal(0.0, DAILY_VOL / 2.0))))
        volumes[t] = float(np.round(1e6 * np.exp(rng.normal(0.0, 0.3))))

    for t in range(1, burn_in + 1):
        step[t] = float(np.exp(rng.normal(0.0, DAILY_VOL)))
        draw_bar(t)
    for t in range(burn_in, n - 1):
        if rng.random() < spec.noise:
            scored[t], up[t] = False, rng.random() < 0.5
        magnitude = abs(rng.normal(0.0, DAILY_VOL)) + 1e-6
        rise[t] = float(np.exp(magnitude))
        fall[t] = float(np.exp(-magnitude))
        draw_bar(t + 1)

    days = _weekdays(START_DAY, n)
    dates = np.array(days, dtype="datetime64[D]")
    moves = slice(burn_in, n - 1)
    scored, up = scored[moves], up[moves]
    for _ in range(n - burn_in):    # each round makes one more direction final at least
        step[burn_in + 1:] = np.where(up, rise[moves], fall[moves])
        closes = np.multiply.accumulate(step)
        opens = np.concatenate(([BASE_PRICE], closes[:-1])) * open_f
        highs = np.maximum(opens, closes) * high_f
        lows = np.minimum(opens, closes) * low_f
        series = OhlcvSeries(dates, opens, highs, lows, closes, volumes)
        score = 0.0
        for iid, (_, mid, scale, w) in zip(planted_ids, spec.planted):
            score = score + w * (indicators.compute_column(series, iid) - mid) / scale
        settled = np.where(scored, score[moves] > 0.0, up)
        if np.array_equal(settled, up):
            break
        up = settled
    else:
        raise SynthError(f"directions did not settle within {n - burn_in} rounds")

    # split boundaries positioned so pattern counts follow the quota fractions
    pattern_days = days[WARMUP_BARS:n - 1]
    n_pat = len(pattern_days)
    cum = np.cumsum(SPLIT_FRACTIONS)
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
        relevant_indices=tuple(indicators.catalog_index(catalog, lbl)
                               for lbl, _, _, _ in spec.planted),
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
