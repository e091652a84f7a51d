"""Technical indicator families over daily OHLCV bars.

The default catalog holds 68 features drawn from 24 families, most of them
parameterized over several lookback periods. Catalog order is fixed and
defines genome bit order, so it is dumpable as JSON for auditing.

Windowed families use only bars <= t; recursive families (ema, stoch_k,
stoch_d, macd, atr) run their recursion from the start of the series, so the
``WARMUP_BARS`` warm-up absorbs seed transients. Division guards, all in ``_ratio``:
rsi with no down days -> 100 (no up days -> 0, flat -> 50); wr/stoch_k on a
zero range -> 50; vr with no directional volume -> 0.5; uo on a zero true
range -> 0.5 per average; dis on a zero true range -> 0; ar/br on a zero
denominator -> 1 (not den <= 0: br's is negative on a steady gap-up run).
rsi, wr and fast %K scale a ratio x / y with 0 <= x <= y (a close lies within
its bar), which rounds to at most 1, so they and the stoch smoothing stay in [0, 100].
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

if TYPE_CHECKING:  # pragma: no cover
    from .market_data import OhlcvSeries


class IndicatorError(ValueError):
    pass


#: Bars discarded before the first feature row. The longest lookback of the
#: default catalog is uo's 30 trading days; the extra bars let the recursive
#: families run in.
WARMUP_BARS = 40


@dataclass(frozen=True)
class IndicatorId:
    """One catalog entry: a family name plus its period parameter(s)."""

    kind: str
    params: tuple[int, ...] = ()

    def label(self) -> str:
        if not self.params:
            return self.kind
        return f"{self.kind}_{'_'.join(str(p) for p in self.params)}"


_STANDARD_PERIODS = (5, 10, 15, 20)
_OSCP_PAIRS = ((5, 10), (5, 15), (5, 20), (10, 15), (10, 20), (15, 20))


def default_catalog() -> tuple[IndicatorId, ...]:
    """The 68-feature catalog in genome bit order."""
    entries: list[IndicatorId] = [
        IndicatorId("open"), IndicatorId("high"), IndicatorId("low"), IndicatorId("close"),
    ]
    entries += [IndicatorId("ma", (t,)) for t in _STANDARD_PERIODS]
    entries += [IndicatorId("ema", (t,)) for t in _STANDARD_PERIODS]
    entries += [IndicatorId("rsi", (t,)) for t in _STANDARD_PERIODS]
    entries += [IndicatorId("stoch_k", (t,)) for t in (5, 9)]
    entries += [IndicatorId("stoch_d", (t,)) for t in (5, 9)]
    entries += [IndicatorId("macd", (9,))]
    entries += [IndicatorId("wr", (t,)) for t in _STANDARD_PERIODS]
    entries += [IndicatorId("psy", (t,)) for t in _STANDARD_PERIODS]
    entries += [IndicatorId("oscp", pair) for pair in _OSCP_PAIRS]
    entries += [IndicatorId("dis_up", (t,)) for t in _STANDARD_PERIODS]
    entries += [IndicatorId("dis_down", (t,)) for t in _STANDARD_PERIODS]
    entries += [IndicatorId("bias", (t,)) for t in _STANDARD_PERIODS]
    entries += [
        IndicatorId("vr", (10,)), IndicatorId("ar", (20,)), IndicatorId("br", (20,)),
        IndicatorId("ll", (10,)), IndicatorId("hh", (10,)), IndicatorId("mp", (10,)),
        IndicatorId("atr", (10,)),
    ]
    entries += [IndicatorId("rdp", (t,)) for t in _STANDARD_PERIODS]
    entries += [IndicatorId("mtm", (t,)) for t in _STANDARD_PERIODS]
    entries += [IndicatorId("roc", (t,)) for t in _STANDARD_PERIODS]
    entries += [IndicatorId("uo", (10, 20, 30)), IndicatorId("ulcer", (14,))]
    return tuple(entries)


def catalog_to_json() -> str:
    """The default catalog as JSON so genome bit positions are auditable."""
    rows = [
        {"index": i + 1, "kind": iid.kind, "params": list(iid.params), "label": iid.label()}
        for i, iid in enumerate(default_catalog())
    ]
    return json.dumps(rows, indent=2)


def catalog_index(catalog, label: str) -> int:
    """0-based position of a feature label such as 'rsi_10' in the catalog."""
    for i, iid in enumerate(catalog):
        if iid.label() == label:
            return i
    raise IndicatorError(f"no catalog entry labelled {label!r}")


# ---------------------------------------------------------------------------
# rolling helpers (t-aligned: out[t] summarizes the window ending at t)
# ---------------------------------------------------------------------------

def _rolling_sum(x: np.ndarray, w: int) -> np.ndarray:
    """Sum over [t-w+1, t]; NaN for t < w-1."""
    out = np.full(len(x), np.nan)
    if len(x) >= w:
        c = np.concatenate(([0.0], np.cumsum(x)))
        out[w - 1:] = c[w:] - c[:-w]
    return out


def _rolling_mean(x: np.ndarray, w: int) -> np.ndarray:
    return _rolling_sum(x, w) / w


def _rolling(x: np.ndarray, w: int, reduce) -> np.ndarray:
    """``reduce`` (np.max, np.min, np.median) over [t-w+1, t]; NaN for t < w-1."""
    out = np.full(len(x), np.nan)
    if len(x) >= w:
        out[w - 1:] = reduce(sliding_window_view(x, w), axis=1)
    return out


def _shift(x: np.ndarray, k: int) -> np.ndarray:
    """x delayed by k days (NaN head)."""
    out = np.full(len(x), np.nan)
    out[k:] = x[:-k] if k else x
    return out


def _updown_flags(close: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    up = np.zeros(len(close))
    down = np.zeros(len(close))
    d = np.diff(close)
    up[1:] = d > 0
    down[1:] = d < 0
    return up, down


def _prev_close(close: np.ndarray) -> np.ndarray:
    """close delayed by one day; day 0 takes its own close."""
    prev = _shift(close, 1)
    prev[0] = close[0]
    return prev


def _ratio(num, den, fallback, defined=None) -> np.ndarray:
    """num / den where ``defined`` (default den > 0) holds, else fallback; NaN in, NaN out."""
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(den > 0 if defined is None else defined, num / den, fallback)
    out[np.isnan(num) | np.isnan(den)] = np.nan
    return out


def _after_first_window(out: np.ndarray, period: int) -> np.ndarray:
    """``out`` with its first full window NaN: that window lacks a prior close for its first day."""
    if len(out) >= period:
        out[period - 1] = np.nan
    return out


def _window_extremes(s, period) -> tuple[np.ndarray, np.ndarray]:
    return _rolling(s.high, period, np.max), _rolling(s.low, period, np.min)


def _true_range(high, low, close) -> np.ndarray:
    prev_close = _prev_close(close)
    return np.maximum(high, prev_close) - np.minimum(low, prev_close)


def _ema(x: np.ndarray, period: int) -> np.ndarray:
    alpha = 2.0 / (period + 1)
    out = np.empty(len(x))
    out[0] = x[0]
    for t in range(1, len(x)):
        out[t] = alpha * x[t] + (1 - alpha) * out[t - 1]
    return out


def _stoch_smooth(x: np.ndarray, start: int) -> np.ndarray:
    """Stochastic smoothing: 50 at ``start``, then 2/3 of the previous value plus 1/3 of x."""
    out = np.full(len(x), np.nan)
    if start >= len(out):
        return out
    out[start] = 50.0
    for t in range(start + 1, len(x)):
        out[t] = (2.0 / 3.0) * out[t - 1] + (1.0 / 3.0) * x[t]
    return out


# ---------------------------------------------------------------------------
# family implementations: f(series, *params) -> full-length column (NaN burn-in)
# ---------------------------------------------------------------------------

def _col_ma(s, period):
    return _rolling_mean(s.close, period)


def _col_ema(s, period):
    return _ema(s.close, period)


def _col_rsi(s, period):
    up, down = _updown_flags(s.close)
    up_count = _rolling_sum(up, period)
    down_count = _rolling_sum(down, period)
    up_close = _rolling_sum(up * s.close, period)
    down_close = _rolling_sum(down * s.close, period)
    avg_up = _ratio(up_close, up_count, 0.0)
    avg_down = _ratio(down_close, down_count, 0.0)
    return _after_first_window(100.0 * _ratio(avg_up, avg_up + avg_down, 0.5), period)


def _fast_k(s, period):
    hh, ll = _window_extremes(s, period)
    return 100.0 * _ratio(s.close - ll, hh - ll, 0.5)


def _col_stoch_k(s, period):
    return _stoch_smooth(_fast_k(s, period), period - 1)


def _col_stoch_d(s, period):
    return _stoch_smooth(_col_stoch_k(s, period), period - 1)


def _col_macd(s, period):
    return _ema(_ema(s.close, 12) - _ema(s.close, 26), period)


def _col_wr(s, period):
    hh, ll = _window_extremes(s, period)
    return 100.0 * _ratio(hh - s.close, hh - ll, 0.5)


def _col_psy(s, period):
    up, _ = _updown_flags(s.close)
    return _after_first_window(100.0 * _rolling_sum(up, period) / period, period)


def _col_oscp(s, x, y):
    ma_x = _rolling_mean(s.close, x)
    ma_y = _rolling_mean(s.close, y)
    valid = ~np.isnan(ma_x) & ~np.isnan(ma_y)
    if np.any(ma_x[valid] == 0):
        raise IndicatorError(f"oscp_{x}_{y} undefined: zero {x}-day moving average "
                             "(non-positive prices?)")
    return (ma_x - ma_y) / ma_x


def _col_dis(s, period, sign):
    prices = s.high if sign > 0 else s.low
    dm = np.full(len(prices), np.nan)
    dm[period:] = (prices[period:] - prices[:-period]) / period
    trs = _rolling_mean(_true_range(s.high, s.low, s.close), period)
    return _ratio(100.0 * dm, trs, 0.0)


def _col_bias(s, period):
    ma = _rolling_mean(s.close, period)
    return 100.0 * (s.close - ma) / ma


def _col_vr(s, period):
    up, down = _updown_flags(s.close)
    uv = _rolling_sum(up * s.volume, period)
    dv = _rolling_sum(down * s.volume, period)
    return _after_first_window(_ratio(uv, uv + dv, 0.5), period)


def _col_ar(s, period):
    den = _rolling_sum(s.open - s.low, period)
    return _ratio(_rolling_sum(s.high - s.open, period), den, 1.0, defined=den != 0)


def _col_br(s, period):
    prev_close = _prev_close(s.close)
    num = _rolling_sum(s.high - prev_close, period)
    den = _rolling_sum(prev_close - s.low, period)
    return _after_first_window(_ratio(num, den, 1.0, defined=den != 0), period)


def _col_ll(s, period):
    return _shift(_rolling(s.low, period, np.min), 1)


def _col_hh(s, period):
    return _shift(_rolling(s.high, period, np.max), 1)


def _col_mp(s, period):
    return _shift(_rolling(s.close, period, np.median), 1)


def _col_atr(s, period):
    tr = _true_range(s.high, s.low, s.close)
    out = np.full(len(tr), np.nan)
    if len(tr) < period:
        return out
    out[period - 1] = tr[:period].mean()
    for t in range(period, len(tr)):
        out[t] = (out[t - 1] * (period - 1) + tr[t]) / period
    return out


def _col_rdp(s, period):
    lag = _shift(s.close, period)
    return 100.0 * (s.close - lag) / lag


def _col_mtm(s, period):
    return s.close - _shift(s.close, period)


def _col_roc(s, period):
    return 100.0 * s.close / _shift(s.close, period)


def _col_uo(s, x, y, z):
    bp = s.close - np.minimum(s.low, _prev_close(s.close))
    tr = _true_range(s.high, s.low, s.close)
    ax, ay, az = (_ratio(_rolling_sum(bp, p), _rolling_sum(tr, p), 0.5) for p in (x, y, z))
    return (100.0 / 7.0) * (4.0 * ax + 2.0 * ay + az)


def _col_ulcer(s, period):
    n = len(s.close)
    out = np.full(n, np.nan)
    # R_k(t): percent shortfall of close(t) from the highest high of the
    # previous k days, k = 1..period
    acc = np.zeros(n)
    count = np.zeros(n)
    for k in range(1, period + 1):
        hh_k = _col_hh(s, k)
        with np.errstate(invalid="ignore"):
            r = 100.0 * (s.close - hh_k) / hh_k
        valid = ~np.isnan(r)
        acc[valid] += r[valid] ** 2
        count[valid] += 1
    full = count == period
    out[full] = np.sqrt(acc[full] / period)
    return out


_FAMILIES = {
    "open": lambda s: s.open.astype(float),
    "high": lambda s: s.high.astype(float),
    "low": lambda s: s.low.astype(float),
    "close": lambda s: s.close.astype(float),
    "ma": _col_ma,
    "ema": _col_ema,
    "rsi": _col_rsi,
    "stoch_k": _col_stoch_k,
    "stoch_d": _col_stoch_d,
    "macd": _col_macd,
    "wr": _col_wr,
    "psy": _col_psy,
    "oscp": _col_oscp,
    "dis_up": lambda s, p: _col_dis(s, p, +1),
    "dis_down": lambda s, p: _col_dis(s, p, -1),
    "bias": _col_bias,
    "vr": _col_vr,
    "ar": _col_ar,
    "br": _col_br,
    "ll": _col_ll,
    "hh": _col_hh,
    "mp": _col_mp,
    "atr": _col_atr,
    "rdp": _col_rdp,
    "mtm": _col_mtm,
    "roc": _col_roc,
    "uo": _col_uo,
    "ulcer": _col_ulcer,
}


def compute_column(series: "OhlcvSeries", iid: IndicatorId) -> np.ndarray:
    """Full-length indicator column; entries before the family's own burn-in are NaN."""
    try:
        fn = _FAMILIES[iid.kind]
    except KeyError:
        raise IndicatorError(f"unknown indicator family {iid.kind!r}") from None
    return fn(series, *iid.params)


def compute_matrix(series: "OhlcvSeries") -> np.ndarray:
    """Default-catalog feature matrix, one row per day index in [WARMUP_BARS, len(series)-1]."""
    catalog = default_catalog()
    if len(series) <= WARMUP_BARS:
        raise IndicatorError(
            f"series has {len(series)} bars; more than the {WARMUP_BARS}-bar warm-up needed"
        )
    cols = [compute_column(series, iid)[WARMUP_BARS:] for iid in catalog]
    matrix = np.column_stack(cols)
    bad = np.flatnonzero(np.isnan(matrix).any(axis=0))
    if bad.size:
        labels = [catalog[j].label() for j in bad]
        raise IndicatorError(f"NaN past warm-up in columns {labels}")
    return matrix
