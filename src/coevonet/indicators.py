"""Technical indicator families over daily OHLCV bars.

The default catalog holds 68 features drawn from 24 families, most of them
parameterized over several lookback periods. Catalog order is fixed and
defines genome bit order, so it is dumpable as JSON for auditing.

Windowed families use only bars <= t; recursive families (ema, stoch_k,
stoch_d, macd, atr) run their recursion from the start of the series, so a
40-bar warm-up absorbs seed transients. Division guards: rsi with no down
days -> 100 (no up days -> 0, flat -> 50); wr/stoch_k on a zero range -> 50;
vr with no directional volume -> 0.5; ar/br on a zero denominator -> 1.
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
    assert len(entries) == 68
    return tuple(entries)


def catalog_to_json(catalog=None) -> str:
    """Catalog as JSON so genome bit positions are auditable."""
    catalog = catalog or default_catalog()
    rows = [
        {"index": i + 1, "kind": iid.kind, "params": list(iid.params), "label": iid.label()}
        for i, iid in enumerate(catalog)
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


def _rolling_max(x: np.ndarray, w: int) -> np.ndarray:
    out = np.full(len(x), np.nan)
    if len(x) >= w:
        out[w - 1:] = sliding_window_view(x, w).max(axis=1)
    return out


def _rolling_min(x: np.ndarray, w: int) -> np.ndarray:
    out = np.full(len(x), np.nan)
    if len(x) >= w:
        out[w - 1:] = sliding_window_view(x, w).min(axis=1)
    return out


def _rolling_median(x: np.ndarray, w: int) -> np.ndarray:
    out = np.full(len(x), np.nan)
    if len(x) >= w:
        out[w - 1:] = np.median(sliding_window_view(x, w), axis=1)
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


def _true_range(high, low, close) -> np.ndarray:
    prev_close = _shift(close, 1)
    prev_close[0] = close[0]
    return np.maximum(high, prev_close) - np.minimum(low, prev_close)


def _ema(x: np.ndarray, period: int) -> np.ndarray:
    alpha = 2.0 / (period + 1)
    out = np.empty(len(x))
    out[0] = x[0]
    for t in range(1, len(x)):
        out[t] = alpha * x[t] + (1 - alpha) * out[t - 1]
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
    with np.errstate(invalid="ignore", divide="ignore"):
        avg_up = np.where(up_count > 0, up_close / up_count, 0.0)
        avg_down = np.where(down_count > 0, down_close / down_count, 0.0)
        denom = avg_up + avg_down
        # ratio first: avg_up / denom <= 1 exactly, so the result never exceeds 100
        out = np.where(denom > 0, 100.0 * (avg_up / denom), 50.0)
    out[np.isnan(up_count)] = np.nan
    if len(out) >= period:
        out[period - 1] = np.nan  # first window needs a prior close for every day
    return out


def _fast_k(s, period):
    hh = _rolling_max(s.high, period)
    ll = _rolling_min(s.low, period)
    rng = hh - ll
    with np.errstate(invalid="ignore", divide="ignore"):
        fast = np.where(rng > 0, 100.0 * (s.close - ll) / rng, 50.0)
    fast[np.isnan(hh)] = np.nan
    return fast


def _col_stoch_k(s, period):
    fast = _fast_k(s, period)
    out = np.full(len(fast), np.nan)
    start = period - 1
    if start >= len(out):
        return out
    out[start] = 50.0
    for t in range(start + 1, len(fast)):
        out[t] = (2.0 / 3.0) * out[t - 1] + (1.0 / 3.0) * fast[t]
    return out


def _col_stoch_d(s, period):
    k = _col_stoch_k(s, period)
    out = np.full(len(k), np.nan)
    start = period - 1
    if start >= len(out):
        return out
    out[start] = 50.0
    for t in range(start + 1, len(k)):
        out[t] = (2.0 / 3.0) * out[t - 1] + (1.0 / 3.0) * k[t]
    return out


def _col_macd(s, period):
    diff = _ema(s.close, 12) - _ema(s.close, 26)
    alpha = 2.0 / (period + 1)
    out = np.empty(len(diff))
    out[0] = diff[0]
    for t in range(1, len(diff)):
        out[t] = (1 - alpha) * out[t - 1] + alpha * diff[t]
    return out


def _col_wr(s, period):
    hh = _rolling_max(s.high, period)
    ll = _rolling_min(s.low, period)
    rng = hh - ll
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(rng > 0, 100.0 * (hh - s.close) / rng, 50.0)
    out[np.isnan(hh)] = np.nan
    return out


def _col_psy(s, period):
    up, _ = _updown_flags(s.close)
    out = 100.0 * _rolling_sum(up, period) / period
    if len(out) >= period:
        out[period - 1] = np.nan
    return out


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
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(trs > 0, 100.0 * dm / trs, 0.0)
    out[np.isnan(dm) | np.isnan(trs)] = np.nan
    return out


def _col_bias(s, period):
    ma = _rolling_mean(s.close, period)
    return 100.0 * (s.close - ma) / ma


def _col_vr(s, period):
    up, down = _updown_flags(s.close)
    uv = _rolling_sum(up * s.volume, period)
    dv = _rolling_sum(down * s.volume, period)
    with np.errstate(invalid="ignore", divide="ignore"):
        denom = uv + dv
        out = np.where(denom > 0, uv / denom, 0.5)
    out[np.isnan(uv)] = np.nan
    if len(out) >= period:
        out[period - 1] = np.nan
    return out


def _ratio_guard(num_sum, den_sum):
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(den_sum != 0, num_sum / den_sum, 1.0)
    out[np.isnan(num_sum) | np.isnan(den_sum)] = np.nan
    return out


def _col_ar(s, period):
    return _ratio_guard(_rolling_sum(s.high - s.open, period),
                        _rolling_sum(s.open - s.low, period))


def _col_br(s, period):
    prev_close = _shift(s.close, 1)
    prev_close[0] = s.close[0]
    num = _rolling_sum(s.high - prev_close, period)
    den = _rolling_sum(prev_close - s.low, period)
    out = _ratio_guard(num, den)
    if len(out) >= period:
        out[period - 1] = np.nan  # first window lacks a prior close for day 0
    return out


def _col_ll(s, period):
    return _shift(_rolling_min(s.low, period), 1)


def _col_hh(s, period):
    return _shift(_rolling_max(s.high, period), 1)


def _col_mp(s, period):
    return _shift(_rolling_median(s.close, period), 1)


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
    prev_close = _shift(s.close, 1)
    prev_close[0] = s.close[0]
    bp = s.close - np.minimum(s.low, prev_close)
    tr = np.maximum(s.high, prev_close) - np.minimum(s.low, prev_close)

    def avg(p):
        num = _rolling_sum(bp, p)
        den = _rolling_sum(tr, p)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(den > 0, num / den, 0.5)
        out[np.isnan(num)] = np.nan
        return out

    return (100.0 / 7.0) * (4.0 * avg(x) + 2.0 * avg(y) + avg(z))


def _col_ulcer(s, period):
    n = len(s.close)
    out = np.full(n, np.nan)
    # R_k(t): percent shortfall of close(t) from the highest high of the
    # previous k days, k = 1..period
    acc = np.zeros(n)
    count = np.zeros(n)
    for k in range(1, period + 1):
        hh_k = _shift(_rolling_max(s.high, k), 1)
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


def compute_feature(series: "OhlcvSeries", iid: IndicatorId, t: int,
                    warmup: int = 40) -> float:
    """Indicator value for day index t (0-based); t must be past the warm-up."""
    if t < warmup:
        raise IndicatorError(f"t={t} is inside the {warmup}-bar warm-up")
    if t >= len(series):
        raise IndicatorError(f"t={t} beyond series of length {len(series)}")
    return float(compute_column(series, iid)[t])


def compute_matrix(series: "OhlcvSeries", catalog=None, warmup: int = 40) -> np.ndarray:
    """Feature matrix with one row per day index in [warmup, len(series)-1]."""
    catalog = catalog or default_catalog()
    if len(series) <= warmup:
        raise IndicatorError(
            f"series has {len(series)} bars; more than the {warmup}-bar warm-up needed"
        )
    cols = [compute_column(series, iid)[warmup:] for iid in catalog]
    matrix = np.column_stack(cols)
    bad = np.flatnonzero(np.isnan(matrix).any(axis=0))
    if bad.size:
        labels = [catalog[j].label() for j in bad]
        raise IndicatorError(f"NaN past warm-up in columns {labels}")
    return matrix
