import hashlib

import numpy as np
import pytest

from coevonet import indicators, market_data, synth


def test_series_csv_round_trip(tmp_path):
    series, _, _ = synth.synth_generate(synth.SynthSpec(n_bars=120), seed=3)
    path = tmp_path / "ohlcv.csv"
    synth.save_series_csv(series, path)
    loaded = market_data.load_ohlcv_csv(path)
    for column in ("dates", "open", "high", "low", "close", "volume"):
        assert np.array_equal(getattr(loaded, column), getattr(series, column)), column


def test_noise_free_labels_are_the_sign_of_the_planted_score():
    spec = synth.SynthSpec(n_bars=200, noise=0.0)
    series, _, _ = synth.synth_generate(spec, seed=3)
    catalog = indicators.default_catalog()
    # the indicators are causal, so full-series columns equal the prefix values
    score = sum(w * (indicators.compute_column(
                    series, catalog[indicators.catalog_index(catalog, label)]) - mid) / scale
                for label, mid, scale, w in spec.planted)
    t = np.arange(market_data.WARMUP_BARS, len(series) - 1)
    moves = series.close[t + 1] - series.close[t]
    labels = market_data.build_patterns(series).labels
    assert np.all(moves != 0.0)
    assert np.array_equal(labels, moves > 0.0)
    assert np.array_equal(labels, score[t] > 0.0)


# sha256 of save_series_csv output, recorded from the bar-by-bar walk
SERIES_CSV_SHA256 = {
    (7, 700, 0.15): "a1424a9396274a8f7e6bea7c86d4bfc86b3a0c940c50691b81e4a2a4bf2ef612",
    (3, 2800, 0.15): "dc9aa28ec90d22a52f7db2c1825931025af7566a1051375bd0000abad41d4be6",
    (5, 300, 0.0): "336f88c645b7d6f60823108b135ae0588348f273e24d93fb5ea3f3b8c2b62634",
    (5, 300, 1.0): "08025c81d642ed4ad24fa16c023b1339f84b6d78ac9c7fde864a35ad28684fd8",
}


@pytest.mark.parametrize("seed, bars, noise", sorted(SERIES_CSV_SHA256))
def test_series_bytes_match_the_recorded_walk(tmp_path, seed, bars, noise):
    series, _, _ = synth.synth_generate(synth.SynthSpec(n_bars=bars, noise=noise), seed)
    synth.save_series_csv(series, tmp_path / "ohlcv.csv")
    digest = hashlib.sha256((tmp_path / "ohlcv.csv").read_bytes()).hexdigest()
    assert digest == SERIES_CSV_SHA256[seed, bars, noise]


def walk_bar_by_bar(spec, seed):
    """The reference walk: the planted columns recomputed on each prefix, one bar at a time."""
    rng = np.random.default_rng(seed)
    catalog = indicators.default_catalog()
    planted_ids = [catalog[indicators.catalog_index(catalog, label)]
                   for label, _, _, _ in spec.planted]
    n = spec.n_bars
    closes, opens, highs, lows, volumes = (np.empty(n) for _ in range(5))

    def fill_bar(t, close, prev_close):
        closes[t] = close
        opens[t] = prev_close * float(np.exp(rng.normal(0.0, synth.DAILY_VOL / 3.0)))
        hi = max(opens[t], close)
        lo = min(opens[t], close)
        highs[t] = hi * float(np.exp(abs(rng.normal(0.0, synth.DAILY_VOL / 2.0))))
        lows[t] = lo * float(np.exp(-abs(rng.normal(0.0, synth.DAILY_VOL / 2.0))))
        volumes[t] = float(np.round(1e6 * np.exp(rng.normal(0.0, 0.3))))

    closes[0] = opens[0] = synth.BASE_PRICE
    highs[0] = synth.BASE_PRICE * 1.002
    lows[0] = synth.BASE_PRICE * 0.998
    volumes[0] = 1e6
    burn_in = market_data.WARMUP_BARS
    for t in range(1, burn_in + 1):
        fill_bar(t, closes[t - 1] * float(np.exp(rng.normal(0.0, synth.DAILY_VOL))), closes[t - 1])
    day0 = np.datetime64("2000-01-03")
    for t in range(burn_in, n - 1):
        prefix = market_data.OhlcvSeries(
            np.arange(day0, day0 + (t + 1), dtype="datetime64[D]"),
            opens[:t + 1], highs[:t + 1], lows[:t + 1], closes[:t + 1], volumes[:t + 1])
        score = 0.0
        for iid, (_, mid, scale, w) in zip(planted_ids, spec.planted):
            score += w * (float(indicators.compute_column(prefix, iid)[t]) - mid) / scale
        if rng.random() < spec.noise:
            up = rng.random() < 0.5
        else:
            up = score > 0.0
        magnitude = abs(rng.normal(0.0, synth.DAILY_VOL)) + 1e-6
        fill_bar(t + 1, closes[t] * float(np.exp(magnitude if up else -magnitude)), closes[t])
    return opens, highs, lows, closes, volumes


# recursive (ema, stoch_k, macd) and median (mp) families; the ema and median
# terms pull the price back to 100, so every series below changes direction
# many times and takes 13-26 rounds to settle
RECURSIVE_PLANTED = (("ema_10", 100.0, 2.0, -1.0), ("stoch_k_5", 50.0, 50.0, 1.0))
MEDIAN_PLANTED = (("macd_9", 0.0, 0.3, -1.0), ("mp_10", 100.0, 3.0, -0.5))


@pytest.mark.parametrize("seed, bars, noise, planted", [
    (1, 60, 0.15, None), (2, 150, 0.0, None), (3, 300, 0.15, None), (4, 200, 0.5, None),
    (5, 120, 1.0, None), (6, 300, 0.0, RECURSIVE_PLANTED), (7, 250, 0.15, RECURSIVE_PLANTED),
    (8, 300, 0.0, MEDIAN_PLANTED), (9, 250, 0.5, MEDIAN_PLANTED),
])
def test_fixed_point_equals_the_bar_by_bar_walk(seed, bars, noise, planted):
    spec = synth.SynthSpec(n_bars=bars, noise=noise)
    if planted is not None:
        spec.planted = planted
    series, _, _ = synth.synth_generate(spec, seed)
    expected = walk_bar_by_bar(spec, seed)
    got = (series.open, series.high, series.low, series.close, series.volume)
    for name, a, b in zip(("open", "high", "low", "close", "volume"), got, expected):
        assert a.tobytes() == b.tobytes(), name


def test_directions_that_never_settle_raise(monkeypatch):
    # a column that reads the next bar makes each round flip every direction
    def next_move_down(series, iid):
        return np.append(series.close[:-1] - series.close[1:], 0.0)

    monkeypatch.setattr(indicators, "compute_column", next_move_down)
    spec = synth.SynthSpec(n_bars=60, noise=0.0, planted=(("close", 0.0, 1.0, 1.0),))
    with pytest.raises(synth.SynthError, match="did not settle within 20 rounds"):
        synth.synth_generate(spec, seed=1)
