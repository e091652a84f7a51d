import numpy as np

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
