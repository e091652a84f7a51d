import numpy as np

from coevonet import market_data, synth


def test_series_csv_round_trip(tmp_path):
    series, _, _ = synth.synth_generate(synth.SynthSpec(n_bars=120), seed=3)
    path = tmp_path / "ohlcv.csv"
    synth.save_series_csv(series, path)
    loaded = market_data.load_ohlcv_csv(path)
    for column in ("dates", "open", "high", "low", "close", "volume"):
        assert np.array_equal(getattr(loaded, column), getattr(series, column)), column
