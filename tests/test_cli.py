"""The documented CLI session, run in-process on synthetic data."""

import csv
import json
import logging
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import TINY_SEARCHES, make_planted_splits, random_walk_series
from coevonet import baselines, cli, market_data, neural, synth
from coevonet.genome import complexity_of
from coevonet.neural import Topology
from coevonet.objectives import usable_cores


def _session(root: Path) -> None:
    data, run = root / "data", root / "run"
    steps = [
        ["ingest", "--synthetic", "--seed", "7", "--bars", "300", "--out", str(data)],
        ["baseline", "--data", str(data), "--method", "mrmr", "--k", "5", "--scg-iters", "20",
         "--out", str(root / "base")],
        ["search", "--data", str(data), "--algo", "nsga2", "--fe", "12", "--population", "6",
         "--cycles", "1", "--scg-iters", "20", "--runs", "1", "--out", str(run)],
        ["select", "--run", str(run), "--preset", "O2"],
        ["holdout-eval", "--data", str(data), "--run", str(run), "--preset", "O2",
         "--scg-iters", "30"],
        ["export", "--run", str(run), "--out", str(run / "front.csv")],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv[0]


def _artifacts(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "timing.json"}


@pytest.fixture(scope="module")
def sessions(tmp_path_factory):
    roots = [tmp_path_factory.mktemp(name) for name in ("first", "second")]
    for root in roots:
        _session(root)
    return roots


def test_session_writes_every_artifact(sessions):
    names = set(_artifacts(sessions[0]))
    for expected in ("data/ohlcv.csv", "data/splits/manifest.json",
                     "run/nsga2/seed-1/archive.jsonl", "run/nsga2/seed-1/generations.csv",
                     "run/merged/archive.jsonl", "run/selected/O2.json",
                     "run/holdout/O2.json", "run/front.csv",
                     "base/reduction.json", "base/rules.csv"):
        assert expected in names
    assert (sessions[0] / "run" / "timing.json").exists()


def test_session_reruns_byte_for_byte(sessions):
    first, second = (_artifacts(root) for root in sessions)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name


def test_generations_csv_holds_plain_numbers(sessions):
    lines = (sessions[0] / "run/nsga2/seed-1/generations.csv").read_text().splitlines()
    for line in lines[2:]:
        [float(field) for field in line.split(",")]


def test_ingest_reads_the_written_csv(sessions, tmp_path):
    data = sessions[0] / "data"
    windows = json.loads((data / "splits" / "manifest.json").read_text())["splits"]
    boundaries = [windows[name][0] for name in ("pr", "train", "test", "hold")]
    boundaries.append(windows["hold"][1])
    assert cli.main(["ingest", "--csv", str(data / "ohlcv.csv"), "--boundaries",
                     ",".join(boundaries), "--out", str(tmp_path)]) == 0
    for name in ("pr", "train", "test", "hold"):
        csv_name = f"splits/{name}.csv"
        assert (tmp_path / csv_name).read_bytes() == (data / csv_name).read_bytes(), name


def test_validation_error_exits_1(tmp_path):
    assert cli.main(["select", "--run", str(tmp_path / "missing")]) == 1


@pytest.mark.parametrize("algo", ["nsga2", "eagd"])
def test_search_without_budget_exits_1(sessions, tmp_path, algo):
    assert cli.main(["search", "--data", str(sessions[0] / "data"), "--algo", algo,
                     "--fe", "0", "--runs", "1", "--out", str(tmp_path)]) == 1


def test_baseline_hash_covers_scg_iters(sessions, tmp_path):
    headers = []
    for iters in ("5", "10"):
        out = tmp_path / iters
        assert cli.main(["baseline", "--data", str(sessions[0] / "data"), "--method", "mrmr",
                         "--k", "5", "--scg-iters", iters, "--out", str(out)]) == 0
        headers.append((out / "rules.csv").read_text().splitlines()[0])
    assert headers[0] != headers[1]


def test_topology_only_selection_scores_on_the_holdout(sessions, tmp_path):
    data, run = str(sessions[0] / "data"), str(tmp_path)
    steps = [
        ["search", "--data", data, "--algo", "topology-only", "--reduction-k", "5", "--fe", "4",
         "--population", "2", "--cycles", "1", "--scg-iters", "20", "--runs", "1",
         "--out", run],
        ["select", "--run", run, "--preset", "O2"],
        ["holdout-eval", "--data", data, "--run", run, "--preset", "O2", "--scg-iters", "30"],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv[0]
    record = json.loads((tmp_path / "holdout" / "O2.json").read_text())
    assert len(record["genome"]) == 16
    assert 0.0 <= record["balanced_error"] <= 1.0


@pytest.fixture(scope="module")
def algo_runs(sessions, tmp_path_factory):
    data = str(sessions[0] / "data")
    root = tmp_path_factory.mktemp("algos")
    for name, flags in TINY_SEARCHES.items():
        run = str(root / name)
        steps = [
            ["search", "--data", data, *flags, "--out", run],
            ["select", "--run", run, "--preset", "O2"],
            ["holdout-eval", "--data", data, "--run", run, "--preset", "O2",
             "--scg-iters", "10"],
            ["export", "--run", run],
        ]
        for argv in steps:
            assert cli.main(argv) == 0, (name, argv[0])
    return root


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def _topology(arch: dict) -> Topology:
    return Topology(tuple(tuple(layer) for layer in arch["layers"]))


@pytest.mark.parametrize("name", sorted(TINY_SEARCHES))
def test_every_artifact_describes_the_scored_architecture(sessions, algo_runs, name):
    run = algo_runs / name
    members = {row["genome"]: row for row in _jsonl(run / "merged" / "archive.jsonl")
               if row["record"] == "member"}
    splits, _ = market_data.load_splits(sessions[0] / "data" / "splits")
    if name.startswith("topology-only"):
        width = baselines.fit_reduction(name.rsplit("-", 1)[1], splits.d_train, 5).n_retained
    for row in members.values():
        arch = row["architecture"]
        assert complexity_of(arch["n_inputs"], _topology(arch),
                             splits.d_train.n_features) == row["c"]
        if name.startswith("topology-only"):
            assert arch["feature_indices"] is None and arch["n_inputs"] == width
        else:
            assert arch["n_inputs"] == len(arch["feature_indices"])
    selected = json.loads((run / "selected" / "O2.json").read_text())
    holdout = json.loads((run / "holdout" / "O2.json").read_text())
    for record in (selected, holdout):
        assert record["architecture"] == members[record["genome"]]["architecture"]
    with (run / "front.csv").open(newline="") as fh:
        front = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert {r["genome"] for r in front} == set(members)
    for r in front:
        arch = members[r["genome"]]["architecture"]
        assert int(r["n_features"]) == arch["n_inputs"]
        assert r["layers"] == _topology(arch).describe()


def test_archive_without_architecture_asks_for_a_new_search(algo_runs, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(algo_runs / "nsga2", run)
    merged = run / "merged" / "archive.jsonl"
    rows = _jsonl(merged)
    for row in rows:
        row.pop("architecture", None)
    merged.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
    for argv in (["select", "--run", str(run), "--preset", "O1"], ["export", "--run", str(run)]):
        assert cli.main(argv) == 1, argv[0]
        assert "rerun `coevonet search`" in capsys.readouterr().err
    assert not (run / "selected" / "O1.json").exists()


@pytest.fixture
def eight_column_data(tmp_path) -> str:
    """A data directory whose splits hold 8 feature columns, not the catalog's 68."""
    data = tmp_path / "data8"
    market_data.save_splits(make_planted_splits(n_features=8, seed=3), data / "splits")
    return str(data)


def test_search_prefix_is_as_wide_as_the_data(eight_column_data, tmp_path):
    run = tmp_path / "run"
    assert cli.main(["search", "--data", eight_column_data, "--fe", "12", "--population", "4",
                     "--cycles", "1", "--scg-iters", "10", "--runs", "2",
                     "--out", str(run)]) == 0
    members = [row for row in _jsonl(run / "merged" / "archive.jsonl")
               if row["record"] == "member"]
    assert members
    for row in members:
        assert len(row["genome"]) == 8 + 16
        assert all(0 <= i < 8 for i in row["architecture"]["feature_indices"])


def test_holdout_eval_of_a_run_on_other_data_names_the_genome_length(
        sessions, eight_column_data, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(sessions[0] / "run", run)      # searched on the 68 catalog columns
    record = (run / "holdout" / "O2.json").read_bytes()
    assert cli.main(["holdout-eval", "--data", eight_column_data, "--run", str(run),
                     "--preset", "O2", "--scg-iters", "5"]) == 1
    assert "genome length 84 differs from the expected 24" in capsys.readouterr().err
    assert (run / "holdout" / "O2.json").read_bytes() == record


def test_holdout_eval_cycles_0_exits_1(sessions, capsys, monkeypatch):
    forks = _count_forks(monkeypatch)
    root = sessions[0]
    assert cli.main(["holdout-eval", "--data", str(root / "data"), "--run", str(root / "run"),
                     "--preset", "O2", "--cycles", "0"]) == 1
    assert "cycles must be >= 1" in capsys.readouterr().err
    assert forks == []


def _count_forks(monkeypatch) -> list[int]:
    """The pid of every ``os.fork`` call from now on, in call order."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def test_baseline_k_0_exits_1_before_forking(sessions, tmp_path, capsys, monkeypatch):
    forks = _count_forks(monkeypatch)
    assert cli.main(["baseline", "--data", str(sessions[0] / "data"), "--method", "mrmr",
                     "--k", "0", "--scg-iters", "5", "--out", str(tmp_path / "base")]) == 1
    assert "k=0 outside [1, 68]" in capsys.readouterr().err
    assert forks == []      # the reduction is fitted before the rule trainings fork workers
    assert not (tmp_path / "base").exists()


def test_eagd_population_0_exits_1(sessions, tmp_path, capsys, monkeypatch):
    forks = _count_forks(monkeypatch)
    assert cli.main(["search", "--data", str(sessions[0] / "data"), "--algo", "eagd",
                     "--population", "0", "--fe", "5", "--runs", "1", "--cycles", "2",
                     "--out", str(tmp_path)]) == 1
    assert "population must be >= 2" in capsys.readouterr().err
    assert forks == []      # refused before a multi-cycle search forks its workers


@pytest.mark.parametrize("flags, config, message", [
    (["--population", "3", "--cycles", "2"], None, "population must be even and >= 2"),
    (["--cycles", "0"], None, "cycles must be >= 1"),
    # a config file's value reaches the settings without the flag's choices
    (["--algo", "scalarized", "--cycles", "2"], {"scenario": "bogus"},
     "unknown scenario 'bogus'"),
    (["--algo", "topology-only", "--cycles", "2"], {"reduction": "lasso"},
     "unknown reduction 'lasso'"),
    # the bound depends on the data: the reduction is fitted before any worker forks
    (["--algo", "topology-only", "--reduction-k", "0", "--cycles", "2"], None,
     "k=0 outside [1, 68]"),
    (["--algo", "topology-only", "--reduction-k", "69", "--cycles", "2"], None,
     "k=69 outside [1, 68]"),
], ids=["odd-population", "cycles-0", "config-scenario", "config-reduction", "reduction-k-0",
        "reduction-k-above-width"])
def test_search_setting_no_run_could_use_exits_1_before_forking(
        sessions, tmp_path, capsys, monkeypatch, flags, config, message):
    forks = _count_forks(monkeypatch)
    argv = ["search", "--data", str(sessions[0] / "data"), "--fe", "4", "--runs", "1",
            "--scg-iters", "5", "--out", str(tmp_path / "run"), *flags]
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "c.json")]
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err
    assert forks == []
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flags", [["--algo", "random", "--population", "1", "--cycles", "2"],
                                   ["--algo", "eagd", "--population", "7", "--cycles", "1"]],
                         ids=["random-ignores-population", "eagd-odd-population"])
def test_search_population_the_engine_accepts_runs(sessions, tmp_path, flags):
    assert cli.main(["search", "--data", str(sessions[0] / "data"), "--fe", "4", "--runs", "1",
                     "--scg-iters", "5", "--out", str(tmp_path), *flags]) == 0
    assert (tmp_path / "merged" / "archive.jsonl").exists()


def _refused_holdout_eval(sessions, tmp_path, edit_header) -> Path:
    """A copy of the session's run whose merged header ``edit_header`` changed in place;
    ``holdout-eval`` of it must exit 1 and leave its hold-out record as it was."""
    run = tmp_path / "run"
    shutil.copytree(sessions[0] / "run", run)
    merged = run / "merged" / "archive.jsonl"
    rows = _jsonl(merged)
    edit_header(rows[0])
    merged.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
    record = (run / "holdout" / "O2.json").read_bytes()
    assert cli.main(["holdout-eval", "--data", str(sessions[0] / "data"), "--run", str(run),
                     "--preset", "O2", "--scg-iters", "5"]) == 1
    assert (run / "holdout" / "O2.json").read_bytes() == record
    return run


def test_holdout_eval_of_an_archive_without_settings_names_it(sessions, tmp_path, capsys):
    run = _refused_holdout_eval(sessions, tmp_path, lambda header: header.pop("settings"))
    assert (f"the merged archive under {run} records no search settings"
            in capsys.readouterr().err)


@pytest.mark.parametrize("edit, named", [
    (lambda settings: settings.update(learning_generations=8),
     "unknown: ['learning_generations'], missing: []"),
    (lambda settings: settings.pop("cycles"), "unknown: [], missing: ['cycles']"),
], ids=["unknown-key", "missing-key"])
def test_holdout_eval_of_settings_this_version_does_not_take_names_them(
        sessions, tmp_path, capsys, edit, named):
    run = _refused_holdout_eval(sessions, tmp_path, lambda header: edit(header["settings"]))
    err = capsys.readouterr().err
    assert f"the merged archive under {run} records search settings" in err
    assert named in err


@pytest.mark.parametrize("key, value, named", [
    ("cycles", "2", "search setting cycles must be int, got '2'"),
    ("runs", True, "search setting runs must be int, got True"),
    ("scg_max_iter", 20.0, "search setting scg_max_iter must be int, got 20.0"),
    ("algorithm", 1, "search setting algorithm must be str, got 1"),
], ids=["text-for-int", "bool-for-int", "float-for-int", "int-for-text"])
def test_holdout_eval_of_settings_of_the_wrong_type_names_them(
        sessions, tmp_path, capsys, key, value, named):
    _refused_holdout_eval(sessions, tmp_path,
                          lambda header: header["settings"].update({key: value}))
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("step", ["search", "baseline", "holdout-eval"])
def test_negative_scg_budget_exits_1(sessions, tmp_path, capsys, monkeypatch, step):
    forks = _count_forks(monkeypatch)
    data, run = str(sessions[0] / "data"), str(sessions[0] / "run")
    argv = {"search": ["search", "--data", data, "--fe", "4", "--population", "4",
                       "--cycles", "2", "--runs", "1", "--out", str(tmp_path)],
            "baseline": ["baseline", "--data", data, "--k", "5", "--out", str(tmp_path)],
            "holdout-eval": ["holdout-eval", "--data", data, "--run", run, "--preset", "O2",
                             "--cycles", "2"]}
    assert cli.main([*argv[step], "--scg-iters", "-1"]) == 1
    assert "max_iter -1 must be non-negative" in capsys.readouterr().err
    assert forks == []      # refused before the step forks workers for its trainings


def test_ingest_csv_outside_default_windows_names_the_way_out(sessions, tmp_path, capsys):
    csv_path = sessions[0] / "data" / "ohlcv.csv"
    rows = [line.split(",")[0] for line in csv_path.read_text().splitlines()
            if line[:1].isdigit()]
    assert cli.main(["ingest", "--csv", str(csv_path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "matched no patterns" in err
    assert f"from {rows[0]} to {rows[-1]}" in err
    assert "--boundaries" in err and "splits/manifest.json" in err


@pytest.mark.parametrize("bad, reason", [("2018-13-01", "month must be in 1..12"),
                                         ("soon", "Invalid isoformat string")])
def test_ingest_boundary_that_is_no_date_is_named(sessions, tmp_path, capsys, bad, reason):
    boundaries = ",".join(["2017-01-02", bad, "2019-01-02", "2020-01-02", "2021-01-02"])
    assert cli.main(["ingest", "--csv", str(sessions[0] / "data" / "ohlcv.csv"),
                     "--boundaries", boundaries, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --boundaries: cannot read {bad!r} ({reason}")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_ingest_csv_with_a_non_finite_value_names_the_bar(sessions, tmp_path, capsys, value):
    lines = (sessions[0] / "data" / "ohlcv.csv").read_text().splitlines()
    day, _, rest = lines[2].split(",", 2)
    lines[2] = ",".join([day, value, rest])
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    assert cli.main(["ingest", "--csv", str(tmp_path / "bad.csv"),
                     "--out", str(tmp_path / "data")]) == 1
    assert capsys.readouterr().err == f"error: {day}: non-finite open {value}\n"


@pytest.mark.parametrize("rank", ["cv=1,c", "cv=1,c=x,pr=3", "cv=1,c=2=3,pr=3", "cv=1,c=2"])
def test_malformed_rank_is_a_validation_error(sessions, capsys, rank):
    assert cli.main(["select", "--run", str(sessions[0] / "run"), "--rank", rank]) == 1
    err = capsys.readouterr().err
    assert f"--rank {rank!r}: expected cv=..,c=..,pr=.. with integer ranks" in err


def test_ingest_reports_label_balance_and_warns_on_one_class(tmp_path, capsys, caplog):
    walk = random_walk_series(1300, 3, start="2016-06-01")
    rising = 100.0 * np.exp(0.002 * np.arange(len(walk)))   # every next close is higher
    series = market_data.OhlcvSeries(walk.dates, rising * 0.999, rising * 1.003,
                                     rising * 0.997, rising, walk.volume)
    synth.save_series_csv(series, tmp_path / "rising.csv")
    with caplog.at_level(logging.WARNING, logger="coevonet.cli"):
        assert cli.main(["ingest", "--csv", str(tmp_path / "rising.csv"),
                         "--out", str(tmp_path / "data")]) == 0
    counts = json.loads((tmp_path / "data" / "splits" / "manifest.json").read_text())["counts"]
    shown = ", ".join(f"{name} {counts[name]}/{counts[name]} (100%)"
                      for name in ("pr", "train", "test", "hold"))
    assert f"ingest: up days {shown}\n" in capsys.readouterr().out
    warned = [r.getMessage() for r in caplog.records if "one class only" in r.getMessage()]
    assert [m.split()[1] for m in warned] == ["pr", "train", "test", "hold"]


def test_ingest_balance_of_the_synthetic_data(tmp_path, capsys):
    assert cli.main(["ingest", "--synthetic", "--seed", "7", "--bars", "700",
                     "--out", str(tmp_path)]) == 0
    assert ("ingest: up days pr 127/250 (51%), train 94/231 (41%), test 8/89 (9%), "
            "hold 30/89 (34%)") in capsys.readouterr().out


def _ingested(out: Path) -> tuple[int, int]:
    """(bars, master seed) of an ``ingest --synthetic`` output directory."""
    bars = len((out / "ohlcv.csv").read_text().splitlines()) - 1
    return bars, json.loads((out / "splits" / "manifest.json").read_text())["master_seed"]


@pytest.mark.parametrize("name, text", [("c.json", '{"bars": 300, "seed": 3}'),
                                        ("c.toml", "bars = 300\nseed = 3\n"),
                                        ("c.json", '{"bars": 300, "seed": 3, "noise": null}')])
def test_config_file_sets_the_defaults(tmp_path, name, text):
    (tmp_path / name).write_text(text)
    assert cli.main(["ingest", "--synthetic", "--config", str(tmp_path / name),
                     "--out", str(tmp_path / "data")]) == 0
    assert _ingested(tmp_path / "data") == (300, 3)


def test_explicit_flags_beat_the_config_file(tmp_path):
    # --seed 7 is also the parser's default: given explicitly, it still wins
    (tmp_path / "c.json").write_text('{"bars": 300, "seed": 3}')
    assert cli.main(["ingest", "--synthetic", "--config", str(tmp_path / "c.json"),
                     "--seed", "7", "--bars", "310", "--out", str(tmp_path / "data")]) == 0
    assert _ingested(tmp_path / "data") == (310, 7)


@pytest.mark.parametrize("argv, text, option", [
    (["ingest", "--synthetic"], '{"bars": 300.7}', "--bars"),
    (["ingest", "--synthetic"], '{"bars": "abc"}', "--bars"),
    (["search", "--data", "absent"], '{"fe": 1.5}', "--fe"),
])
def test_config_value_the_option_refuses_is_a_validation_error(tmp_path, capsys, argv, text,
                                                                option):
    (tmp_path / "c.json").write_text(text)
    assert cli.main(argv + ["--config", str(tmp_path / "c.json"),
                            "--out", str(tmp_path / "out")]) == 1
    assert f"argument {option}: invalid int value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_only_a_step_with_several_trainings_forks_training_workers(
        sessions, tmp_path, monkeypatch):
    forks = _count_forks(monkeypatch)
    data, run = str(sessions[0] / "data"), tmp_path / "run"
    shutil.copytree(sessions[0] / "run", run)
    search = ["search", "--data", data, "--algo", "nsga2", "--fe", "4", "--population", "2",
              "--scg-iters", "5", "--runs", "2"]
    holdout = ["holdout-eval", "--data", data, "--run", str(run), "--preset", "O2",
               "--scg-iters", "5"]
    for argv in ([*search, "--cycles", "1", "--out", str(tmp_path / "one")],
                 [*holdout, "--cycles", "1"]):
        assert cli.main(argv) == 0, argv[0]
    assert forks == []
    several_trainings_steps = [
        ["baseline", "--data", data, "--method", "mrmr", "--k", "5", "--scg-iters", "5",
         "--out", str(tmp_path / "base")],
        [*holdout, "--cycles", "2"],
        [*search, "--cycles", "2", "--out", str(tmp_path / "two")],
    ]
    for argv in several_trainings_steps:
        forks.clear()
        assert cli.main(argv) == 0, argv[0]
        # once per step, not per run or per training
        assert forks == [os.getpid()] * usable_cores(), argv[0]


@pytest.mark.parametrize("step, trainings", [("baseline", len(baselines.RULES)),
                                             ("holdout-eval", 3)])
def test_every_step_training_calls_scg_train_in_this_process(
        sessions, tmp_path, monkeypatch, step, trainings):
    callers = []    # (process, thread) of every scg_train call
    train = neural.scg_train

    def counted(*args, **kwargs):
        callers.append((os.getpid(), threading.get_ident()))
        return train(*args, **kwargs)

    monkeypatch.setattr(neural, "scg_train", counted)
    forks = _count_forks(monkeypatch)
    data, run = str(sessions[0] / "data"), tmp_path / "run"
    shutil.copytree(sessions[0] / "run", run)
    argv = {"baseline": ["baseline", "--data", data, "--method", "mrmr", "--k", "5",
                         "--scg-iters", "5", "--out", str(tmp_path / "base")],
            "holdout-eval": ["holdout-eval", "--data", data, "--run", str(run), "--preset", "O2",
                             "--cycles", "3", "--scg-iters", "5"]}
    assert cli.main(argv[step]) == 0
    assert forks        # the trainings were minimized on the workers
    assert callers == [(os.getpid(), threading.get_ident())] * trainings


def _search_in_new_session(data, out, fe, scg_iters):
    """A two-cycle ``coevonet search`` leading a process group of its own."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.Popen(
        [sys.executable, "-m", "coevonet.cli", "search", "--data", str(data), "--algo", "nsga2",
         "--fe", str(fe), "--population", "4", "--cycles", "2", "--scg-iters", str(scg_iters),
         "--runs", "2", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, start_new_session=True)


def _group_is_gone(pgid, timeout):
    """Whether the process group empties within ``timeout`` seconds; if not, kill it."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
            return False
        time.sleep(0.05)


def test_multi_cycle_search_leaves_no_process_behind(sessions, tmp_path):
    with _search_in_new_session(sessions[0] / "data", tmp_path / "run", fe=6,
                                scg_iters=5) as proc:
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert _group_is_gone(proc.pid, timeout=0)     # every worker was joined


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers end with their "
                    "parent on Linux only")
def test_workers_of_a_killed_search_end_with_it(sessions, tmp_path):
    def group_size(pgid):
        size = 0
        for stat in Path("/proc").glob("[0-9]*/stat"):
            try:
                size += int(stat.read_text().rsplit(")", 1)[1].split()[2]) == pgid
            except (OSError, IndexError, ValueError):
                pass        # the process ended while being read
        return size

    with _search_in_new_session(sessions[0] / "data", tmp_path / "run", fe=200,
                                scg_iters=200) as proc:
        try:
            deadline = time.monotonic() + 60
            while group_size(proc.pid) < 1 + usable_cores() and time.monotonic() < deadline:
                time.sleep(0.05)
            workers_started = group_size(proc.pid) == 1 + usable_cores()
        finally:
            proc.kill()     # the step alone: its workers must notice by themselves
            proc.wait(timeout=30)
            workers_ended = _group_is_gone(proc.pid, timeout=30)
    assert workers_started and workers_ended


STATS_TABLE = """# balanced error per run
run,coevo,mrmr,pca,cfs
r1,0.21,0.30,0.30,0.28
r2,0.19,0.27,0.31,0.27
r3,0.25,0.25,0.33,0.29
r4,0.22,0.31,0.29,0.30
r5,0.18,0.26,0.34,0.26
r6,0.20,0.28,0.30,0.31
"""


def test_stats_matches_the_scipy_p_values(tmp_path):
    # p-values as the scipy-backed implementation wrote them for this table
    table, out = tmp_path / "table.csv", tmp_path / "stats.json"
    table.write_text(STATS_TABLE)
    assert cli.main(["stats", "--table", str(table), "--table-has-index",
                     "--lower-is-better", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["control"] == "coevo"
    friedman = result["friedman"]
    assert friedman["statistic"] == 10.75
    assert friedman["mean_ranks"] == {"cfs": 2.8333333333333335, "coevo": 1.0833333333333333,
                                      "mrmr": 2.6666666666666665, "pca": 3.4166666666666665}
    assert abs(friedman["p_value"] - 0.01315745941944366) <= 1e-12
    expected = {"mrmr": (0.016824012937380815, 0.016824012937380815),
                "pca": (0.0008725593497644525, 0.0026176780492933576),
                "cfs": (0.009440520078049386, 0.016824012937380815)}
    assert [row["method"] for row in result["hommel"]] == list(expected)
    for row in result["hommel"]:
        p_value, apv = expected[row["method"]]
        assert abs(row["p_value"] - p_value) <= 1e-12
        assert abs(row["apv"] - apv) <= 1e-12
        assert row["reject"] is True


def _modules_loaded_by_cli_import(package):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    probe = ("import sys, coevonet.cli; "
             f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    assert _modules_loaded_by_cli_import("scipy") == "[]"


def test_cli_import_leaves_multiprocessing_unloaded():
    # only a multi-cycle search needs it, and it costs every step time and memory
    assert _modules_loaded_by_cli_import("multiprocessing") == "[]"


def test_every_package_export_resolves():
    import coevonet
    assert [name for name in coevonet.__all__ if not hasattr(coevonet, name)] == []


def test_stats_row_of_the_wrong_length_is_a_validation_error(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text(STATS_TABLE.replace("r3,0.25,0.25,0.33,0.29", "r3,0.25,0.25,0.33"))
    assert cli.main(["stats", "--table", str(table), "--table-has-index"]) == 1
    err = capsys.readouterr().err
    assert f"{table}: row 3 has 3 values, but the header names 4 methods" in err


def test_stats_cell_that_is_no_number_is_named(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text(STATS_TABLE.replace("r2,0.19,0.27,0.31,0.27", "r2,0.19,0.27,x,0.27"))
    assert cli.main(["stats", "--table", str(table), "--table-has-index"]) == 1
    err = capsys.readouterr().err
    assert f"{table}: row 2, method pca: cannot read 'x'" in err
