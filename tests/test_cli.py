"""The documented CLI session, run in-process on synthetic data."""

import json
from pathlib import Path

import pytest

from coevonet import cli


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
