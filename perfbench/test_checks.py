"""Each output check passes on real artifacts and fails on a corrupted copy.

Run from the repository root: python3 -m pytest -q perfbench
The artifacts come from one tiny CLI session run in-process.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import tracer

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from coevonet import cli, moea  # noqa: E402
from coevonet.decision import PreferenceSpec, mtd_select, preference_weights  # noqa: E402
from coevonet.objectives import ObjectiveVector  # noqa: E402

BARS = 200
FE = 12
HOLDOUT_CYCLES = 2


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    root = tmp_path_factory.mktemp("session")
    data, run, base = root / "data", root / "run", root / "base"
    steps = [
        ["ingest", "--synthetic", "--seed", "7", "--bars", str(BARS), "--out", str(data)],
        ["search", "--data", str(data), "--algo", "nsga2", "--fe", str(FE), "--runs", "1",
         "--population", "4", "--cycles", "1", "--scg-iters", "3", "--out", str(run)],
        ["select", "--run", str(run), "--preset", "O2"],
        ["holdout-eval", "--data", str(data), "--run", str(run), "--preset", "O2",
         "--cycles", str(HOLDOUT_CYCLES), "--scg-iters", "5"],
        ["export", "--run", str(run), "--out", str(run / "front.csv")],
        ["baseline", "--data", str(data), "--scg-iters", "3", "--out", str(base)],
        ["ingest", "--synthetic", "--seed", "7", "--bars", str(BARS), "--out", str(root / "again")],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv
    return root


@pytest.fixture
def copy(session, tmp_path):
    """A writable copy of the session artifacts."""
    target = tmp_path / "copy"
    shutil.copytree(session, target)
    return target


def members_of(root):
    return checks.read_members(root / "run" / "merged" / "archive.jsonl")


def rewrite_csv_cell(path: Path, row: int, column: int, fn) -> None:
    lines = path.read_text().splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    cells = lines[body[row]].split(",")
    cells[column] = fn(cells[column])
    lines[body[row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_real_session_passes_every_check(session):
    data, run = session / "data", session / "run"
    checks.check_labels(data)
    checks.check_splits(data, BARS)
    checks.check_standardized(data)
    checks.check_identical_trees(data, session / "again")
    members = members_of(session)
    checks.check_nondominated(members)
    checks.check_members(members)
    assert checks.check_fe_budget(run, "nsga2", 1, FE) == FE
    program_hv = moea.hypervolume([o for _, o in members], checks.HV_REFERENCE)
    checks.check_hypervolume(members, program_hv)
    checks.check_selection(members, run / "selected" / "O2.json", "O2")
    counts = checks.manifest(data)["counts"]
    checks.check_holdout(run / "holdout" / "O2.json", HOLDOUT_CYCLES, counts["hold"])
    checks.check_export(run / "front.csv", members)
    reduction = json.loads((session / "base" / "reduction.json").read_text())
    checks.check_rules(session / "base" / "rules.csv", reduction["n_retained"], counts["train"])


def test_flipped_label_fails(copy):
    rewrite_csv_cell(copy / "data" / "splits" / "train.csv", 3, -1,
                     lambda v: "0" if v == "1" else "1")
    with pytest.raises(checks.CheckError, match="label"):
        checks.check_labels(copy / "data")


def test_overlapping_windows_fail(copy):
    train = copy / "data" / "splits" / "train.csv"
    pr_dates = [line.split(",")[0] for line in
                (copy / "data" / "splits" / "pr.csv").read_text().splitlines()[1:]]
    rewrite_csv_cell(train, 1, 0, lambda _: pr_dates[-1])
    with pytest.raises(checks.CheckError, match="train"):
        checks.check_splits(copy / "data", BARS)


def test_wrong_split_total_fails(copy):
    with pytest.raises(checks.CheckError, match="sum to"):
        checks.check_splits(copy / "data", BARS + 1)


def test_unstandardized_column_fails(copy):
    train = copy / "data" / "splits" / "train.csv"
    rewrite_csv_cell(train, 2, 5, lambda v: repr(float(v) + 0.5))
    with pytest.raises(checks.CheckError, match="column 4"):
        checks.check_standardized(copy / "data")


def test_second_ingest_that_differs_fails(copy):
    manifest = copy / "again" / "splits" / "manifest.json"
    manifest.write_text(manifest.read_text() + " ")
    with pytest.raises(checks.CheckError, match="manifest.json differs"):
        checks.check_identical_trees(copy / "data", copy / "again")


def test_injected_dominated_member_fails(session):
    members = members_of(session)
    genome, (e_cv, c, e_pr) = members[0]
    worse = ("1" * len(genome), (min(e_cv + 0.01, 1.0), min(c + 0.01, 1.0), min(e_pr + 0.01, 1.0)))
    with pytest.raises(checks.CheckError, match="dominates"):
        checks.check_nondominated(members + [worse])


def test_wrong_complexity_fails(session):
    genome, (e_cv, c, e_pr) = members_of(session)[0]
    with pytest.raises(checks.CheckError, match="bits give"):
        checks.check_members([(genome, (e_cv, c + 1e-9, e_pr))])


def test_objective_out_of_range_fails(session):
    genome, (e_cv, c, e_pr) = members_of(session)[0]
    with pytest.raises(checks.CheckError, match="outside"):
        checks.check_members([(genome, (1.5, c, e_pr))])


def test_fe_budget_mismatch_fails(session):
    with pytest.raises(checks.CheckError, match="budget"):
        checks.check_fe_budget(session / "run", "nsga2", 1, FE + 1)


def test_swapped_selection_fails(copy):
    members = members_of(copy)
    path = copy / "run" / "selected" / "O2.json"
    record = json.loads(path.read_text())
    other = next(g for g, _ in members if g != record["genome"])
    record["genome"] = other
    path.write_text(json.dumps(record))
    with pytest.raises(checks.CheckError, match="tournament gives"):
        checks.check_selection(members, path, "O2")


def test_fractional_holdout_count_fails(copy):
    path = copy / "run" / "holdout" / "O2.json"
    record = json.loads(path.read_text())
    record["accuracy"] += 0.001
    path.write_text(json.dumps(record))
    hold = checks.manifest(copy / "data")["counts"]["hold"]
    with pytest.raises(checks.CheckError, match="not whole"):
        checks.check_holdout(path, HOLDOUT_CYCLES, hold)


def test_export_row_that_differs_fails(copy):
    front = copy / "run" / "front.csv"
    rewrite_csv_cell(front, 1, 4, lambda v: str(int(v) + 1))
    with pytest.raises(checks.CheckError, match="popcount"):
        checks.check_export(front, members_of(copy))


def test_missing_export_row_fails(copy):
    front = copy / "run" / "front.csv"
    lines = front.read_text().splitlines()
    front.write_text("\n".join(lines[:-1]) + "\n")
    members = members_of(copy)
    assert len(members) >= 2
    with pytest.raises(checks.CheckError, match="differ from the archive"):
        checks.check_export(front, members)


def test_wrong_rule_size_fails(copy):
    rules = copy / "base" / "rules.csv"
    rewrite_csv_cell(rules, 1, 1, lambda v: str(int(v) + 1))
    train = checks.manifest(copy / "data")["counts"]["train"]
    with pytest.raises(checks.CheckError, match="formula gives"):
        checks.check_rules(rules, 17, train)


def test_hypervolume_off_by_more_than_tolerance_fails(session):
    members = members_of(session)
    program_hv = moea.hypervolume([o for _, o in members], checks.HV_REFERENCE)
    with pytest.raises(checks.CheckError, match="lattice"):
        checks.check_hypervolume(members, program_hv + 1e-9)


def test_lattice_hypervolume_known_values():
    assert checks.lattice_hypervolume([(0.5, 0.5, 0.5)]) == 0.125
    # two boxes overlapping in [0.5, 1]^3
    two = [(0.0, 0.5, 0.5), (0.5, 0.0, 0.5)]
    assert checks.lattice_hypervolume(two) == pytest.approx(0.25 + 0.25 - 0.125, abs=1e-15)


def test_lattice_hypervolume_matches_program_on_random_fronts():
    rng = np.random.default_rng(3)
    for n in (1, 5, 40):
        pts = rng.random((n, 3))
        assert abs(checks.lattice_hypervolume(pts)
                   - moea.hypervolume(pts, checks.HV_REFERENCE)) <= 1e-12


def test_tournament_matches_program_on_random_archives():
    rng = np.random.default_rng(5)
    for preset, rankings in checks.MTD_RANKINGS.items():
        pts = rng.random((25, 3))
        members = [(f"{i:08b}", tuple(p)) for i, p in enumerate(pts)]
        weights = preference_weights(PreferenceSpec(rankings))
        assert np.allclose(checks.mtd_weights(rankings), weights, rtol=0, atol=1e-15)
        rows = [(g, ObjectiveVector(*o)) for g, o in members]
        expected = rows[mtd_select(rows, weights).selected_index][0]
        assert checks.mtd_choice(members, rankings) == expected, preset


def test_rule_sizes_match_program():
    from coevonet import baselines
    for rule, sizes in checks.rule_sizes(17, 966).items():
        assert baselines.rule_of_thumb(rule, n_features=17, n_classes=2, n_train=966) == sizes


def test_tracer_reports_a_missing_layer(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("neural", "gone", "neural.gone"),))
    originals = []
    for module_name, path, _ in tracer.TARGETS[:-1]:
        *owners, attr = path.split(".")
        owner = __import__(f"coevonet.{module_name}", fromlist=["_"])
        for part in owners:
            owner = getattr(owner, part)
        originals.append((owner, attr, owner.__dict__.get(attr)))
    try:
        assert tracer.install(tracer.Recorder()) == ["neural.gone"]
    finally:
        for owner, attr, fn in originals:
            if fn is None:
                delattr(owner, attr)     # the class inherited it
            else:
                setattr(owner, attr, fn)


def test_layer_metrics_name_every_per_layer_metric():
    metrics = layers.layer_metrics(layers.SpanTotals())
    added = {"moea.front_size", "moea.front_hv", "market_data.split_bytes",
             "cli.holdout_eval_s", "cli.baseline_s", "trace.overhead_s", "trace.overhead_ratio"}
    assert set(metrics) | added == set(layers.UNITS)
