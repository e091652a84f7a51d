"""The benchmark's traced counts reconcile with what a session did.

``perfbench/tracer.py`` wraps the program's public functions in the step's
own process and keeps one span stack; ``perfbench/layers.py`` turns the
spans into per-layer counts. This runs a tiny session with two training
cycles (so a genome's cycles, the baseline's rule trainings and the
hold-out's cycles are minimized on the worker processes) under the tracer
and checks the counts the benchmark reconciles: every training goes through
``neural.scg_train`` once, on the thread of the span that asked for it, so a
search training's parent is ``objectives.evaluate``, a baseline or hold-out
training's is ``runner.train_final_model``, and a hold-out
``train_final_model``'s is ``runner.holdout``; every evaluation is a fresh FE or
a cache hit; and the baseline's rule trainings are told apart from the
hold-out's. The benchmark's own rule-of-thumb formulas agree with the
program's over a grid of input and training-pattern counts.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import layers  # noqa: E402

from coevonet import baselines  # noqa: E402

CYCLES = 2
HOLDOUT_CYCLES = 2


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    root = tmp_path_factory.mktemp("traced")
    data, run, base = root / "data", root / "run", root / "base"
    steps = [
        ["ingest", "--synthetic", "--seed", "7", "--bars", "300", "--out", str(data)],
        ["baseline", "--data", str(data), "--method", "mrmr", "--k", "5", "--scg-iters", "10",
         "--out", str(base)],
        ["search", "--data", str(data), "--algo", "nsga2", "--fe", "8", "--population", "4",
         "--cycles", str(CYCLES), "--scg-iters", "10", "--runs", "1", "--out", str(run)],
        ["select", "--run", str(run), "--preset", "O2"],
        ["holdout-eval", "--data", str(data), "--run", str(run), "--preset", "O2",
         "--cycles", str(HOLDOUT_CYCLES), "--scg-iters", "50"],
    ]
    totals = layers.SpanTotals()
    for i, argv in enumerate(steps):
        spans = root / f"{i}-{argv[0]}.spans.json"
        subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"), str(spans), *argv],
                       env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True,
                       capture_output=True)
        totals.add_file(spans)
    rules = len(checks.csv_rows(base / "rules.csv")) - 1
    [fe] = checks.search_evaluations(run, "nsga2", 1)
    return totals, layers.layer_metrics(totals), rules, fe


def test_every_layer_is_wrapped(traced):
    totals, metrics, _, _ = traced
    assert totals.missing == set()
    assert metrics["trace.missing_layers"] == 0


def test_trainings_reconcile_with_fe_holdout_and_rules(traced):
    _, m, rules, _ = traced
    assert rules > 0 and m["objectives.fe"] > 0
    assert m["neural.scg_train_calls"] == CYCLES * m["objectives.fe"] + HOLDOUT_CYCLES + rules


def test_every_training_nests_in_the_span_that_asked_for_it(traced):
    totals, m, rules, _ = traced
    assert (totals.child_calls[("objectives.evaluate", "neural.scg_train")]
            == CYCLES * m["objectives.fe"])
    assert totals.child_calls[("runner.holdout", "runner.train_final_model")] == HOLDOUT_CYCLES
    assert (totals.child_calls[("runner.train_final_model", "neural.scg_train")]
            == rules + HOLDOUT_CYCLES)
    assert m["objectives.evaluate_self_s"] >= 0


def test_evaluations_are_fresh_or_cache_hits(traced):
    _, m, _, fe = traced
    assert m["objectives.evaluate_calls"] == m["objectives.fe"] + m["objectives.cache_hits"]
    assert m["objectives.fe"] == fe


def test_rule_trainings_equal_the_rules_written(traced):
    _, m, rules, _ = traced
    assert m["baselines.rule_trainings"] == rules


@pytest.mark.parametrize("n_train", [1, 50, 91, 231, 361, 1000, 2800])
def test_rule_sizes_agree_with_the_benchmark_formulas(n_train):
    for d in range(1, 69):
        for rule, sizes in checks.rule_sizes(d, n_train).items():
            assert baselines.rule_of_thumb(rule, n_features=d, n_classes=checks.N_CLASSES,
                                           n_train=n_train) == sizes, (rule, d)
