"""Per-layer metrics from the spans that ``tracer.py`` wrote for one session.

A span's duration is end - start. Layer times are inclusive unless the name
says ``self``: ``objectives.evaluate_self_s`` subtracts the SCG and predict
spans directly inside ``evaluate``, and ``moea.engine_self_s`` subtracts the
``evaluate`` spans directly inside ``nsga2_run``/``eagd_run`` (so it still
holds the sort, hypervolume and archive work, which have their own metrics).
"""

from __future__ import annotations

import json
from collections import defaultdict

# Every per-layer metric the traced run reports, with its unit.
UNITS = {
    "synth.generate_s": "s",
    "indicators.matrix_s": "s",
    "market_data.split_standardize_s": "s",
    "market_data.save_splits_s": "s",
    "market_data.load_splits_s": "s",
    "market_data.split_bytes": "bytes",
    "neural.scg_train_calls": "count",
    "neural.scg_train_s": "s",
    "neural.scg_iters": "count",
    "neural.scg_iters_per_s": "1/s",
    "neural.scg_aborts": "count",
    "neural.predict_calls": "count",
    "neural.predict_s": "s",
    "objectives.evaluate_calls": "count",
    "objectives.fe": "FE",
    "objectives.cache_hits": "count",
    "objectives.cache_hit_ratio": "ratio",
    "objectives.evaluate_self_s": "s",
    "moea.engine_self_s": "s",
    "moea.sort_calls": "count",
    "moea.sort_s": "s",
    "moea.hypervolume_calls": "count",
    "moea.hypervolume_s": "s",
    "moea.archive_adds": "count",
    "moea.generations": "count",
    "moea.front_size": "count",
    "moea.front_hv": "volume",
    "decision.mtd_s": "s",
    "decision.archive_size": "count",
    "runner.archive_io_s": "s",
    "runner.holdout_train_s": "s",
    "baselines.reduce_s": "s",
    "baselines.rule_trainings": "count",
    "cli.import_s": "s",
    "cli.holdout_eval_s": "s",
    "cli.baseline_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.missing_layers": "count",
}


class SpanTotals:
    """Calls, inclusive time, direct-child time and facts per span name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.child_seconds = defaultdict(float)   # (parent name, child name)
        self.child_calls = defaultdict(int)       # (parent name, child name)
        self.facts = defaultdict(list)
        self.import_s = 0.0
        self.missing: set[str] = set()

    def add_file(self, path) -> None:
        with open(path) as fh:
            data = json.load(fh)
        self.import_s += data["import_s"]
        self.missing.update(data["missing"])
        spans = data["spans"]
        for name, start, end, parent, facts in spans:
            duration = end - start
            self.calls[name] += 1
            self.seconds[name] += duration
            if parent >= 0:
                self.child_seconds[(spans[parent][0], name)] += duration
                self.child_calls[(spans[parent][0], name)] += 1
            if facts:
                self.facts[name].append(facts)

    def fact_sum(self, name: str, key: str) -> float:
        return sum(f[key] for f in self.facts[name])


def layer_metrics(t: SpanTotals) -> dict[str, float]:
    """The span-derived metrics of ``UNITS``; the caller adds the others."""
    scg_s = t.seconds["neural.scg_train"]
    iters = t.fact_sum("neural.scg_train", "iterations")
    evaluate_calls = t.calls["objectives.evaluate"]
    hits = t.fact_sum("moea.engine", "cache_hits")
    sizes = [f["archive_size"] for f in t.facts["decision.mtd"]]
    return {
        "synth.generate_s": t.seconds["synth.generate"],
        "indicators.matrix_s": t.seconds["indicators.matrix"],
        "market_data.split_standardize_s":
            t.seconds["market_data.split"] + t.seconds["market_data.standardize"],
        "market_data.save_splits_s": t.seconds["market_data.save_splits"],
        "market_data.load_splits_s": t.seconds["market_data.load_splits"],
        "neural.scg_train_calls": t.calls["neural.scg_train"],
        "neural.scg_train_s": scg_s,
        "neural.scg_iters": iters,
        "neural.scg_iters_per_s": iters / scg_s if scg_s > 0 else 0.0,
        "neural.scg_aborts": t.fact_sum("neural.scg_train", "aborted"),
        "neural.predict_calls": t.calls["neural.predict"],
        "neural.predict_s": t.seconds["neural.predict"],
        "objectives.evaluate_calls": evaluate_calls,
        "objectives.fe": t.fact_sum("moea.engine", "fe"),
        "objectives.cache_hits": hits,
        "objectives.cache_hit_ratio": hits / evaluate_calls if evaluate_calls else 0.0,
        "objectives.evaluate_self_s": t.seconds["objectives.evaluate"]
            - t.child_seconds[("objectives.evaluate", "neural.scg_train")]
            - t.child_seconds[("objectives.evaluate", "neural.predict")],
        "moea.engine_self_s": t.seconds["moea.engine"]
            - t.child_seconds[("moea.engine", "objectives.evaluate")],
        "moea.sort_calls": t.calls["moea.sort"],
        "moea.sort_s": t.seconds["moea.sort"],
        "moea.hypervolume_calls": t.calls["moea.hypervolume"],
        "moea.hypervolume_s": t.seconds["moea.hypervolume"],
        "moea.archive_adds": t.calls["moea.archive_add"],
        "moea.generations": t.fact_sum("moea.engine", "generations"),
        "decision.mtd_s": t.seconds["decision.mtd"],
        "decision.archive_size": max(sizes) if sizes else 0,
        "runner.archive_io_s": t.seconds["runner.archive_io"],
        "runner.holdout_train_s": t.seconds["runner.holdout"],
        "baselines.reduce_s": t.seconds["baselines.reduce"],
        "baselines.rule_trainings": t.calls["runner.train_final_model"]
            - t.child_calls[("runner.holdout", "runner.train_final_model")],
        "cli.import_s": t.import_s,
        "trace.missing_layers": len(t.missing),
    }
