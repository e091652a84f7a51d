"""Run one coevonet CLI step with spans recorded around its public functions.

Usage: python3 perfbench/tracer.py SPANS_JSON CLI_ARGS...

The program is not changed: after importing it, this script replaces public
module functions (and the ``evaluate`` and ``add`` methods of the public
problem and archive classes) with wrappers that record a span per call:
name, start, end, the index of the enclosing span, and a few facts read
from the arguments or the result. Spans stay in memory and are written to
SPANS_JSON when the step ends, with the import time of ``coevonet.cli`` and
the names that could not be found. A name that a refactor removed is
reported missing; the step still runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute path, span name) of every wrapped function
TARGETS = (
    ("synth", "synth_generate", "synth.generate"),
    ("indicators", "compute_matrix", "indicators.matrix"),
    ("market_data", "split_by_dates", "market_data.split"),
    ("market_data", "standardize_splits", "market_data.standardize"),
    ("market_data", "save_splits", "market_data.save_splits"),
    ("market_data", "load_splits", "market_data.load_splits"),
    ("neural", "scg_train", "neural.scg_train"),
    ("neural", "predict", "neural.predict"),
    ("objectives", "CoevolutionProblem.evaluate", "objectives.evaluate"),
    ("objectives", "TopologyOnlyProblem.evaluate", "objectives.evaluate"),
    ("moea", "nsga2_run", "moea.engine"),
    ("moea", "eagd_run", "moea.engine"),
    ("moea", "fast_nondominated_sort", "moea.sort"),
    ("moea", "hypervolume", "moea.hypervolume"),
    ("moea", "ParetoArchive.add", "moea.archive_add"),
    ("decision", "mtd_select", "decision.mtd"),
    ("baselines", "mrmr_select", "baselines.reduce"),
    ("baselines", "cfs_select", "baselines.reduce"),
    ("baselines", "pca_reduce", "baselines.reduce"),
    ("baselines", "reduce_splits", "baselines.reduce"),
    ("runner", "write_archive_jsonl", "runner.archive_io"),
    ("runner", "read_archive_jsonl", "runner.archive_io"),
    ("runner", "holdout_evaluate_genome", "runner.holdout"),
    ("runner", "train_final_model", "runner.train_final_model"),
)


def _facts(name: str, args, result, before) -> dict | None:
    """Facts a layer metric needs, read from the arguments or the result."""
    if name == "neural.scg_train":
        return {"iterations": int(result.iterations), "aborted": bool(result.aborted)}
    if name == "objectives.evaluate":
        return {"fresh": args[0].fe_count > before}
    if name == "moea.engine":
        problem = args[0]
        return {"fe": problem.fe_count, "cache_hits": problem.cache_hits,
                "generations": len(result[1]) - 1}
    if name == "decision.mtd":
        return {"archive_size": int(result.global_ranks.shape[0])}
    return None


class Recorder:
    """In-memory spans: [name, start, end, parent index, facts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent, None]
            self.spans.append(span)
            self._open.append(index)
            before = getattr(args[0], "fe_count", None) if args else None
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            try:
                span[4] = _facts(name, args, result, before)
            except (AttributeError, TypeError, IndexError):
                pass        # the layer changed shape; its facts stay missing
            return result
        return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every target that exists; return the names that do not."""
    missing = []
    for module_name, path, label in TARGETS:
        try:
            owner = importlib.import_module(f"coevonet.{module_name}")
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{path}")
            continue
        setattr(owner, attr, recorder.wrap(label, fn))
    return missing


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    started = time.perf_counter()
    from coevonet import cli
    import_s = time.perf_counter() - started
    recorder = Recorder()
    missing = install(recorder)
    try:
        code = cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "missing": missing,
                       "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
