"""Command-line surface: ingest, search, select, baseline, holdout-eval, stats, export.

A typical desk-scale session on synthetic data:

    coevonet ingest --synthetic --seed 7 --out work/data
    coevonet search --data work/data --algo nsga2 --fe 2000 --runs 5 --out work/run
    coevonet select --run work/run --preset O2
    coevonet holdout-eval --data work/data --run work/run --preset O2
    coevonet export --run work/run --out work/run/front.csv

``holdout-eval`` retrains the selection of a run of any ``--algo``: it
rebuilds the run's evaluation problem from the settings in the merged
archive's header (a header without them, or whose keys are not this
version's settings, is refused by name), so a topology-only
genome is retrained on the same reduced inputs it was searched on. It writes
each score's per-cycle values (cycle k seeded ``--seed`` + k), their mean and
their standard deviation. ``select`` and ``export`` copy the architecture
record that ``search`` wrote into every archive row, so ``export`` fills
``n_features`` (the network's input count) and ``layers`` for every
``--algo``; an archive written before rows carried that record must be
searched again.

Exit codes: 0 ok, 1 validation error, 2 runtime failure. Deterministic
artifacts embed the config hash and master seed; rerunning a subcommand with
an identical config reproduces them byte for byte. ``import coevonet`` runs
BLAS on one thread unless ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS`` says otherwise (another count may change the last bits
of matrix products); a step with several trainings uses the cores instead.
Every step trains on one path: ``baseline`` (one network per rule of
thumb), and ``holdout-eval`` and ``search`` with ``--cycles`` above 1, fork
one training worker per usable core, queue their trainings on them, collect
each in turn on the step's own thread and join the workers before they
exit; the artifacts do not depend on how many there are. A one-cycle step
trains in its own process (the measured reason is in
``objectives.training_workers``). Each step checks its settings, and fits its
reduction, before any worker forks: an odd ``--population`` for ``nsga2``,
``--cycles 0``, ``--scg-iters -1``, ``baseline --k 0``, a config file's
unknown ``scenario`` or a ``--reduction-k`` outside the data's columns exits
1 at once. An error in a worker fails the step as it would inline (exit 2).

``ingest`` prints each split's up days (label 1) and their share, and warns
when a split holds one class only. ``ingest`` and ``search`` read
``--config FILE`` (JSON, or TOML for a ``.toml`` name) as their defaults,
keyed by option name; explicit flags override the file, and a file value
that the option's type refuses is a validation error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
from datetime import date, datetime
from pathlib import Path

import numpy as np

from . import baselines, indicators, market_data, runner, synth
from .baselines import BaselineError
from .decision import DecisionError, PreferenceSpec, PRESET_RANKINGS
from .genome import GenomeError, complexity_of
from .indicators import IndicatorError
from .market_data import MarketDataError, SplitSpec
from .neural import N_CLASSES, ActivationKind, Topology
from .objectives import SCORE_NAMES, split_scores
from .stats import StatsError, friedman_ranks, hommel_apv, normal_sf
from .synth import SynthSpec

logger = logging.getLogger(__name__)

_VALIDATION_ERRORS = (MarketDataError, IndicatorError, GenomeError, DecisionError,
                      BaselineError, StatsError, synth.SynthError, ValueError)


def _load_config_file(path) -> dict:
    text = Path(path).read_text()
    if str(path).endswith(".toml"):
        import tomllib
        return tomllib.loads(text)
    return json.loads(text)


def _parse_with_config(argv, args: argparse.Namespace) -> argparse.Namespace:
    """``argv`` parsed again with the ``--config`` file's values as the subcommand's defaults.

    Explicit flags override the file; a key that names no option of the
    subcommand, or whose value is null, is ignored. A value of an option
    that is not a flag reaches argparse as text, so the option's type parses
    it as it would the flag's (``{"bars": 300.7}`` is refused like
    ``--bars 300.7``), and a value it refuses is a validation error that
    names the option.
    """
    options = set(vars(args)) - {"command", "func", "verbose"}
    defaults = {}
    for key, value in _load_config_file(args.config).items():
        key = key.replace("-", "_")
        if key in options and value is not None:
            as_is = isinstance(value, str) or isinstance(getattr(args, key), bool)
            defaults[key] = value if as_is else str(value)
    try:
        return build_parser(defaults).parse_args(argv)
    except argparse.ArgumentError as exc:
        raise ValueError(f"config file {args.config}: {exc}") from None


def _read(parse, text: str, error, where: str):
    """``parse(text)``, or ``error`` naming ``where`` and the text that did not parse."""
    try:
        return parse(text)
    except ValueError as exc:
        raise error(f"{where}: cannot read {text!r} ({exc})") from None


def _parse_boundaries(text: str) -> SplitSpec:
    parts = [_read(date.fromisoformat, p, MarketDataError, "--boundaries") for p in text.split(",")]
    if len(parts) != 5:
        raise MarketDataError("need 5 comma-separated ISO dates for --boundaries")
    return SplitSpec.from_boundaries(*parts)


def cmd_ingest(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.synthetic:
        spec = SynthSpec(n_bars=args.bars, noise=args.noise)
        series, split, truth = synth.synth_generate(spec, args.seed)
        synth.save_series_csv(series, out / "ohlcv.csv")
        (out / "truth.json").write_text(truth.to_json())
    elif args.csv:
        series = market_data.load_ohlcv_csv(args.csv)
        split = SplitSpec.default()
    else:
        raise MarketDataError("ingest needs --csv PATH or --synthetic")
    if args.boundaries:
        split = _parse_boundaries(args.boundaries)
    patterns = market_data.build_patterns(series)
    try:
        splits = market_data.split_by_dates(patterns, split)
    except MarketDataError as exc:
        raise MarketDataError(
            f"{exc}; the series runs from {series.dates[0]} to {series.dates[-1]}, so pass "
            "--boundaries with five dates inside it (a synthetic dataset lists its windows "
            "in splits/manifest.json)") from exc
    standardized, standardization = market_data.standardize_splits(splits)
    cfg_hash = runner.config_hash({
        "command": "ingest", "csv": str(args.csv), "synthetic": args.synthetic,
        "seed": args.seed, "noise": args.noise, "bars": args.bars,
        "boundaries": split.to_json_dict(),
    })
    market_data.save_splits(standardized, out / "splits", standardization,
                            extra_manifest={"config_hash": cfg_hash,
                                            "master_seed": args.seed})
    (out / "catalog.json").write_text(indicators.catalog_to_json())
    print(f"ingest: {standardized.counts} patterns -> {out / 'splits'} "
          f"(config_hash={cfg_hash})")
    balance = market_data.label_balance(standardized)
    print("ingest: up days " + ", ".join(f"{name} {up}/{n} ({up / n:.0%})"
                                         for name, (up, n) in balance.items()))
    for name, (up, n) in balance.items():
        if up in (0, n):
            logger.warning("split %s holds one class only (%d up days of %d patterns)",
                           name, up, n)
    return 0


def _require_splits(data_dir) -> tuple[market_data.DatasetSplits, dict]:
    splits_dir = Path(data_dir) / "splits"
    if not (splits_dir / "manifest.json").exists():
        raise MarketDataError(
            f"no ingested splits under {splits_dir}; run `coevonet ingest` first")
    return market_data.load_splits(splits_dir)


def cmd_search(args) -> int:
    splits, _ = _require_splits(args.data)
    out = Path(args.out) if args.out else Path("runs") / datetime.now().strftime("%Y%m%d-%H%M%S")
    settings = runner.SearchSettings(
        algorithm=args.algo, max_evaluations=args.fe, runs=args.runs,
        master_seed=args.seed, cycles=args.cycles, scg_max_iter=args.scg_iters,
        population=args.population, reduction=args.reduction,
        reduction_k=args.reduction_k, scenario=args.scenario,
    )
    merged, meta = runner.run_search_protocol(splits, settings, out)
    print(f"search: merged archive of {len(merged)} architectures -> {out} "
          f"(config_hash={meta['config_hash']})")
    return 0


def _merged_archive(run_dir):
    path = Path(run_dir) / "merged" / "archive.jsonl"
    if not path.exists():
        raise MarketDataError(f"no merged archive at {path}; run `coevonet search` first")
    return runner.read_archive_jsonl(path)


def _described_archive(run_dir):
    """The merged archive, refused when a member row carries no architecture."""
    archive, meta, architectures = _merged_archive(run_dir)
    if None in architectures.values():
        raise MarketDataError(
            f"the merged archive under {run_dir} has rows without an architecture record "
            "(written by an older coevonet); rerun `coevonet search`")
    return archive, meta, architectures


def _preference_from_args(args) -> tuple[PreferenceSpec, str]:
    if args.rank:
        try:
            pairs = dict(kv.split("=") for kv in args.rank.split(","))
            rankings = (int(pairs["cv"]), int(pairs["c"]), int(pairs["pr"]))
        except (ValueError, KeyError) as exc:
            raise DecisionError(f"--rank {args.rank!r}: expected cv=..,c=..,pr=.. with "
                                "integer ranks, such as cv=1,c=2,pr=3") from exc
        return PreferenceSpec(rankings, float(args.intensity)), args.preset_name or "custom"
    name = args.preset or "O2"
    return PreferenceSpec.preset(name), name


def cmd_select(args) -> int:
    archive, meta, architectures = _described_archive(args.run)
    spec, name = _preference_from_args(args)
    record = runner.select_and_write(
        archive, architectures, spec, name,
        {"config_hash": meta.get("config_hash", ""), "master_seed": meta.get("master_seed", 0)},
        out_dir=args.run,
    )
    print(f"select: preset {name} -> genome {record['genome'][:20]}..., "
          f"objectives {record['objectives']}")
    return 0


def cmd_holdout_eval(args) -> int:
    splits, _ = _require_splits(args.data)
    sel_path = Path(args.run) / "selected" / f"{args.preset}.json"
    if not sel_path.exists():
        raise MarketDataError(f"no selection at {sel_path}; run `coevonet select` first")
    record = json.loads(sel_path.read_text())
    meta = _merged_archive(args.run)[1]
    if "settings" not in meta:
        raise MarketDataError(f"the merged archive under {args.run} records no search settings; "
                              "rerun `coevonet search`")
    recorded = meta["settings"].keys()
    fields = {field.name for field in dataclasses.fields(runner.SearchSettings)}
    if recorded != fields:
        raise MarketDataError(
            f"the merged archive under {args.run} records search settings that this coevonet "
            f"does not take (unknown: {sorted(recorded - fields)}, missing: "
            f"{sorted(fields - recorded)}); rerun `coevonet search`")
    settings = runner.SearchSettings(**meta["settings"])
    problem = runner.make_problem(splits, settings)(settings.master_seed)
    result = runner.holdout_evaluate_genome(
        record["genome"], problem, args.scg_iters, seed=args.seed, cycles=args.cycles)
    result["config_hash"] = record.get("config_hash", "")
    result["master_seed"] = record.get("master_seed", 0)
    result["preset"] = args.preset
    out_dir = Path(args.run) / "holdout"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.preset}.json").write_text(json.dumps(result, indent=2, sort_keys=True))
    print(f"holdout-eval: preset {args.preset} over {args.cycles} cycle(s): " + ", ".join(
        f"{name}={result[name]:.4f} (sd {result['std'][name]:.4f})" for name in SCORE_NAMES))
    return 0


def cmd_baseline(args) -> int:
    splits, _ = _require_splits(args.data)
    reduction = baselines.fit_reduction(args.method, splits.d_train, args.k, args.variance)
    reduced = baselines.reduce_splits(splits, reduction)
    d = reduced.d_train.n_features
    sizes = [baselines.rule_of_thumb(rule, d, N_CLASSES, reduced.d_train.n)
             for rule in baselines.RULES]
    topologies = [Topology(((s1, ActivationKind.TANH), (s2, ActivationKind.TANH)))
                  for s1, s2 in sizes]
    models = runner.train_final_models([(topology, None, args.seed) for topology in topologies],
                                       reduced, args.scg_iters)
    rows = []
    for rule, (s1, s2), topology, model in zip(baselines.RULES, sizes, topologies, models):
        row = {"rule": rule, "s1": s1, "s2": s2,
               "complexity": complexity_of(d, topology, splits.d_train.n_features)}
        for split_name in ("test", "pr"):
            scores = split_scores(model, getattr(reduced, f"d_{split_name}"), None)
            row.update({f"{split_name}_{name}": v for name, v in zip(SCORE_NAMES, scores)})
        rows.append(row)
    out = Path(args.out) if args.out else Path(args.data) / f"baseline-{args.method}"
    out.mkdir(parents=True, exist_ok=True)
    cfg_hash = runner.config_hash({"command": "baseline", "method": args.method,
                                   "k": args.k, "seed": args.seed, "variance": args.variance,
                                   "scg_iters": args.scg_iters})
    (out / "reduction.json").write_text(json.dumps(
        {"config_hash": cfg_hash, "master_seed": args.seed, **reduction.to_json_dict()},
        indent=2, sort_keys=True))
    with (out / "rules.csv").open("w", newline="") as fh:
        fh.write(f"# config_hash={cfg_hash} master_seed={args.seed}\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    print(f"baseline: {args.method} retained {reduction.n_retained} -> {out}")
    return 0


def cmd_stats(args) -> int:
    with open(args.table, newline="") as fh:
        reader = csv.reader(row for row in fh if not row.startswith("#"))
        header = next(reader)
        methods = header[1:] if args.table_has_index else header
        data = []
        for i, row in enumerate(reader, start=1):
            values = row[1:] if args.table_has_index else row
            if len(values) != len(methods):
                raise StatsError(f"{args.table}: row {i} has {len(values)} values, "
                                 f"but the header names {len(methods)} methods")
            data.append([_read(float, v, StatsError, f"{args.table}: row {i}, method {m}")
                         for m, v in zip(methods, values)])
    table = np.asarray(data)
    fr = friedman_ranks(table, higher_is_better=not args.lower_is_better)
    print("Friedman two-way analysis by ranks")
    for m, r in sorted(zip(methods, fr.mean_ranks), key=lambda kv: kv[1]):
        print(f"  {m}: mean rank {r:.3f}")
    print(f"  statistic={fr.statistic:.4f} p={fr.p_value:.3e}")
    control = args.control or methods[int(np.argmin(fr.mean_ranks))]
    if control not in methods:
        raise StatsError(f"control {control!r} not among methods {methods}")
    # pairwise sign-free z-tests against the control from the rank statistics
    k = len(methods)
    n = table.shape[0]
    se = float(np.sqrt(k * (k + 1) / (6.0 * n)))
    ci = methods.index(control)
    others, pvals = [], []
    for j, m in enumerate(methods):
        if j == ci:
            continue
        z = (fr.mean_ranks[j] - fr.mean_ranks[ci]) / se
        others.append(m)
        pvals.append(normal_sf(float(z)))
    hres = hommel_apv(np.array(pvals), alpha=args.alpha)
    print(f"Hommel post-hoc vs control {control!r} "
          f"(reject when APV <= {args.alpha}; one-sided 95% family: APV <= 0.025)")
    rows = []
    for m, p, apv, rej in zip(others, pvals, hres.adjusted, hres.reject):
        print(f"  {m}: p={p:.3e} APV={apv:.3e} reject={bool(rej)}")
        rows.append({"method": m, "p_value": p, "apv": float(apv), "reject": bool(rej)})
    if args.out:
        Path(args.out).write_text(json.dumps({
            "control": control, "alpha": args.alpha,
            "friedman": {"mean_ranks": dict(zip(methods, fr.mean_ranks.tolist())),
                         "statistic": fr.statistic, "p_value": fr.p_value},
            "hommel": rows,
        }, indent=2, sort_keys=True))
    return 0


def cmd_export(args) -> int:
    archive, meta, architectures = _described_archive(args.run)
    out = Path(args.out) if args.out else Path(args.run) / "front.csv"
    with out.open("w", newline="") as fh:
        fh.write(f"# config_hash={meta.get('config_hash', '')} "
                 f"master_seed={meta.get('master_seed', 0)}\n")
        w = csv.writer(fh)
        w.writerow(["genome", "e_cv", "c", "e_pr", "n_features", "layers"])
        for bits, obj in archive.members():
            arch = architectures[bits]
            w.writerow([bits, repr(obj.e_cv), repr(obj.c), repr(obj.e_pr),
                        arch["n_inputs"], runner.record_topology(arch).describe()])
    print(f"export: {len(archive)} front rows -> {out}")
    return 0


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The argument parser; ``config`` holds the defaults of the subcommands that take ``--config``.

    A parser built with ``config`` raises ``argparse.ArgumentError`` on a
    default its option's type refuses, instead of exiting.
    """
    exits = config is None
    parser = argparse.ArgumentParser(prog="coevonet", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter,
                                     exit_on_error=exits)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build and cache dataset splits", exit_on_error=exits)
    p.add_argument("--csv", default=None, help="OHLCV csv path")
    p.add_argument("--synthetic", action="store_true", help="generate planted synthetic data")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--noise", type=float, default=0.15)
    p.add_argument("--bars", type=int, default=700)
    p.add_argument("--boundaries", default=None,
                   help="five comma-separated ISO dates overriding the default windows")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="JSON/TOML config file")
    p.set_defaults(func=cmd_ingest, **(config or {}))

    p = sub.add_parser("search", help="run a multi-seed architecture search",
                       exit_on_error=exits)
    p.add_argument("--data", required=True)
    p.add_argument("--algo", default="nsga2", choices=list(runner.ALGORITHMS))
    p.add_argument("--fe", type=int, default=2000, help="function-evaluation budget per run")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cycles", type=int, default=2)
    p.add_argument("--scg-iters", type=int, default=200)
    p.add_argument("--population", type=int, default=50)
    p.add_argument("--reduction", default="mrmr", choices=list(baselines.REDUCTIONS),
                   help="a-priori reduction for --algo topology-only")
    p.add_argument("--reduction-k", type=int, default=17)
    p.add_argument("--scenario", default="balanced",
                   choices=list(baselines.SCALARIZED_SCENARIOS),
                   help="preference weights for --algo scalarized")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_search, **(config or {}))

    p = sub.add_parser("select", help="a-posteriori selection from the merged archive")
    p.add_argument("--run", required=True)
    p.add_argument("--preset", default=None, choices=sorted(PRESET_RANKINGS))
    p.add_argument("--rank", default=None, help="cv=1,c=2,pr=3")
    p.add_argument("--intensity", type=float, default=9.0)
    p.add_argument("--preset-name", default=None)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("baseline", help="a-priori reduction plus rule-of-thumb networks")
    p.add_argument("--data", required=True)
    p.add_argument("--method", default="mrmr", choices=list(baselines.REDUCTIONS))
    p.add_argument("--k", type=int, default=17, help="subset size for mRmR")
    p.add_argument("--variance", type=float, default=baselines.PCA_VARIANCE_TARGET,
                   help="PCA variance target")
    p.add_argument("--scg-iters", type=int, default=600)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("holdout-eval", help="retrain a selection and score the hold-out window")
    p.add_argument("--data", required=True)
    p.add_argument("--run", required=True)
    p.add_argument("--preset", default="O2")
    p.add_argument("--scg-iters", type=int, default=1000)
    p.add_argument("--cycles", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_holdout_eval)

    p = sub.add_parser("stats", help="Friedman ranks and Hommel post-hoc on a metric table")
    p.add_argument("--table", required=True, help="csv of runs x methods")
    p.add_argument("--control", default=None)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--lower-is-better", action="store_true")
    p.add_argument("--table-has-index", action="store_true",
                   help="first column is a run label, not a metric")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("export", help="merged front as plot-ready csv")
    p.add_argument("--run", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if getattr(args, "config", None):
            args = _parse_with_config(argv, args)
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        logger.exception("runtime failure")
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
