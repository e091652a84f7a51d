"""Command-line surface: ingest, search, select, baseline, holdout-eval, stats, export.

A typical desk-scale session on synthetic data:

    coevonet ingest --synthetic --seed 7 --out work/data
    coevonet search --data work/data --algo nsga2 --fe 2000 --runs 5 --out work/run
    coevonet select --run work/run --preset O2
    coevonet holdout-eval --data work/data --run work/run --preset O2
    coevonet export --run work/run --out work/run/front.csv

``holdout-eval`` retrains the selection of a run of any ``--algo``: it
rebuilds the run's evaluation problem from the settings in the merged
archive's header, so a topology-only genome is decoded over the same reduced
inputs it was searched on.

Exit codes: 0 ok, 1 validation error, 2 runtime failure. Deterministic
artifacts embed the config hash and master seed; rerunning a subcommand with
an identical config reproduces them byte for byte, at a fixed BLAS thread
count (e.g. ``OPENBLAS_NUM_THREADS=1``): the thread count changes the last
bits of matrix products, and with them which genomes a search keeps.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from datetime import date, datetime
from pathlib import Path

import numpy as np

from . import baselines, indicators, market_data, runner, synth
from .baselines import BaselineError
from .decision import DecisionError, PreferenceSpec, PRESET_RANKINGS
from .genome import GenomeError, SearchSpaceConfig, complexity_of, decode
from .indicators import IndicatorError
from .market_data import MarketDataError, SplitSpec
from .neural import ScgConfig
from .objectives import SCORE_NAMES, split_scores
from .stats import StatsError, friedman_ranks, hommel_apv
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


def _apply_config_defaults(args: argparse.Namespace, parser_defaults: dict) -> None:
    """Config-file values override defaults; explicit flags override the file."""
    if not getattr(args, "config", None):
        return
    file_cfg = _load_config_file(args.config)
    for key, value in file_cfg.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and getattr(args, attr) == parser_defaults.get(attr):
            setattr(args, attr, value)


def _parse_boundaries(text: str) -> SplitSpec:
    parts = [date.fromisoformat(p) for p in text.split(",")]
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
        split = _parse_boundaries(args.boundaries) if args.boundaries else SplitSpec.default()
    else:
        raise MarketDataError("ingest needs --csv PATH or --synthetic")
    if args.synthetic and args.boundaries:
        split = _parse_boundaries(args.boundaries)
    patterns = market_data.build_patterns(series)
    splits = market_data.split_by_dates(patterns, split)
    standardized, standardizer = market_data.standardize_splits(splits)
    cfg_hash = runner.config_hash({
        "command": "ingest", "csv": str(args.csv), "synthetic": args.synthetic,
        "seed": args.seed, "noise": args.noise, "bars": args.bars,
        "boundaries": split.to_json_dict(),
    })
    market_data.save_splits(standardized, out / "splits", standardizer,
                            extra_manifest={"config_hash": cfg_hash,
                                            "master_seed": args.seed})
    (out / "catalog.json").write_text(indicators.catalog_to_json())
    print(f"ingest: {standardized.counts} patterns -> {out / 'splits'} "
          f"(config_hash={cfg_hash})")
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
    merged, meta = runner.run_search_protocol(splits, SearchSpaceConfig(), settings, out)
    print(f"search: merged archive of {len(merged)} architectures -> {out} "
          f"(config_hash={meta['config_hash']})")
    return 0


def _merged_archive(run_dir):
    path = Path(run_dir) / "merged" / "archive.jsonl"
    if not path.exists():
        raise MarketDataError(f"no merged archive at {path}; run `coevonet search` first")
    return runner.read_archive_jsonl(path)


def _preference_from_args(args) -> tuple[PreferenceSpec, str]:
    if args.rank:
        pairs = dict(kv.split("=") for kv in args.rank.split(","))
        try:
            rankings = (int(pairs["cv"]), int(pairs["c"]), int(pairs["pr"]))
        except KeyError as exc:
            raise DecisionError("--rank needs cv=..,c=..,pr=..") from exc
        return PreferenceSpec(rankings, float(args.intensity)), args.preset_name or "custom"
    name = args.preset or "O2"
    return PreferenceSpec.preset(name), name


def cmd_select(args) -> int:
    archive, meta = _merged_archive(args.run)
    spec, name = _preference_from_args(args)
    record = runner.select_and_write(
        archive, spec, name,
        {"config_hash": meta.get("config_hash", ""), "master_seed": meta.get("master_seed", 0)},
        out_dir=args.run, space=SearchSpaceConfig(),
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
    settings = runner.SearchSettings(**_merged_archive(args.run)[1].get("settings", {}))
    problem = runner.make_problem(splits, SearchSpaceConfig(), settings, settings.master_seed)
    result = runner.holdout_evaluate_genome(
        record["genome"], problem, ScgConfig(max_iter=args.scg_iters),
        seed=args.seed, cycles=args.cycles)
    result["config_hash"] = record.get("config_hash", "")
    result["master_seed"] = record.get("master_seed", 0)
    result["preset"] = args.preset
    out_dir = Path(args.run) / "holdout"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.preset}.json").write_text(json.dumps(result, indent=2, sort_keys=True))
    print(f"holdout-eval: preset {args.preset} accuracy={result['accuracy']:.4f} "
          f"mcc={result['mcc']:.4f} balanced_error={result['balanced_error']:.4f}")
    return 0


def cmd_baseline(args) -> int:
    splits, _ = _require_splits(args.data)
    reduction = baselines.fit_reduction(args.method, splits.d_train, args.k, args.variance)
    reduced = baselines.reduce_splits(splits, reduction)
    d = reduced.d_train.n_features
    topologies = runner.rule_of_thumb_topologies(d, 2, reduced.d_train.n)
    rows = []
    for rule, topology in topologies.items():
        model = runner.train_final_model(topology, None, reduced,
                                         ScgConfig(max_iter=args.scg_iters), args.seed)
        sizes = [s for s, _ in topology.active_layers]
        row = {"rule": rule, "s1": sizes[0], "s2": sizes[1] if len(sizes) > 1 else 0,
               "complexity": complexity_of(d, topology)}
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
        for row in reader:
            values = row[1:] if args.table_has_index else row
            data.append([float(v) for v in values])
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
    from scipy.stats import norm
    ci = methods.index(control)
    others, pvals = [], []
    for j, m in enumerate(methods):
        if j == ci:
            continue
        z = (fr.mean_ranks[j] - fr.mean_ranks[ci]) / se
        others.append(m)
        pvals.append(float(norm.sf(z)))
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
    archive, meta = _merged_archive(args.run)
    space = SearchSpaceConfig()
    out = Path(args.out) if args.out else Path(args.run) / "front.csv"
    with out.open("w", newline="") as fh:
        fh.write(f"# config_hash={meta.get('config_hash', '')} "
                 f"master_seed={meta.get('master_seed', 0)}\n")
        w = csv.writer(fh)
        w.writerow(["genome", "e_cv", "c", "e_pr", "n_features", "layers"])
        for bits, obj in archive.members():
            if len(bits) == space.genome_length:
                arch = decode(bits, space)
                nf = len(arch.feature_indices)
                layers = arch.topology.describe()
            else:
                nf, layers = "", ""
            w.writerow([bits, repr(obj.e_cv), repr(obj.c), repr(obj.e_pr), nf, layers])
    print(f"export: {len(archive)} front rows -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coevonet", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build and cache dataset splits")
    p.add_argument("--csv", default=None, help="OHLCV csv path")
    p.add_argument("--synthetic", action="store_true", help="generate planted synthetic data")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--noise", type=float, default=0.15)
    p.add_argument("--bars", type=int, default=700)
    p.add_argument("--boundaries", default=None,
                   help="five comma-separated ISO dates overriding the default windows")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="JSON/TOML config file")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("search", help="run a multi-seed architecture search")
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
    p.set_defaults(func=cmd_search)

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
    defaults = {a.dest: a.default for g in parser._subparsers._group_actions
                for a in g.choices[args.command]._actions}
    try:
        _apply_config_defaults(args, defaults)
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
