"""End-to-end and per-layer benchmark of the coevonet CLI session.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-nsga2 --seed 1 --seconds 50 --trace 0

A run first times one cold set-up (the ``ingest`` step, counted from this
process's start), then runs whole sessions of its workload back to back:
each CLI step is its own ``python -m coevonet.cli`` process, as a user runs
it. Another session starts while at least half of a mean session still
fits in ``--seconds``; there is always at least one. After every session the
artifacts are checked against the benchmark's own computations (see
``checks.py``). With ``--trace 1`` the run does one untraced session and then
traced sessions, whose steps run under ``tracer.py``; the per-layer metrics
come from the traced sessions and the overhead is their difference.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. An operation is one CLI
step. Program inputs are pinned per workload (see README.md), so ``--seed``
changes nothing the program sees. Every BLAS library runs one thread.
"""

from __future__ import annotations

import time

_IMPORTED_AT = time.perf_counter()

import argparse
import json
import os

# One BLAS thread for this process and every step it starts: set before
# numpy is first imported (by checks). See README.md, "BLAS threads".
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    bars: int
    algo: str
    fe: int
    population: int
    cycles: int
    scg_iters: int
    holdout_cycles: int = 0       # 0: no holdout-eval step
    export: bool = False
    baseline: bool = False        # baseline --method mrmr before the search


WORKLOADS = {
    "desk-nsga2": Workload(
        bars=700, algo="nsga2", fe=12, population=6, cycles=2, scg_iters=200,
        holdout_cycles=2, export=True, baseline=True),
    "screen-eagd": Workload(
        bars=700, algo="eagd", fe=1000, population=200, cycles=1, scg_iters=3),
    "sequential-mrmr": Workload(
        bars=2800, algo="topology-only", fe=4, population=2, cycles=1, scg_iters=200,
        baseline=True),
}
END_TO_END_UNITS = {"setup_s": "s", "search_fe_per_s": "FE/s", "pipeline_s": "s",
                    "peak_rss_mb": "MB"}
SYNTH_SEED = 7
SEARCH_RUNS = 1
REDUCTION_K = 17                  # mRmR subset size (baseline and topology-only)
SEARCH_SEED = 1
TRAIN_SEED = 1
PRESET = "O2"


def ingest_args(w: Workload, data: Path) -> list[str]:
    return ["ingest", "--synthetic", "--seed", str(SYNTH_SEED), "--bars", str(w.bars),
            "--out", str(data)]


def session_steps(w: Workload, data: Path, run: Path, base: Path) -> list[tuple[str, list[str]]]:
    """(operation, CLI arguments) of one session."""
    steps = [("ingest", ingest_args(w, data))]
    if w.baseline:
        steps.append(("baseline", ["baseline", "--data", str(data), "--method", "mrmr",
                                   "--k", str(REDUCTION_K), "--seed", str(TRAIN_SEED),
                                   "--out", str(base)]))
    steps.append(("search", ["search", "--data", str(data), "--algo", w.algo,
                             "--fe", str(w.fe), "--runs", str(SEARCH_RUNS),
                             "--seed", str(SEARCH_SEED), "--cycles", str(w.cycles),
                             "--scg-iters", str(w.scg_iters),
                             "--population", str(w.population),
                             "--reduction", "mrmr", "--reduction-k", str(REDUCTION_K),
                             "--out", str(run)]))
    steps.append(("select", ["select", "--run", str(run), "--preset", PRESET]))
    if w.holdout_cycles:
        steps.append(("holdout-eval", ["holdout-eval", "--data", str(data), "--run", str(run),
                                       "--preset", PRESET, "--cycles", str(w.holdout_cycles),
                                       "--seed", str(TRAIN_SEED)]))
    if w.export:
        steps.append(("export", ["export", "--run", str(run), "--out", str(run / "front.csv")]))
    return steps


class RunFailed(Exception):
    """No result can be reported."""


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def process_age_s() -> float:
    """Seconds since this process started, from /proc where it exists."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        age = -1.0
    return age if 0.0 < age < 3600.0 else time.perf_counter() - _IMPORTED_AT


class Runner:
    """Starts CLI steps as child processes and keeps the operation counts."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0

    def step(self, op: str, args: list[str], log_dir: Path, spans: Path | None = None):
        """Run one step; returns (ok, wall seconds, peak RSS in MB)."""
        self.attempted += 1
        if spans is None:
            cmd = [sys.executable, "-m", "coevonet.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), *args]
        log_dir.mkdir(parents=True, exist_ok=True)
        with open(log_dir / f"{op}.log", "wb") as out:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.failed += 1
            tail = (log_dir / f"{op}.log").read_text(errors="replace")[-400:]
            log(f"{op} exited {proc.returncode}: {tail}")
        return proc.returncode == 0, wall, usage.ru_maxrss / 1024.0


@dataclass
class Session:
    data: Path
    run: Path
    base: Path
    wall: dict = field(default_factory=dict)
    rss_mb: float = 0.0
    ok: bool = True
    spans: list = field(default_factory=list)

    @property
    def pipeline_s(self) -> float:
        return sum(self.wall.values())


def run_session(runner: Runner, w: Workload, name: str, traced: bool) -> Session:
    root = runner.work / name
    s = Session(root / "data", root / "run", root / "baseline")
    for op, args in session_steps(w, s.data, s.run, s.base):
        if not s.ok:           # a failed step fails the rest of the session
            runner.attempted += 1
            runner.failed += 1
            continue
        spans = root / f"{op}.spans.json" if traced else None
        s.ok, s.wall[op], rss = runner.step(op, args, root, spans)
        s.rss_mb = max(s.rss_mb, rss)
        if traced and spans.exists():
            s.spans.append(spans)
    return s


def program_hypervolume(points) -> float:
    """The program's own hypervolume of a front, for the two-path check."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from coevonet.moea import hypervolume
    return float(hypervolume(points, checks.HV_REFERENCE))


def session_facts(w: Workload, s: Session) -> dict:
    """What the metrics need from a session's outputs."""
    members = checks.read_members(s.run / "merged" / "archive.jsonl")
    rules = s.base / "rules.csv"
    return {
        "members": members,
        "fe": sum(checks.search_evaluations(s.run, w.algo, SEARCH_RUNS)),
        "front_size": len(members),
        "front_hv": checks.lattice_hypervolume([o for _, o in members]),
        "n_rules": len(checks.csv_rows(rules)) - 1 if w.baseline else 0,
        "archive": (s.run / "merged" / "archive.jsonl").read_bytes(),
        "split_bytes": checks.split_bytes(s.data),
    }


def check_session(w: Workload, s: Session, facts: dict, setup_data: Path) -> None:
    """Every output check of one session."""
    checks.check_labels(s.data)
    checks.check_splits(s.data, w.bars)
    checks.check_standardized(s.data)
    checks.check_identical_trees(setup_data, s.data)
    members = facts["members"]
    checks.check_nondominated(members)
    checks.check_members(members, REDUCTION_K if w.algo == "topology-only" else None)
    checks.check_fe_budget(s.run, w.algo, SEARCH_RUNS, w.fe)
    checks.check_hypervolume(members, program_hypervolume([o for _, o in members]))
    checks.check_selection(members, s.run / "selected" / f"{PRESET}.json", PRESET)
    counts = checks.manifest(s.data)["counts"]
    if w.holdout_cycles:
        checks.check_holdout(s.run / "holdout" / f"{PRESET}.json", w.holdout_cycles,
                             counts["hold"])
    if w.export:
        checks.check_export(s.run / "front.csv", members)
    if w.baseline:
        reduction = json.loads((s.base / "reduction.json").read_text())
        checks.check_rules(s.base / "rules.csv", reduction["n_retained"], counts["train"])


def reconcile(w: Workload, m: dict, facts: dict) -> None:
    """Wrapper counts against the program's own counts."""
    expected_scg = w.cycles * m["objectives.fe"] + w.holdout_cycles + facts["n_rules"]
    pairs = [
        ("neural.scg_train_calls", m["neural.scg_train_calls"], expected_scg),
        ("objectives.fe", m["objectives.fe"], facts["fe"]),
        ("objectives.evaluate_calls", m["objectives.evaluate_calls"],
         m["objectives.fe"] + m["objectives.cache_hits"]),
        ("baselines.rule_trainings", m["baselines.rule_trainings"], facts["n_rules"]),
    ]
    for name, got, expected in pairs:
        if got != expected:
            raise checks.CheckError(f"{name} = {got}, expected {expected}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(args, runner: Runner) -> tuple[bool, dict]:
    w = WORKLOADS[args.workload]
    setup_data = runner.work / "setup" / "data"
    ok, _, _ = runner.step("ingest", ingest_args(w, setup_data), runner.work / "setup")
    setup_s = process_age_s()
    if not ok:
        raise RunFailed("set-up ingest failed")

    correct = True
    sessions: list[tuple[Session, dict]] = []
    window_start = time.perf_counter()

    def one_session(traced: bool) -> None:
        nonlocal correct
        s = run_session(runner, w, f"session-{len(sessions) + 1}", traced)
        if not s.ok:
            return
        try:
            facts = session_facts(w, s)
        except (OSError, ValueError, KeyError) as exc:
            correct = False
            log(f"unreadable outputs in {args.workload}: {type(exc).__name__}: {exc}")
            return
        try:
            check_session(w, s, facts, setup_data)
            # equal archives also give the traced session the untraced front_hv
            if sessions and facts["archive"] != sessions[0][1]["archive"]:
                raise checks.CheckError("merged archive differs from the first session's")
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            correct = False
            log(f"check failed in {args.workload}: {type(exc).__name__}: {exc}")
        sessions.append((s, facts))
        log(f"{args.workload} session {len(sessions)}{' traced' if traced else ''}: "
            + ", ".join(f"{op} {t:.2f} s" for op, t in s.wall.items()))

    def fits() -> bool:
        # start another session while at least half of a typical one still
        # fits, so the sessions fill --seconds on average
        typical = statistics.mean(s.pipeline_s for s, _ in sessions)
        return time.perf_counter() - window_start + typical / 2 <= args.seconds

    one_session(traced=False)
    if args.trace:
        one_session(traced=True)
    while sessions and fits():
        one_session(traced=bool(args.trace))

    plain = [(s, f) for s, f in sessions if not s.spans]
    traced = [(s, f) for s, f in sessions if s.spans]
    if not plain or (args.trace and not traced):
        raise RunFailed("no session completed")
    if not args.trace:
        # totals over the whole window, so host speed is averaged over it
        return correct, {
            "setup_s": setup_s,
            "search_fe_per_s": sum(f["fe"] for _, f in plain)
                               / sum(s.wall["search"] for s, _ in plain),
            "pipeline_s": statistics.mean(s.pipeline_s for s, _ in plain),
            "peak_rss_mb": max(s.rss_mb for s, _ in plain),
        }

    per_session = []
    for s, facts in traced:
        totals = layers.SpanTotals()
        for path in s.spans:
            totals.add_file(path)
        if totals.missing:
            log(f"layers missing from the program: {sorted(totals.missing)}")
        m = layers.layer_metrics(totals)
        try:
            if not totals.missing:
                reconcile(w, m, facts)
        except checks.CheckError as exc:
            correct = False
            log(f"count reconciliation failed in {args.workload}: {exc}")
        m.update({"moea.front_size": facts["front_size"], "moea.front_hv": facts["front_hv"],
                  "market_data.split_bytes": facts["split_bytes"]})
        per_session.append(m)
    base_s = plain[0][0]
    metrics = {k: statistics.median(m[k] for m in per_session) for k in per_session[0]}
    overhead = statistics.median(s.pipeline_s for s, _ in traced) - base_s.pipeline_s
    metrics.update({
        "cli.holdout_eval_s": base_s.wall.get("holdout-eval", 0.0),
        "cli.baseline_s": base_s.wall.get("baseline", 0.0),
        "trace.overhead_s": overhead,
        "trace.overhead_ratio": overhead / base_s.pipeline_s,
    })
    return correct, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still stops its running step (see Runner.step)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "coevonet" / "cli.py").is_file():
        log(f"no program source at {SRC / 'coevonet'}; run from a full checkout")
        return 2
    if args.seconds <= 0:
        log("--seconds must be positive")
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    runner = Runner(work)
    try:
        correct, values = measure(args, runner)
    except RunFailed as exc:
        log(f"{args.workload}: {exc}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass        # another run still uses it
    units = layers.UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0

if __name__ == "__main__":
    sys.exit(main())
