"""Output checks computed apart from the program.

Every check reads the artifacts a CLI step wrote and recomputes what they
must satisfy with code of its own: labels from the written prices, split
bookkeeping, standardisation, dominance, complexity, the MTD tournament,
hypervolume and the rule-of-thumb sizes. A failed check raises CheckError.
None of these functions imports the program under test; the one comparison
against the program's own hypervolume takes the program's value as an
argument.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

WARMUP_BARS = 40
N_FEATURES = 68          # catalog size, the feature prefix of a full genome
N_LAYERS = 2
BITS_PER_LAYER = 8
S_MAX = 2 ** (BITS_PER_LAYER - 1) - 1
N_CLASSES = 2
SPLIT_NAMES = ("pr", "train", "test", "hold")
MTD_RANKINGS = {"O1": (1, 1, 1), "O2": (1, 2, 3), "O3": (1, 2, 1),
                "O4": (2, 3, 1), "O5": (1, 3, 3)}
MTD_INTENSITY = 9.0
HV_REFERENCE = (1.0, 1.0, 1.0)


class CheckError(AssertionError):
    """An artifact disagrees with the benchmark's own computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def csv_rows(path: Path) -> list[list[str]]:
    """CSV rows without '#' comment lines."""
    with path.open(newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


# ---------------------------------------------------------------------------
# ingest artifacts
# ---------------------------------------------------------------------------

def read_split(data_dir, name: str):
    """(dates, features, labels) of one written split file."""
    rows = csv_rows(Path(data_dir) / "splits" / f"{name}.csv")
    body = rows[1:]
    dates = [r[0] for r in body]
    feats = np.array([[float(v) for v in r[1:-1]] for r in body]).reshape(len(body), -1)
    labels = np.array([int(r[-1]) for r in body], dtype=int)
    return dates, feats, labels


def manifest(data_dir) -> dict:
    return json.loads((Path(data_dir) / "splits" / "manifest.json").read_text())


def _price(text: str) -> float:
    """A price cell. Under numpy 2 the synthetic writer wraps each value as
    ``np.float64(<repr>)``; the repr inside still holds every digit."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def check_labels(data_dir) -> None:
    """Each pattern label is next-day close > close in the written ohlcv.csv."""
    rows = csv_rows(Path(data_dir) / "ohlcv.csv")
    header = [h.lower() for h in rows[0]]
    d_col, c_col = header.index("date"), header.index("close")
    position = {r[d_col]: i for i, r in enumerate(rows[1:])}
    closes = [_price(r[c_col]) for r in rows[1:]]
    for name in SPLIT_NAMES:
        dates, _, labels = read_split(data_dir, name)
        for day, label in zip(dates, labels):
            _require(day in position, f"{name}: pattern date {day} not in ohlcv.csv")
            i = position[day]
            _require(i + 1 < len(closes), f"{name}: pattern {day} has no next-day close")
            expected = 1 if closes[i + 1] > closes[i] else 0
            _require(label == expected,
                     f"{name}: label {label} on {day}, next-day movement gives {expected}")


def check_splits(data_dir, bars: int) -> None:
    """Counts sum to bars - warm-up - 1; windows are date-ordered and disjoint."""
    counts = manifest(data_dir)["counts"]
    total = sum(counts[name] for name in SPLIT_NAMES)
    _require(total == bars - WARMUP_BARS - 1,
             f"split counts {counts} sum to {total}, expected {bars - WARMUP_BARS - 1}")
    previous_last = None
    for name in SPLIT_NAMES:
        dates, _, labels = read_split(data_dir, name)
        _require(len(labels) == counts[name],
                 f"{name}: {len(labels)} rows written, manifest says {counts[name]}")
        _require(len(dates) > 0, f"{name}: empty window")
        _require(all(a < b for a, b in zip(dates, dates[1:])),
                 f"{name}: dates not strictly increasing")
        if previous_last is not None:
            _require(previous_last < dates[0],
                     f"{name}: starts {dates[0]}, not after the previous window's {previous_last}")
        previous_last = dates[-1]


def check_standardized(data_dir, tol: float = 1e-9) -> None:
    """Train columns have mean 0 and sd 1 (ddof=1), apart from constant columns."""
    _, feats, _ = read_split(data_dir, "train")
    constant = set(manifest(data_dir)["standardizer"]["constant_columns"])
    for j in range(feats.shape[1]):
        if j in constant:
            continue
        column = feats[:, j]
        mean = math.fsum(column) / len(column)
        sd = math.sqrt(math.fsum((v - mean) ** 2 for v in column) / (len(column) - 1))
        _require(abs(mean) < tol and abs(sd - 1.0) < tol,
                 f"train column {j}: mean {mean!r}, sd {sd!r}")


def check_identical_trees(a, b) -> None:
    """Two directories hold the same relative files with the same bytes."""
    a, b = Path(a), Path(b)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    _require(files_a == files_b, f"file lists differ: {files_a} vs {files_b}")
    for rel in files_a:
        _require((a / rel).read_bytes() == (b / rel).read_bytes(), f"{rel} differs")


def split_bytes(data_dir) -> int:
    return sum(p.stat().st_size for p in (Path(data_dir) / "splits").iterdir())


# ---------------------------------------------------------------------------
# archives
# ---------------------------------------------------------------------------

def read_members(archive_path) -> list[tuple[str, tuple[float, float, float]]]:
    members = []
    for line in Path(archive_path).read_text().splitlines():
        row = json.loads(line)
        if row.get("record") == "member":
            members.append((row["genome"], (row["e_cv"], row["c"], row["e_pr"])))
    return members


def dominates(a, b) -> bool:
    """a is no worse than b in every objective and better in one (minimisation)."""
    no_worse = a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]
    return no_worse and (a[0] < b[0] or a[1] < b[1] or a[2] < b[2])


def check_nondominated(members) -> None:
    _require(len(members) > 0, "empty archive")
    for i, (gi, oi) in enumerate(members):
        for gj, oj in members[i + 1:]:
            _require(not dominates(oi, oj), f"member {gi[:16]}... dominates {gj[:16]}...")
            _require(not dominates(oj, oi), f"member {gj[:16]}... dominates {gi[:16]}...")


def complexity_from_bits(genome: str, fixed_features: int | None = None) -> float:
    """The ``genome`` docstring formula, read from the bits.

    A full genome is the 68-bit feature prefix then two 8-bit layer blocks
    (7 big-endian size bits, 1 activation bit). A topology-only genome holds
    the layer blocks alone, with ``fixed_features`` inputs chosen a priori.
    """
    if fixed_features is None:
        n_selected = genome[:N_FEATURES].count("1")
        blocks = genome[N_FEATURES:]
    else:
        n_selected = fixed_features
        blocks = genome
    _require(len(blocks) == N_LAYERS * BITS_PER_LAYER, f"genome of length {len(genome)}")
    sizes = [int(blocks[k * BITS_PER_LAYER:(k + 1) * BITS_PER_LAYER - 1], 2)
             for k in range(N_LAYERS)]
    active = [s for s in sizes if s > 0]
    size_term = sum(active) / S_MAX / len(active) if active else 0.0
    return (n_selected / N_FEATURES + len(active) / N_LAYERS + size_term) / 3.0


def check_members(members, fixed_features: int | None = None) -> None:
    """c matches the bits, and e_cv, e_pr lie in [0, 1]."""
    for genome, (e_cv, c, e_pr) in members:
        expected = complexity_from_bits(genome, fixed_features)
        _require(abs(c - expected) <= 1e-12,
                 f"{genome[:16]}...: c={c!r}, bits give {expected!r}")
        for name, v in (("e_cv", e_cv), ("e_pr", e_pr)):
            _require(0.0 <= v <= 1.0, f"{genome[:16]}...: {name}={v!r} outside [0, 1]")


def search_evaluations(run_dir, algorithm: str, runs: int) -> list[int]:
    """Last ``evaluations`` entry of each seed's generations.csv."""
    out = []
    for k in range(1, runs + 1):
        rows = csv_rows(Path(run_dir) / algorithm / f"seed-{k}" / "generations.csv")
        column = rows[0].index("evaluations")
        _require(len(rows) > 1, f"seed-{k}: generations.csv has no rows")
        out.append(int(rows[-1][column]))
    return out


def check_fe_budget(run_dir, algorithm: str, runs: int, budget: int) -> int:
    """Every seed spent exactly its FE budget; returns the total FE."""
    spent = search_evaluations(run_dir, algorithm, runs)
    _require(all(s == budget for s in spent), f"FE spent per seed {spent}, budget {budget}")
    return sum(spent)


# ---------------------------------------------------------------------------
# MTD selection
# ---------------------------------------------------------------------------

def mtd_weights(rankings, intensity: float = MTD_INTENSITY) -> list[float]:
    """Row geometric means of pi[i][j] = I ** ((O_j - O_i) / 2), normalised."""
    n = len(rankings)
    theta = []
    for oi in rankings:
        product = 1.0
        for oj in rankings:
            product *= intensity ** ((oj - oi) / (n - 1))
        theta.append(product ** (1.0 / n))
    total = sum(theta)
    return [t / total for t in theta]


def mtd_choice(members, rankings, intensity: float = MTD_INTENSITY) -> str:
    """Genome the tournament picks: best weighted geometric mean of win shares.

    A member wins against each other member with a strictly larger value in an
    objective; exact rank ties go to lowest e_cv, then c, then genome string.
    """
    n = len(members)
    _require(n > 0, "empty archive")
    if n == 1:
        return members[0][0]
    w = np.array(mtd_weights(rankings))
    objs = np.array([o for _, o in members])
    ranks = []
    for i in range(n):
        shares = [(objs[:, m] > objs[i, m]).sum() / (n - 1) for m in range(3)]
        ranks.append(np.prod(np.array(shares) ** w) ** (1.0 / 3.0))
    best = max(ranks)
    tied = [i for i in range(n) if ranks[i] == best]
    chosen = min(tied, key=lambda i: (members[i][1][0], members[i][1][1], members[i][0]))
    return members[chosen][0]


def check_selection(members, selection_path, preset: str) -> None:
    record = json.loads(Path(selection_path).read_text())
    expected = mtd_choice(members, MTD_RANKINGS[preset])
    _require(record["genome"] == expected,
             f"{preset} selected {record['genome'][:16]}..., tournament gives {expected[:16]}...")
    objectives = dict(zip(("e_cv", "c", "e_pr"), dict(members)[expected]))
    _require(record["objectives"] == objectives,
             f"{preset} objectives {record['objectives']} differ from the archive's")


# ---------------------------------------------------------------------------
# hold-out, export, baseline
# ---------------------------------------------------------------------------

def check_holdout(holdout_path, cycles: int, n_hold: int) -> None:
    record = json.loads(Path(holdout_path).read_text())
    _require(record["cycles"] == cycles, f"hold-out cycles {record['cycles']}, ran {cycles}")
    correct = record["accuracy"] * cycles * n_hold
    _require(abs(correct - round(correct)) < 1e-6,
             f"accuracy {record['accuracy']!r} x {cycles} x {n_hold} is not whole")
    for key in ("accuracy", "balanced_error"):
        _require(0.0 <= record[key] <= 1.0, f"hold-out {key}={record[key]!r}")


def check_export(front_path, members) -> None:
    rows = csv_rows(Path(front_path))
    header = rows[0]
    exported = {}
    for r in rows[1:]:
        row = dict(zip(header, r))
        genome = row["genome"]
        exported[genome] = (float(row["e_cv"]), float(row["c"]), float(row["e_pr"]))
        popcount = genome[:N_FEATURES].count("1")
        _require(int(row["n_features"]) == popcount,
                 f"{genome[:16]}...: n_features {row['n_features']}, popcount {popcount}")
    _require(len(exported) == len(rows) - 1, "duplicate genomes in export")
    _require(exported == dict(members), "export rows differ from the archive members")


def _round_half_away(x: float) -> int:
    return int(math.floor(abs(x) + 0.5)) * (1 if x >= 0 else -1)


def rule_sizes(d: int, n_train: int, m: int = N_CLASSES) -> dict[str, tuple[int, int]]:
    """(s1, s2) of each rule of thumb for d inputs, m classes, n_train patterns."""
    return {
        "kolmogorov": (2 * d + 1, 0),
        "hush": (_round_half_away(4.0 * d), _round_half_away(2.0 * m)),
        "wang": (_round_half_away(2.0 * d / 3.0), 0),
        "ripley": (_round_half_away((d + m) / 2.0), 0),
        "fletcher_goss": (_round_half_away(2.0 * math.sqrt(d) + m), 0),
        "huang": (_round_half_away(math.sqrt((m + 2) * n_train)
                                   + 2.0 * math.sqrt(n_train / (m + 2))),
                  _round_half_away(m * math.sqrt(n_train / (m + 2)))),
    }


def check_rules(rules_path, n_retained: int, n_train: int) -> int:
    """Every rules.csv row has the formula's sizes; returns the row count."""
    rows = csv_rows(Path(rules_path))
    header = rows[0]
    expected = rule_sizes(n_retained, n_train)
    seen = set()
    for r in rows[1:]:
        row = dict(zip(header, r))
        rule = row["rule"]
        _require(rule in expected, f"unknown rule {rule!r}")
        got = (int(row["s1"]), int(row["s2"]))
        _require(got == expected[rule], f"{rule}: sizes {got}, formula gives {expected[rule]}")
        seen.add(rule)
    _require(seen == set(expected), f"rules written {sorted(seen)}")
    return len(rows) - 1


# ---------------------------------------------------------------------------
# hypervolume by lattice cells
# ---------------------------------------------------------------------------

def lattice_hypervolume(points, reference=HV_REFERENCE) -> float:
    """Exact dominated volume (minimisation) by summing grid cells.

    The distinct coordinates of the points and the reference cut each axis
    into intervals; a cell is dominated when some point is no larger than
    its lower corner in every axis. Each z slab is a 2-D grid whose
    dominated cells come from cumulative ORs along x and y.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    ref = np.asarray(reference, dtype=float)
    if pts.size == 0:
        return 0.0
    _require(bool(np.all(pts <= ref)), "a point lies beyond the reference")
    axes = [np.unique(np.append(pts[:, k], ref[k])) for k in range(3)]
    widths = [np.diff(a) for a in axes]
    index = [np.searchsorted(axes[k], pts[:, k]) for k in range(3)]
    marks = np.zeros((len(widths[0]), len(widths[1])), dtype=bool)
    volume = 0.0
    for kz, dz in enumerate(widths[2]):
        newly = index[2] == kz
        marks[index[0][newly], index[1][newly]] = True
        covered = np.logical_or.accumulate(np.logical_or.accumulate(marks, axis=0), axis=1)
        volume += float(widths[0] @ covered.astype(float) @ widths[1]) * float(dz)
    return volume


def check_hypervolume(members, program_value: float, tol: float = 1e-12) -> float:
    """Own lattice hypervolume equals the program's within tol; returns it."""
    own = lattice_hypervolume([o for _, o in members])
    _require(abs(own - program_value) <= tol,
             f"hypervolume {own!r} (lattice) vs {program_value!r} (moea.hypervolume)")
    return own
