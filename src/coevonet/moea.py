"""Multi-objective search engines over binary genomes.

Two engines share the evaluation problems defined in ``objectives``:

* ``nsga2_run``: elitist non-dominated sorting with crowding tournaments,
  augmented recombination (with configured probability a non-geometric
  operator replaces plain uniform crossover), and per-bit mutation.
* ``eagd_run``: a decomposition engine with Tchebycheff aggregation over a
  simplex-lattice weight set, neighborhood mating, and an external dominance
  archive that both collects results and periodically supplies parents.

Both stop on a function-evaluation budget (cache hits are free) and are
bit-reproducible for a fixed seed. ``random_search_run`` evaluates the same
budget of uniform genomes and is the reference front for efficacy checks.

The engines, and the scalarized GA in ``baselines``, share one skeleton:
``_random_genome`` draws initial genomes, ``_make_offspring`` builds children
from a caller's parent picker, and ``_evaluate_batch`` is the only budget
check. Objectives enter sorting and crowding as plain (n, 3) float rows.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .genome import bits_to_string, string_to_bits
from .objectives import ObjectiveVector

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# dominance and archive
# ---------------------------------------------------------------------------

def dominates(a, b) -> bool:
    """Strict Pareto dominance of two objective sequences, minimization."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def _objective_rows(objectives) -> np.ndarray:
    """(n, 3) float array of ``ObjectiveVector`` values, in order."""
    return np.array([o.as_tuple() for o in objectives], dtype=float).reshape(-1, 3)


class ParetoArchive:
    """Mutually non-dominated (bitstring, objective) pairs, deduplicated by bits."""

    def __init__(self):
        self._members: dict[str, ObjectiveVector] = {}

    def __len__(self) -> int:
        return len(self._members)

    def members(self) -> list[tuple[str, ObjectiveVector]]:
        return sorted(self._members.items(),
                      key=lambda kv: (kv[1].as_tuple(), kv[0]))

    def objective_matrix(self) -> np.ndarray:
        return _objective_rows([obj for _, obj in self.members()])

    def add(self, bits, objectives: ObjectiveVector) -> bool:
        bits_str = bits if isinstance(bits, str) else bits_to_string(bits)
        if bits_str in self._members:
            return False
        new = objectives.as_tuple()
        for obj in self._members.values():
            if dominates(obj.as_tuple(), new):
                return False
        dominated = [k for k, v in self._members.items() if dominates(new, v.as_tuple())]
        for k in dominated:
            del self._members[k]
        self._members[bits_str] = objectives
        return True

    def is_dominance_fixed_point(self) -> bool:
        return not _dominance_matrix(self.objective_matrix()).any()


def merge_archives(archives) -> ParetoArchive:
    merged = ParetoArchive()
    for archive in archives:
        for bits_str, obj in archive.members():
            merged.add(bits_str, obj)
    return merged


# ---------------------------------------------------------------------------
# non-dominated sorting and crowding (Deb et al.)
# ---------------------------------------------------------------------------

def _dominance_matrix(objs: np.ndarray) -> np.ndarray:
    """Boolean (n, n) matrix whose [i, j] entry says that row i dominates row j."""
    le = (objs[:, None, :] <= objs[None, :, :]).all(axis=2)
    lt = (objs[:, None, :] < objs[None, :, :]).any(axis=2)
    return le & lt


def fast_nondominated_sort(objectives) -> list[list[int]]:
    """Partition indices into fronts; front 0 is the non-dominated set.

    ``objectives`` is a sequence of objective sequences or an (n, m) array.
    Fronts come out in Deb's peeling order: front 0 by index, and a later
    member when its last dominator in the previous front is passed (ties by
    index). Crowding ties, and so the engines' runs, depend on this order.
    """
    if len(objectives) == 0:
        return []
    dom = _dominance_matrix(np.asarray(objectives, dtype=float))
    count = dom.sum(axis=0)
    front = np.flatnonzero(count == 0)
    fronts = []
    while front.size:
        fronts.append(front.tolist())
        beaten = dom[front]
        count = count - beaten.sum(axis=0)
        nxt = np.flatnonzero(beaten.any(axis=0) & (count == 0))
        last = len(front) - 1 - np.argmax(beaten[::-1][:, nxt], axis=0)
        front = nxt[np.lexsort((nxt, last))]
    return fronts


def crowding_distance(objectives) -> np.ndarray:
    """Crowding distances for one front (sequences or an (n, m) array); extremes are infinite."""
    n = len(objectives)
    if n <= 2:
        return np.full(n, np.inf)
    objs = np.asarray(objectives, dtype=float)
    dist = np.zeros(n)
    for m in range(objs.shape[1]):
        order = np.argsort(objs[:, m], kind="stable")
        lo, hi = objs[order[0], m], objs[order[-1], m]
        dist[order[0]] = dist[order[-1]] = np.inf
        if hi > lo:
            gaps = (objs[order[2:], m] - objs[order[:-2], m]) / (hi - lo)
            dist[order[1:-1]] += gaps
    return dist


def crowding_tournament(rank_a, crowd_a, rank_b, crowd_b, rng: np.random.Generator) -> int:
    """0 if the first contestant wins, 1 otherwise (rank, then crowding, then coin)."""
    if rank_a != rank_b:
        return 0 if rank_a < rank_b else 1
    if crowd_a != crowd_b:
        return 0 if crowd_a > crowd_b else 1
    return int(rng.integers(2))


# ---------------------------------------------------------------------------
# variation operators
# ---------------------------------------------------------------------------

def uniform_crossover(p1: np.ndarray, p2: np.ndarray,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    if p1.shape != p2.shape:
        raise ValueError("parent length mismatch")
    mask = rng.integers(0, 2, size=p1.shape, dtype=np.uint8).astype(bool)
    c1 = np.where(mask, p1, p2).astype(np.uint8)
    c2 = np.where(mask, p2, p1).astype(np.uint8)
    return c1, c2


def nongeometric_crossover(p1: np.ndarray, p2: np.ndarray, rng: np.random.Generator,
                           p_flip: float) -> np.ndarray:
    """Uniform-crossover child whose parent-agreeing bits each flip with p_flip.

    Flips at agreeing positions can move the child outside the parents'
    Hamming segment, which is the point of the operator.
    """
    if p1.shape != p2.shape:
        raise ValueError("parent length mismatch")
    child, _ = uniform_crossover(p1, p2, rng)
    agree = p1 == p2
    flips = agree & (rng.random(p1.shape) < p_flip)
    child[flips] ^= 1
    return child


def bitflip_mutation(bits: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    out = bits.copy()
    flips = rng.random(bits.shape) < rate
    out[flips] ^= 1
    return out


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

@dataclass
class Nsga2Config:
    population: int = 50
    crossover_rate: float = 0.9
    nongeometric_prob: float = 0.8
    flip_prob: float | None = None      # default 1/n
    mutation_rate: float | None = None  # default 1/n
    max_evaluations: int = 15000
    seed: int = 1

    def __post_init__(self):
        if self.population < 2 or self.population % 2:
            raise ValueError("population must be even and >= 2")
        for p in (self.crossover_rate, self.nongeometric_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")


@dataclass
class EagdConfig:
    population: int = 50
    crossover_rate: float = 1.0
    learning_generations: int = 8
    neighborhood_fraction: float = 0.10
    mutation_rate: float | None = None  # default 1/n
    max_evaluations: int = 15000
    seed: int = 1

    @property
    def neighborhood_size(self) -> int:
        return max(2, math.ceil(self.neighborhood_fraction * self.population))


@dataclass
class GenerationStats:
    generation: int
    evaluations: int
    front_size: int
    best: tuple[float, float, float]
    mean: tuple[float, float, float]
    hypervolume: float

    @staticmethod
    def csv_header() -> list[str]:
        return ["generation", "evaluations", "front_size",
                "best_e_cv", "best_c", "best_e_pr",
                "mean_e_cv", "mean_c", "mean_e_pr", "hypervolume"]

    def csv_row(self) -> list:
        return [self.generation, self.evaluations, self.front_size,
                *[repr(float(v)) for v in (*self.best, *self.mean, self.hypervolume)]]


def write_generation_csv(path, stats: list[GenerationStats], preamble: str | None = None):
    with open(path, "w", newline="") as fh:
        if preamble:
            fh.write(f"# {preamble}\n")
        w = csv.writer(fh)
        w.writerow(GenerationStats.csv_header())
        for s in stats:
            w.writerow(s.csv_row())


def _snapshot(gen: int, problem, objs: np.ndarray, fronts) -> GenerationStats:
    """Statistics of a population given its objective rows and their fronts."""
    front = objs[fronts[0]]
    hv = hypervolume(front, np.array([1.0, 1.0, 1.0]))
    return GenerationStats(
        generation=gen,
        evaluations=problem.fe_count,
        front_size=len(front),
        best=tuple(float(v) for v in objs.min(axis=0)),
        mean=tuple(float(v) for v in objs.mean(axis=0)),
        hypervolume=hv,
    )


def _evaluate_batch(problem, batch, cap):
    """Evaluate genomes until the FE cap would be exceeded; cache hits are free.

    This is the only budget check of the engines: it returns the evaluated
    (bits string, record) pairs and whether the cap stopped the batch.
    """
    out = []
    exhausted = False
    for bits in batch:
        bits_str = bits_to_string(bits)
        if bits_str not in problem.cache and problem.fe_count >= cap:
            exhausted = True
            break
        out.append((bits_str, problem.evaluate(bits_str)))
    return out, exhausted


def _random_genome(problem, rng: np.random.Generator) -> np.ndarray:
    return problem.repair(rng.integers(0, 2, size=problem.n_bits, dtype=np.uint8), rng)


def _make_offspring(pick_parent, problem, cfg: Nsga2Config,
                    rng: np.random.Generator) -> list[np.ndarray]:
    """``cfg.population`` repaired children of tournament-picked parent pairs.

    With probability ``crossover_rate`` a pair recombines, by two
    non-geometric children (probability ``nongeometric_prob``) or one uniform
    crossover pair; otherwise it is copied. Every child is then mutated.
    """
    n = problem.n_bits
    flip_prob = cfg.flip_prob if cfg.flip_prob is not None else 1.0 / n
    mutation_rate = cfg.mutation_rate if cfg.mutation_rate is not None else 1.0 / n
    offspring = []
    while len(offspring) < cfg.population:
        pa, pb = pick_parent(), pick_parent()
        if rng.random() < cfg.crossover_rate:
            if rng.random() < cfg.nongeometric_prob:
                kids = [nongeometric_crossover(pa, pb, rng, flip_prob),
                        nongeometric_crossover(pa, pb, rng, flip_prob)]
            else:
                kids = list(uniform_crossover(pa, pb, rng))
        else:
            kids = [pa.copy(), pb.copy()]
        for kid in kids:
            offspring.append(problem.repair(bitflip_mutation(kid, mutation_rate, rng), rng))
    return offspring[:cfg.population]


def nsga2_run(problem, cfg: Nsga2Config) -> tuple[ParetoArchive, list[GenerationStats]]:
    rng = np.random.default_rng(cfg.seed)
    cap = cfg.max_evaluations
    evaluated, exhausted = _evaluate_batch(
        problem, [_random_genome(problem, rng) for _ in range(cfg.population)], cap)
    pop_bits = [string_to_bits(b) for b, _ in evaluated]
    pop_objs = [rec.objectives for _, rec in evaluated]
    # each population is sorted once: for its statistics, the next
    # generation's tournament and, at the end, the archive
    rows = _objective_rows(pop_objs)
    fronts = fast_nondominated_sort(rows)
    stats = [_snapshot(0, problem, rows, fronts)]
    gen = 0
    while not exhausted and problem.fe_count < cap:
        gen += 1
        ranks, crowds = _rank_and_crowd(rows, fronts)

        def pick_parent():
            i, j = rng.integers(len(pop_bits)), rng.integers(len(pop_bits))
            winner = crowding_tournament(ranks[i], crowds[i], ranks[j], crowds[j], rng)
            return pop_bits[i if winner == 0 else j]

        offspring = _make_offspring(pick_parent, problem, cfg, rng)
        evaluated, exhausted = _evaluate_batch(problem, offspring, cap)
        pool_bits = pop_bits + [string_to_bits(b) for b, _ in evaluated]
        pool_objs = pop_objs + [rec.objectives for _, rec in evaluated]
        pop_bits, pop_objs = _environmental_selection(pool_bits, pool_objs, cfg.population)
        rows = _objective_rows(pop_objs)
        fronts = fast_nondominated_sort(rows)
        stats.append(_snapshot(gen, problem, rows, fronts))
    archive = ParetoArchive()
    for idx in fronts[0]:
        archive.add(pop_bits[idx], pop_objs[idx])
    logger.info("nsga2: %d generations, %d evaluations (%d cache hits), front %d",
                gen, problem.fe_count, problem.cache_hits, len(archive))
    return archive, stats


def _rank_and_crowd(rows: np.ndarray, fronts) -> tuple[np.ndarray, np.ndarray]:
    ranks = np.empty(len(rows), dtype=int)
    crowds = np.empty(len(rows), dtype=float)
    for r, front in enumerate(fronts):
        ranks[front] = r
        crowds[front] = crowding_distance(rows[front])
    return ranks, crowds


def _environmental_selection(pool_bits, pool_objs, target):
    rows = _objective_rows(pool_objs)
    keep = []
    for front in fast_nondominated_sort(rows):
        if len(keep) + len(front) <= target:
            keep.extend(front)
        else:
            crowds = crowding_distance(rows[front])
            order = sorted(range(len(front)), key=lambda i: -crowds[i])
            keep.extend(front[i] for i in order[:target - len(keep)])
            break
        if len(keep) == target:
            break
    return [pool_bits[i] for i in keep], [pool_objs[i] for i in keep]


def simplex_lattice_weights(n_obj: int, count: int) -> np.ndarray:
    """``count`` weight vectors thinned evenly from the smallest simplex lattice.

    The lattice with divisions H holds C(H + n_obj - 1, n_obj - 1) points; the
    smallest H whose lattice is at least ``count`` large is generated in
    lexicographic order and then sampled at evenly spaced positions.
    """
    h = 1
    while math.comb(h + n_obj - 1, n_obj - 1) < count:
        h += 1
    points = []
    for cuts in combinations(range(h + n_obj - 1), n_obj - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(h + n_obj - 2 - prev)
        points.append([p / h for p in parts])
    lattice = np.array(points)
    idx = np.round(np.linspace(0, len(lattice) - 1, count)).astype(int)
    return lattice[idx]


def _tchebycheff(f: np.ndarray, weights: np.ndarray, ideal: np.ndarray) -> float:
    w = np.maximum(weights, 1e-6)
    return float(np.max(w * np.abs(f - ideal)))


def eagd_run(problem, cfg: EagdConfig) -> tuple[ParetoArchive, list[GenerationStats]]:
    rng = np.random.default_rng(cfg.seed)
    n = problem.n_bits
    mutation_rate = cfg.mutation_rate if cfg.mutation_rate is not None else 1.0 / n
    cap = cfg.max_evaluations
    weights = simplex_lattice_weights(3, cfg.population)
    dist = np.linalg.norm(weights[:, None, :] - weights[None, :, :], axis=2)
    neighbors = np.argsort(dist, axis=1, kind="stable")[:, :cfg.neighborhood_size]

    evaluated, exhausted = _evaluate_batch(
        problem, [_random_genome(problem, rng) for _ in range(cfg.population)], cap)
    pop_bits = [string_to_bits(b) for b, _ in evaluated]
    pop_objs = [rec.objectives for _, rec in evaluated]
    while len(pop_bits) < cfg.population:  # budget smaller than the population
        pop_bits.append(pop_bits[-1].copy())
        pop_objs.append(pop_objs[-1])
    archive = ParetoArchive()
    for b, o in zip(pop_bits, pop_objs):
        archive.add(b, o)
    rows = _objective_rows(pop_objs)
    ideal = rows.min(axis=0)
    stats = [_snapshot(0, problem, rows, fast_nondominated_sort(rows))]
    gen = 0
    while not exhausted and problem.fe_count < cap:
        gen += 1
        guided = cfg.learning_generations > 0 and gen % cfg.learning_generations == 0
        archive_members = archive.members() if guided else None
        for i in rng.permutation(cfg.population):
            hood = neighbors[i]
            if guided and archive_members:
                pa = string_to_bits(archive_members[int(rng.integers(len(archive_members)))][0])
                pb = pop_bits[hood[int(rng.integers(len(hood)))]]
            else:
                ja, jb = rng.choice(hood, size=2, replace=len(hood) < 2)
                pa, pb = pop_bits[ja], pop_bits[jb]
            if rng.random() < cfg.crossover_rate:
                child = uniform_crossover(pa, pb, rng)[0]
            else:
                child = pa.copy()
            child = problem.repair(bitflip_mutation(child, mutation_rate, rng), rng)
            evaluated, exhausted = _evaluate_batch(problem, [child], cap)
            if exhausted:
                break
            child_str, rec = evaluated[0]
            f = np.asarray(rec.objectives.as_tuple())
            ideal = np.minimum(ideal, f)
            replaced = 0
            for j in rng.permutation(hood):
                if _tchebycheff(f, weights[j], ideal) <= _tchebycheff(rows[j], weights[j], ideal):
                    pop_bits[j] = child.copy()
                    rows[j] = f
                    replaced += 1
                    if replaced >= 2:
                        break
            archive.add(child_str, rec.objectives)
        stats.append(_snapshot(gen, problem, rows, fast_nondominated_sort(rows)))
    logger.info("eagd: %d generations, %d evaluations (%d cache hits), archive %d",
                gen, problem.fe_count, problem.cache_hits, len(archive))
    return archive, stats


def random_search_run(problem, budget: int, seed: int) -> ParetoArchive:
    """Uniform random genomes under the same evaluation budget."""
    rng = np.random.default_rng(seed)
    archive = ParetoArchive()
    while problem.fe_count < budget:
        bits = _random_genome(problem, rng)
        archive.add(bits, problem.evaluate(bits).objectives)
    return archive


# ---------------------------------------------------------------------------
# hypervolume (exact, 3 objectives)
# ---------------------------------------------------------------------------

def _staircase_area_2d(points: np.ndarray, ref_x: float, ref_y: float) -> float:
    """Area of the union of [x_i, ref_x] x [y_i, ref_y] boxes."""
    keep = []
    for x, y in sorted(map(tuple, points)):
        if keep and y >= keep[-1][1]:
            continue  # dominated in 2D by an earlier (smaller-x) point
        keep.append((x, y))
    area = 0.0
    y_prev = ref_y
    for x, y in keep:
        area += (ref_x - x) * (y_prev - y)
        y_prev = y
    return area


def hypervolume(points, reference) -> float:
    """Exact dominated hypervolume for 3 minimization objectives (z-sweep)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    ref = np.asarray(reference, dtype=float)
    if pts.size == 0:
        return 0.0
    if np.any(pts > ref):
        raise ValueError("reference point lies inside the front (a member exceeds it)")
    front_idx = fast_nondominated_sort(pts)[0]
    pts = pts[front_idx]
    order = np.argsort(pts[:, 2], kind="stable")
    pts = pts[order]
    z_levels = np.unique(pts[:, 2])
    volume = 0.0
    for li, z in enumerate(z_levels):
        z_next = z_levels[li + 1] if li + 1 < len(z_levels) else ref[2]
        active = pts[pts[:, 2] <= z][:, :2]
        volume += _staircase_area_2d(active, ref[0], ref[1]) * (z_next - z)
    return volume
