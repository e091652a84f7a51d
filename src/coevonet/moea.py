"""Multi-objective search engines over binary genomes.

Two engines share the evaluation problems defined in ``objectives``:

* ``nsga2_run``: elitist non-dominated sorting with crowding tournaments,
  recombination of a pair with probability ``CROSSOVER_RATE`` (non-geometric
  with probability ``NONGEOMETRIC_PROB``, else uniform), and per-bit mutation.
* ``eagd_run``: a decomposition engine with Tchebycheff aggregation over a
  simplex-lattice weight set, mating within neighborhoods of
  ``NEIGHBORHOOD_FRACTION`` of the population, and an external dominance
  archive that both collects results and, every ``LEARNING_GENERATIONS``
  generations, supplies one parent of each child.

Both take the population, the function-evaluation budget (cache hits are
free) and the seed as plain arguments, and are bit-reproducible for a fixed
seed. ``random_search_run`` evaluates the same budget of uniform genomes and
is the reference front for efficacy checks.

The engines, and the scalarized GA in ``baselines``, share one skeleton:
``_random_genome`` draws initial genomes, ``_make_offspring`` builds children
from a caller's parent picker, and ``_evaluate_batch`` is the only budget
check. A genome is a bit string from the moment ``repair`` returns it:
populations, batches and archives hold strings, and variation turns its
parents into uint8 arrays and its repaired children back into strings.
Objectives enter sorting and crowding as plain (n, 3) float rows.
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

    def add(self, bits_str: str, objectives: ObjectiveVector) -> bool:
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

#: NSGA-II's recombination: the probability that a parent pair recombines,
#: and that it does so by the non-geometric operator.
CROSSOVER_RATE = 0.9
NONGEOMETRIC_PROB = 0.8
#: EAGD's crossover probability, and its neighborhood's share of the population.
EAGD_CROSSOVER_RATE = 1.0
NEIGHBORHOOD_FRACTION = 0.10
#: EAGD draws one parent of each child from its archive every this many generations.
LEARNING_GENERATIONS = 8


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


def write_generation_csv(path, stats: list, preamble: str | None = None):
    """Per-generation trace rows under the header of their own type.

    ``stats`` holds ``GenerationStats`` or any rows with the same
    ``csv_header``/``csv_row`` pair; an empty trace gets the
    ``GenerationStats`` header.
    """
    with open(path, "w", newline="") as fh:
        if preamble:
            fh.write(f"# {preamble}\n")
        w = csv.writer(fh)
        w.writerow((type(stats[0]) if stats else GenerationStats).csv_header())
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

    This is the only budget check of the engines. It first fixes the prefix
    of ``batch`` (bit strings) that fits the budget and hands that prefix's
    fresh genomes to ``problem.start`` at once, then evaluates the prefix in
    order. It returns the evaluated (bits string, record) pairs and whether
    the cap stopped the batch.
    """
    accepted = []
    fresh = {}      # an ordered set: a repeat within the batch is a cache hit
    exhausted = False
    for bits_str in batch:
        if bits_str not in problem.cache and bits_str not in fresh:
            if problem.fe_count + len(fresh) >= cap:
                exhausted = True
                break
            fresh[bits_str] = None
        accepted.append(bits_str)
    problem.start(list(fresh))
    return [(bits_str, problem.evaluate(bits_str)) for bits_str in accepted], exhausted


def _random_genome(problem, rng: np.random.Generator) -> str:
    return bits_to_string(problem.repair(rng.integers(0, 2, size=problem.n_bits, dtype=np.uint8),
                                         rng))


def _make_offspring(pick_parent, problem, population: int,
                    rng: np.random.Generator) -> list[str]:
    """``population`` repaired children of tournament-picked parent pairs.

    With probability ``CROSSOVER_RATE`` a pair recombines, by two
    non-geometric children (probability ``NONGEOMETRIC_PROB``) or one uniform
    crossover pair; otherwise it is copied. Every child is then mutated. The
    non-geometric flip probability and the mutation rate are both 1/n.
    """
    rate = 1.0 / problem.n_bits
    offspring = []
    while len(offspring) < population:
        pa, pb = string_to_bits(pick_parent()), string_to_bits(pick_parent())
        if rng.random() < CROSSOVER_RATE:
            if rng.random() < NONGEOMETRIC_PROB:
                kids = [nongeometric_crossover(pa, pb, rng, rate),
                        nongeometric_crossover(pa, pb, rng, rate)]
            else:
                kids = list(uniform_crossover(pa, pb, rng))
        else:
            kids = [pa, pb]
        for kid in kids:
            offspring.append(bits_to_string(
                problem.repair(bitflip_mutation(kid, rate, rng), rng)))
    return offspring[:population]


def nsga2_run(problem, population: int, max_evaluations: int,
              seed: int) -> tuple[ParetoArchive, list[GenerationStats]]:
    rng = np.random.default_rng(seed)
    cap = max_evaluations
    evaluated, exhausted = _evaluate_batch(
        problem, [_random_genome(problem, rng) for _ in range(population)], cap)
    pop_bits = [b for b, _ in evaluated]
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

        offspring = _make_offspring(pick_parent, problem, population, rng)
        evaluated, exhausted = _evaluate_batch(problem, offspring, cap)
        pool_bits = pop_bits + [b for b, _ in evaluated]
        pool_objs = pop_objs + [rec.objectives for _, rec in evaluated]
        pop_bits, pop_objs = _environmental_selection(pool_bits, pool_objs, population)
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
    """Largest weighted distance of ``f`` to ``ideal``; ``eagd_run`` clamps weights to >= 1e-6."""
    return float(np.max(weights * np.abs(f - ideal)))


def eagd_run(problem, population: int, max_evaluations: int,
             seed: int) -> tuple[ParetoArchive, list[GenerationStats]]:
    rng = np.random.default_rng(seed)
    mutation_rate = 1.0 / problem.n_bits
    cap = max_evaluations
    weights = simplex_lattice_weights(3, population)
    dist = np.linalg.norm(weights[:, None, :] - weights[None, :, :], axis=2)
    hood_size = max(2, math.ceil(NEIGHBORHOOD_FRACTION * population))
    neighbors = np.argsort(dist, axis=1, kind="stable")[:, :hood_size]
    weights = np.maximum(weights, 1e-6)     # Tchebycheff weights; neighborhoods use the lattice

    evaluated, exhausted = _evaluate_batch(
        problem, [_random_genome(problem, rng) for _ in range(population)], cap)
    pop_bits = [b for b, _ in evaluated]
    pop_objs = [rec.objectives for _, rec in evaluated]
    while len(pop_bits) < population:  # budget smaller than the population
        pop_bits.append(pop_bits[-1])
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
        guided = gen % LEARNING_GENERATIONS == 0
        archive_members = archive.members() if guided else None
        for i in rng.permutation(population):
            hood = neighbors[i]
            if guided and archive_members:
                pa = archive_members[int(rng.integers(len(archive_members)))][0]
                pb = pop_bits[hood[int(rng.integers(len(hood)))]]
            else:
                ja, jb = rng.choice(hood, size=2, replace=len(hood) < 2)
                pa, pb = pop_bits[ja], pop_bits[jb]
            pa, pb = string_to_bits(pa), string_to_bits(pb)
            # drawn although the rate is 1.0: the draw advances the RNG stream fixed seeds pin
            child = uniform_crossover(pa, pb, rng)[0] if rng.random() < EAGD_CROSSOVER_RATE else pa
            child = bits_to_string(problem.repair(bitflip_mutation(child, mutation_rate, rng), rng))
            evaluated, exhausted = _evaluate_batch(problem, [child], cap)
            if exhausted:
                break
            rec = evaluated[0][1]
            f = np.asarray(rec.objectives.as_tuple())
            ideal = np.minimum(ideal, f)
            replaced = 0
            for j in rng.permutation(hood):
                if _tchebycheff(f, weights[j], ideal) <= _tchebycheff(rows[j], weights[j], ideal):
                    pop_bits[j] = child
                    rows[j] = f
                    replaced += 1
                    if replaced >= 2:
                        break
            archive.add(child, rec.objectives)
        stats.append(_snapshot(gen, problem, rows, fast_nondominated_sort(rows)))
    logger.info("eagd: %d generations, %d evaluations (%d cache hits), archive %d",
                gen, problem.fe_count, problem.cache_hits, len(archive))
    return archive, stats


def random_search_run(problem, budget: int, seed: int) -> ParetoArchive:
    """Uniform random genomes under the same evaluation budget, drawn in batches
    of the evaluations the budget has left (a repeat is a free cache hit)."""
    rng = np.random.default_rng(seed)
    archive = ParetoArchive()
    while problem.fe_count < budget:
        batch = [_random_genome(problem, rng) for _ in range(budget - problem.fe_count)]
        for bits, rec in _evaluate_batch(problem, batch, budget)[0]:
            archive.add(bits, rec.objectives)
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
