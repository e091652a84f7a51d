import numpy as np
import pytest

from conftest import MockProblem, is_dominance_fixed_point, objective_matrix
from coevonet import moea, runner
from coevonet.moea import (
    GenerationStats, ParetoArchive, _evaluate_batch, _tchebycheff, bitflip_mutation,
    crowding_distance, crowding_tournament, dominates, eagd_run,
    fast_nondominated_sort, hypervolume, merge_archives, nongeometric_crossover,
    nsga2_run, random_search_run, simplex_lattice_weights, uniform_crossover,
)
from coevonet.objectives import ObjectiveVector

EQ13_FRONT = [
    (0.43, 0.27, 0.46),
    (0.42, 0.30, 0.48),
    (0.41, 0.36, 0.47),
    (0.45, 0.65, 0.45),
]


def brute_force_fronts(objs):
    """Independent oracle: peel non-dominated subsets one at a time."""
    remaining = list(range(len(objs)))
    fronts = []
    while remaining:
        front = [i for i in remaining
                 if not any(dominates(objs[j], objs[i]) for j in remaining if j != i)]
        fronts.append(sorted(front))
        remaining = [i for i in remaining if i not in front]
    return fronts


def deb_peeling_fronts(objs):
    """Independent oracle of the front order: Deb's pairwise bookkeeping, verbatim."""
    n = len(objs)
    dominated_by = [[] for _ in range(n)]
    count = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(objs[i], objs[j]):
                dominated_by[i].append(j)
                count[j] += 1
            elif dominates(objs[j], objs[i]):
                dominated_by[j].append(i)
                count[i] += 1
    fronts = [[i for i in range(n) if count[i] == 0]]
    while fronts[-1]:
        nxt = []
        for i in fronts[-1]:
            for j in dominated_by[i]:
                count[j] -= 1
                if count[j] == 0:
                    nxt.append(j)
        fronts.append(nxt)
    return fronts[:-1]


def grid_hypervolume(points, ref):
    """Independent oracle: coordinate-compressed cell cover."""
    pts = np.asarray(points, dtype=float)
    axes = [np.unique(np.concatenate([pts[:, d], [ref[d]]])) for d in range(3)]
    covered = np.zeros([len(a) - 1 for a in axes], dtype=bool)
    for p in pts:
        idx = [np.searchsorted(axes[d], p[d]) for d in range(3)]
        covered[idx[0]:, idx[1]:, idx[2]:] = True
    widths = [np.diff(a) for a in axes]
    vol = np.einsum("ijk,i,j,k->", covered.astype(float), *widths)
    return float(vol)


class TestDominance:
    def test_trivial_cases(self):
        assert dominates((0.1, 0.1, 0.1), (0.2, 0.2, 0.2))
        assert not dominates((0.1, 0.3, 0.1), (0.2, 0.2, 0.2))
        assert not dominates((0.1, 0.1, 0.1), (0.1, 0.1, 0.1))

    def test_worked_front_is_mutually_nondominating(self):
        for i, a in enumerate(EQ13_FRONT):
            for j, b in enumerate(EQ13_FRONT):
                if i != j:
                    assert not dominates(a, b)

    def test_sort_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            objs = [tuple(v) for v in rng.random((20, 3)).round(2)]
            assert [sorted(f) for f in fast_nondominated_sort(objs)] == brute_force_fronts(objs)

    def test_sort_keeps_deb_front_order_with_ties(self):
        rng = np.random.default_rng(10)
        for trial in range(300):
            n = int(rng.integers(1, 40))
            levels = int(rng.integers(2, 6))
            arr = rng.integers(0, levels, size=(n, 3)) / levels
            objs = [tuple(v) for v in arr]
            expected = deb_peeling_fronts(objs)
            assert fast_nondominated_sort(objs) == expected, trial
            assert fast_nondominated_sort(arr) == expected, trial

    def test_empty_sort(self):
        assert fast_nondominated_sort([]) == []

    def test_crowding_accepts_rows_or_sequences(self):
        arr = np.array([(0.1, 0.9, 0.5), (0.5, 0.5, 0.5), (0.9, 0.1, 0.5)])
        assert np.array_equal(crowding_distance(arr), crowding_distance([tuple(r) for r in arr]))

    def test_identical_objectives_single_front(self):
        objs = [(0.5, 0.5, 0.5)] * 6
        fronts = fast_nondominated_sort(objs)
        assert len(fronts) == 1 and sorted(fronts[0]) == list(range(6))

    def test_two_member_front_crowding_infinite(self):
        d = crowding_distance([(0.1, 0.9, 0.5), (0.9, 0.1, 0.5)])
        assert np.all(np.isinf(d))

    def test_tournament_prefers_rank_then_crowding(self):
        rng = np.random.default_rng(1)
        assert crowding_tournament(0, 1.0, 1, np.inf, rng) == 0
        assert crowding_tournament(1, 5.0, 1, 2.0, rng) == 0
        assert crowding_tournament(1, 2.0, 1, 5.0, rng) == 1


class TestOperators:
    def test_identical_parents_full_flip_complements(self):
        rng = np.random.default_rng(2)
        p = rng.integers(0, 2, 40, dtype=np.uint8)
        child = nongeometric_crossover(p, p.copy(), rng, p_flip=1.0)
        assert np.array_equal(child, 1 - p)

    def test_zero_flip_is_geometric(self):
        rng = np.random.default_rng(3)
        p1 = rng.integers(0, 2, 60, dtype=np.uint8)
        p2 = rng.integers(0, 2, 60, dtype=np.uint8)
        d12 = int((p1 != p2).sum())
        for _ in range(10):
            c = nongeometric_crossover(p1, p2, rng, p_flip=0.0)
            assert int((p1 != c).sum()) + int((c != p2).sum()) == d12

    def test_flip_counts_binomial(self):
        rng = np.random.default_rng(4)
        n = 84
        p1 = rng.integers(0, 2, n, dtype=np.uint8)
        p2 = p1.copy()
        diff_positions = rng.choice(n, size=20, replace=False)
        p2[diff_positions] ^= 1
        agree = n - 20
        p_flip = 1.0 / n
        trials = 10_000
        flipped = []
        for _ in range(trials):
            c = nongeometric_crossover(p1, p2, rng, p_flip)
            # at agreeing positions any deviation from the shared value is a flip
            mask = p1 == p2
            flipped.append(int((c[mask] != p1[mask]).sum()))
        mean = np.mean(flipped)
        expect = agree * p_flip
        sigma = np.sqrt(agree * p_flip * (1 - p_flip) / trials)
        assert abs(mean - expect) < 3 * sigma

    def test_uniform_crossover_children_complement(self):
        rng = np.random.default_rng(5)
        p1 = np.zeros(30, dtype=np.uint8)
        p2 = np.ones(30, dtype=np.uint8)
        c1, c2 = uniform_crossover(p1, p2, rng)
        assert np.array_equal(c1 ^ c2, np.ones(30, dtype=np.uint8))

    def test_mutation_rate(self):
        rng = np.random.default_rng(6)
        bits = np.zeros(1000, dtype=np.uint8)
        flips = [bitflip_mutation(bits, 0.01, rng).sum() for _ in range(300)]
        assert abs(np.mean(flips) - 10.0) < 1.0


class TestArchive:
    def test_merge_dominated_removed(self):
        a, b = ParetoArchive(), ParetoArchive()
        a.add("01", ObjectiveVector(0.1, 0.1, 0.1))
        b.add("10", ObjectiveVector(0.2, 0.2, 0.2))
        merged = merge_archives([a, b])
        assert [bits for bits, _ in merged.members()] == ["01"]

    def test_archive_is_dominance_fixed_point(self):
        rng = np.random.default_rng(7)
        archive = ParetoArchive()
        for i, row in enumerate(rng.random((200, 3))):
            archive.add(format(i, "08b"), ObjectiveVector(*row))
        assert is_dominance_fixed_point(archive)

    def test_insertion_never_shrinks_hypervolume(self):
        rng = np.random.default_rng(8)
        archive = ParetoArchive()
        ref = np.ones(3)
        prev = 0.0
        for i, row in enumerate(rng.random((120, 3))):
            archive.add(format(i, "08b"), ObjectiveVector(*row))
            hv = hypervolume(objective_matrix(archive), ref)
            assert hv >= prev - 1e-12
            prev = hv

    def test_equal_objectives_both_kept(self):
        archive = ParetoArchive()
        archive.add("00", ObjectiveVector(0.5, 0.5, 0.5))
        archive.add("11", ObjectiveVector(0.5, 0.5, 0.5))
        assert len(archive) == 2


class TestHypervolume:
    def test_single_box(self):
        assert hypervolume([(0.5, 0.5, 0.5)], (1, 1, 1)) == pytest.approx(0.125)

    def test_two_point_inclusion_exclusion(self):
        hv = hypervolume([(0.2, 0.8, 0.5), (0.8, 0.2, 0.5)], (1, 1, 1))
        assert hv == pytest.approx(0.14)

    def test_reference_inside_front_rejected(self):
        with pytest.raises(ValueError):
            hypervolume([(0.5, 1.2, 0.5)], (1, 1, 1))

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 5, 20, 60):
            pts = rng.random((n, 3))
            assert hypervolume(pts, (1, 1, 1)) == pytest.approx(
                grid_hypervolume(pts, (1, 1, 1)), rel=1e-10)

    def test_dominated_points_do_not_change_volume(self):
        pts = np.array([[0.2, 0.3, 0.4], [0.6, 0.6, 0.6]])
        assert hypervolume(pts, (1, 1, 1)) == pytest.approx(
            hypervolume(pts[:1], (1, 1, 1)))

    def test_empty_front(self):
        assert hypervolume(np.zeros((0, 3)), (1, 1, 1)) == 0.0


def reference_tchebycheff(f, weights, ideal):
    """The numpy form of the weighted Tchebycheff distance."""
    return float(np.max(weights * np.abs(f - ideal)))


class TestTchebycheff:
    def test_python_floats_match_the_numpy_form(self):
        rng = np.random.default_rng(17)
        for _ in range(5000):
            f, ideal = rng.random(3), rng.random(3)
            ties = rng.random(3) < 0.3
            f[ties] = ideal[ties]
            weights = np.maximum(rng.random(3) * (rng.random(3) < 0.7), 1e-6)  # EAGD's floor
            got = _tchebycheff(f.tolist(), weights.tolist(), ideal.tolist())
            assert got.hex() == reference_tchebycheff(f, weights, ideal).hex()


class TestEngines:
    def test_nsga2_deterministic(self):
        cfg = dict(population=20, max_evaluations=200, seed=5)
        a1, s1 = nsga2_run(MockProblem(), **cfg)
        a2, s2 = nsga2_run(MockProblem(), **cfg)
        assert a1.members() == a2.members()
        assert [g.hypervolume for g in s1] == [g.hypervolume for g in s2]

    def test_nsga2_reads_nongeometric_prob_at_call_time(self, monkeypatch):
        cfg = dict(population=20, max_evaluations=200, seed=5)
        default, _ = nsga2_run(MockProblem(), **cfg)
        monkeypatch.setattr(moea, "NONGEOMETRIC_PROB", 0.0)
        uniform_only, _ = nsga2_run(MockProblem(), **cfg)
        assert uniform_only.members() != default.members()

    def test_nsga2_respects_budget(self):
        problem = MockProblem()
        nsga2_run(problem, population=20, max_evaluations=137, seed=1)
        assert problem.fe_count <= 137

    def test_nsga2_front_is_fixed_point_and_elitist(self):
        problem = MockProblem()
        archive, stats = nsga2_run(problem, population=20, max_evaluations=400, seed=2)
        assert is_dominance_fixed_point(archive)
        best = np.array([g.best for g in stats])
        assert np.all(np.diff(best, axis=0) <= 1e-12)

    def test_nsga2_beats_random_search(self):
        ref = np.ones(3)
        wins = 0
        for seed in range(20):
            p1, p2 = MockProblem(), MockProblem()
            archive, _ = nsga2_run(p1, population=12, max_evaluations=100, seed=seed)
            random_archive = random_search_run(p2, 100, seed)
            hv_a = hypervolume(objective_matrix(archive), ref)
            hv_r = hypervolume(objective_matrix(random_archive), ref)
            if hv_a >= hv_r:
                wins += 1
        assert wins >= 18

    def test_batch_evaluates_each_distinct_genome(self):
        problem = MockProblem()
        batch = ["0100" + "0" * 24, "0010" + "0" * 24, "1000" + "0" * 24]
        evaluated, exhausted = _evaluate_batch(problem, batch, cap=10)
        assert [bits for bits, _ in evaluated] == batch and not exhausted
        assert (problem.fe_count, problem.cache_hits) == (3, 0)

    def test_random_search_starts_what_the_budget_has_left(self, monkeypatch):
        problem = MockProblem()
        problem.n_bits = 6      # 64 genomes: a batch of 30 holds repeats
        started = []            # the fresh genomes of each batch, queued at once
        monkeypatch.setattr(problem, "start", lambda genomes: started.append(len(genomes)))
        random_search_run(problem, 30, seed=3)
        assert problem.cache_hits > 0 and len(started) > 1
        assert started[0] > 1 and sum(started) == problem.fe_count == 30

    def test_eagd_weight_vectors(self):
        w = simplex_lattice_weights(3, 50)
        assert w.shape == (50, 3)
        assert np.allclose(w.sum(axis=1), 1.0)
        assert len(np.unique(w, axis=0)) == 50
        # underlying lattice for pop 50 is the 55-point H=9 lattice
        import math
        assert math.comb(9 + 2, 2) == 55

    def test_eagd_deterministic_and_budgeted(self):
        cfg = dict(population=20, max_evaluations=150, seed=3)
        p1, p2 = MockProblem(), MockProblem()
        a1, _ = eagd_run(p1, **cfg)
        a2, _ = eagd_run(p2, **cfg)
        assert a1.members() == a2.members()
        assert p1.fe_count <= 150
        assert is_dominance_fixed_point(a1)

    # EAGD's settings are a search's settings. Ids keep the case names fixed; bad2, bad3
    # and bad4 tested fields that became constants.
    @pytest.mark.parametrize("bad", [dict(population=1), dict(population=0)],
                             ids=["bad0", "bad1"])
    def test_eagd_config_rejects_invalid_values(self, bad):
        settings = dict(algorithm="eagd", max_evaluations=10, runs=1, master_seed=1, cycles=1,
                        scg_max_iter=10, population=4, reduction="mrmr", reduction_k=3,
                        scenario="balanced")
        with pytest.raises(ValueError, match="population must be >= 2"):
            runner.SearchSettings(**{**settings, **bad})

    def test_generation_stats_csv_round_trip(self, tmp_path):
        _, stats = nsga2_run(MockProblem(), population=20, max_evaluations=100, seed=4)
        from coevonet.moea import write_generation_csv
        path = tmp_path / "gen.csv"
        write_generation_csv(path, stats, preamble="config_hash=abc master_seed=1")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config_hash=abc")
        assert lines[1].split(",")[0] == "generation"
        assert len(lines) == len(stats) + 2
        for line, s in zip(lines[2:], stats):
            values = [float(field) for field in line.split(",")]
            assert values == [s.generation, s.evaluations, s.front_size,
                              *s.best, *s.mean, s.hypervolume]
