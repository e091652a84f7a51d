import contextlib
import dataclasses
import os
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import evaluate, make_planted_splits
from coevonet import moea, neural
from coevonet.genome import encode, Architecture
from coevonet.market_data import PatternSet
from coevonet.neural import ActivationKind, Topology
from coevonet.objectives import (
    CoevolutionProblem, EvalRecord, ObjectiveVector, TopologyOnlyProblem, cycle_seed, penalty,
    scalarized_value, split_scores, training_workers,
)

TANH = ActivationKind.TANH
FAST = 40  # SCG iterations


@pytest.fixture(scope="module")
def splits():
    return make_planted_splits(n_features=8, seed=4)


def genome_for(features, layers=()):
    arch = Architecture(tuple(features), Topology(tuple(layers)))
    return encode(arch, 8)      # the tiny planted splits' width


class TestObjectiveVector:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            ObjectiveVector(1.2, 0.5, 0.5)
        with pytest.raises(ValueError):
            ObjectiveVector(0.5, 0.5, float("nan"))

    def test_tuple_view(self):
        assert ObjectiveVector(0.1, 0.2, 0.3).as_tuple() == (0.1, 0.2, 0.3)


class TestEvaluate:
    def test_deterministic_across_calls(self, splits):
        bits = genome_for([0, 1], [(3, TANH)])
        cfg = dict(cycles=1, max_iter=FAST, master_seed=5)
        v1 = evaluate(bits, splits, **cfg)
        v2 = evaluate(bits, splits, **cfg)
        assert v1 == v2

    def test_components_within_bounds(self, splits):
        cfg = dict(cycles=2, max_iter=FAST, master_seed=5)
        problem = CoevolutionProblem(splits, **cfg)
        rng = np.random.default_rng(0)
        for _ in range(5):
            rec = problem.evaluate(moea._random_genome(problem, rng))
            for v in rec.objectives.as_tuple():
                assert 0.0 <= v <= 1.0

    def test_cycle_mean_property(self, splits):
        bits = genome_for([0, 2], [(4, TANH)])
        cfg = dict(cycles=3, max_iter=FAST, master_seed=9)
        rec = CoevolutionProblem(splits, **cfg).evaluate(bits)
        # independently seeded single-cycle trainings reproduce the mean
        singles = []
        for k in (1, 2, 3):
            seed = cycle_seed(9, bits, k)
            x = splits.d_train.features[:, [0, 2]]
            model = neural.scg_train(Topology(((4, TANH),)), x, splits.d_train.labels,
                                     FAST, seed)
            pred = neural.predict(model, splits.d_test.features[:, [0, 2]])
            singles.append(neural.balanced_error(neural.confusion(pred, splits.d_test.labels)))
        assert rec.objectives.e_cv == float(np.mean(singles))

    def test_mother_complexity_is_one(self, splits):
        bits = genome_for(range(8), [(127, TANH), (127, TANH)])
        cfg = dict(cycles=1, max_iter=5, master_seed=1)
        assert evaluate(bits, splits, **cfg).c == 1.0

    def test_direct_network_learns_separable_problem(self, splits):
        # the planted label is sign(feature 0): no hidden layer needed
        bits = genome_for([0])
        cfg = dict(cycles=1, max_iter=100, master_seed=3)
        vec = evaluate(bits, splits, **cfg)
        assert vec.e_cv < 0.5
        assert vec.e_pr < 0.5

    def test_cache_and_fe_accounting(self, splits):
        cfg = dict(cycles=1, max_iter=FAST, master_seed=2)
        problem = CoevolutionProblem(splits, **cfg)
        bits = genome_for([1, 3], [(2, TANH)])
        problem.evaluate(bits)
        assert (problem.fe_count, problem.cache_hits) == (1, 0)
        problem.evaluate(bits)
        assert (problem.fe_count, problem.cache_hits) == (1, 1)

    def test_aborted_cycle_scores_worst_case(self, splits, monkeypatch):
        def fake_train(topology, x, y, max_iter, seed, minimized=None):
            return neural.TrainedModel(topology, [], float("nan"), 0, aborted=True)

        monkeypatch.setattr(neural, "scg_train", fake_train)
        cfg = dict(cycles=2, max_iter=FAST, master_seed=2)
        rec = CoevolutionProblem(splits, **cfg).evaluate(genome_for([0]))
        assert rec.objectives.e_cv == 1.0
        assert rec.objectives.e_pr == 1.0
        assert rec.test_mcc == -1.0

    def test_sealed_holdout_never_read(self, splits):
        # evaluation touches pr/train/test only; a sealed hold split is fine
        cfg = dict(cycles=1, max_iter=FAST, master_seed=1)
        assert splits.d_hold.sealed
        evaluate(genome_for([0]), splits, **cfg)


class TestConcurrentCycles:
    """A genome's cycle records match a serial loop; trainings are thread-safe."""

    def test_three_cycle_record_equals_serial_cycles(self, splits):
        columns, topology = [0, 2, 5], Topology(((4, TANH), (3, ActivationKind.SIGMOID)))
        bits = genome_for(columns, topology.layers)
        cfg = dict(cycles=3, max_iter=FAST, master_seed=9)
        rec = CoevolutionProblem(splits, **cfg).evaluate(bits)
        rows = []
        for k in (1, 2, 3):
            model = neural.scg_train(topology, splits.d_train.features[:, columns],
                                     splits.d_train.labels, FAST, cycle_seed(9, bits, k))
            rows.append(split_scores(model, splits.d_test, columns)
                        + split_scores(model, splits.d_pr, columns))
        accs_test, mccs_test, errs_test, accs_pr, mccs_pr, errs_pr = zip(*rows)
        assert rec == EvalRecord(
            objectives=ObjectiveVector(float(np.mean(errs_test)), rec.objectives.c,
                                       float(np.mean(errs_pr))),
            test_error_rate=float(np.mean([1.0 - a for a in accs_test])),
            pr_error_rate=float(np.mean([1.0 - a for a in accs_pr])),
            test_mcc=float(np.mean(mccs_test)),
            pr_mcc=float(np.mean(mccs_pr)),
        )

    def counting_trainer(self, monkeypatch):
        threads = []   # the thread of every training, appended from any thread
        train = neural.scg_train

        def counted(*args, **kwargs):
            threads.append(threading.get_ident())
            return train(*args, **kwargs)

        monkeypatch.setattr(neural, "scg_train", counted)
        return threads

    def test_one_training_per_cycle_and_none_for_cache_hits(self, splits, monkeypatch):
        threads = self.counting_trainer(monkeypatch)
        problem = CoevolutionProblem(splits, cycles=3, max_iter=FAST, master_seed=0)
        genomes = [genome_for([0, 1], [(3, TANH)]), genome_for([2])]
        for bits in genomes + genomes:
            problem.evaluate(bits)
        assert len(threads) == 3 * len(genomes)
        assert (problem.fe_count, problem.cache_hits) == (2, 2)

    def test_single_cycle_trains_on_the_calling_thread(self, splits, monkeypatch):
        threads = self.counting_trainer(monkeypatch)
        CoevolutionProblem(splits, cycles=1, max_iter=FAST, master_seed=0).evaluate(
            genome_for([0, 1], [(3, TANH)]))
        assert threads == [threading.get_ident()]

    def test_start_without_workers_trains_when_evaluate_collects(self, splits, monkeypatch):
        threads = self.counting_trainer(monkeypatch)
        problem = CoevolutionProblem(splits, cycles=2, max_iter=FAST, master_seed=0)
        genomes = [genome_for([0, 1], [(3, TANH)]), genome_for([2])]
        problem.start(genomes)
        assert threads == []
        problem.evaluate(genomes[1])
        assert threads == [threading.get_ident()] * 2

    @pytest.mark.parametrize("in_workers, bound", [(False, 1), (True, 4)],
                             ids=["inline", "workers"])
    def test_queued_genomes_hold_no_copy_of_the_training_matrix(self, in_workers, bound):
        # the bound, in training matrices, holds for any queue length: with
        # workers, one queued cycle at a time is pickled whole on its way to them
        splits = make_planted_splits(n_features=8, n_train=10_000, seed=4)
        rng = np.random.default_rng(0)
        with training_workers(2) if in_workers else contextlib.nullcontext() as workers:
            problem = CoevolutionProblem(splits, cycles=2, max_iter=FAST, master_seed=0,
                                         workers=workers)
            genomes = list(dict.fromkeys(moea._random_genome(problem, rng) for _ in range(400)))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                problem.start(genomes[:200])
                grown = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        assert len(problem._started) == 200
        assert grown < bound * splits.d_train.features.nbytes

    def test_concurrent_trainings_equal_their_serial_twins(self, splits):
        # same shapes on purpose: buffers shared by shape would mix the runs
        x, y = splits.d_train.features, splits.d_train.labels
        jobs = [(Topology(((6, TANH), (4, ActivationKind.SIGMOID))), seed) for seed in (1, 2, 3)]
        jobs.append((Topology(((5, ActivationKind.SIGMOID),)), 4))

        def train(job):
            return neural.scg_train(job[0], x, y, 60, job[1])

        serial = [train(job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # more workers than cores, switching often
        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                concurrent = list(pool.map(train, jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, concurrent):
            assert (a.final_loss, a.iterations) == (b.final_loss, b.iterations)
            for (wa, ba), (wb, bb) in zip(a.params, b.params):
                assert np.array_equal(wa, wb) and np.array_equal(ba, bb)


class TestTrainingWorkers:
    """Cycles trained in worker processes give the records of inline training."""

    GENOMES = [genome_for([0, 2], [(4, TANH)]), genome_for([1]),
               genome_for([0, 1, 5], [(3, ActivationKind.SIGMOID), (2, TANH)])]

    def test_started_batch_records_equal_inline_records(self, splits):
        cfg = dict(cycles=3, max_iter=FAST, master_seed=9)
        inline = CoevolutionProblem(splits, **cfg)
        with training_workers(2) as workers:
            pooled = CoevolutionProblem(splits, **cfg, workers=workers)
            pooled.start(self.GENOMES)
            records = [pooled.evaluate(bits) for bits in self.GENOMES + self.GENOMES]
        assert records == [inline.evaluate(bits) for bits in self.GENOMES + self.GENOMES]
        assert (pooled.fe_count, pooled.cache_hits) == (3, 3)

    def test_every_cycle_calls_scg_train_in_this_process(self, splits, monkeypatch):
        callers = []    # (process, thread) of every scg_train call
        train = neural.scg_train

        def counted(*args, **kwargs):
            callers.append((os.getpid(), threading.get_ident()))
            return train(*args, **kwargs)

        monkeypatch.setattr(neural, "scg_train", counted)
        with training_workers(2) as workers:
            problem = CoevolutionProblem(splits, cycles=2, max_iter=FAST, master_seed=0,
                                         workers=workers)
            problem.evaluate(self.GENOMES[0])       # not started: evaluate starts it
            moea._evaluate_batch(problem, self.GENOMES, cap=10)
        assert callers == [(os.getpid(), threading.get_ident())] * (2 * len(self.GENOMES))

    @pytest.mark.parametrize("in_workers", [False, True], ids=["inline", "workers"])
    def test_an_error_in_training_reaches_the_caller(self, splits, in_workers):
        # gradients of ~1e300 overflow SCG's p @ p in the first iteration
        train = splits.d_train
        huge = dataclasses.replace(
            splits, d_train=PatternSet(train.features * 1e300, train.labels, train.dates))
        cfg = dict(cycles=2, max_iter=FAST, master_seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)   # the workers fork under it
            with training_workers(2) if in_workers else contextlib.nullcontext() as workers:
                problem = CoevolutionProblem(huge, **cfg, workers=workers)
                with pytest.raises(RuntimeWarning, match="overflow encountered"):
                    problem.evaluate(genome_for([0, 1]))
        assert (problem.fe_count, problem.cache) == (0, {})


class TestTopologyOnly:
    def test_sixteen_bit_genomes(self, splits):
        cfg = dict(cycles=1, max_iter=FAST, master_seed=1)
        problem = TopologyOnlyProblem(splits, 8, **cfg)
        assert problem.n_bits == 16
        rec = problem.evaluate("0010010" + "1" + "0000000" + "0")
        # feature term frozen at d/n_f
        assert rec.objectives.c == pytest.approx((8 / 8 + 1 / 2 + 18 / 127) / 3)


class TestScalarized:
    def make_record(self, e=0.3, c=0.2, test_mcc=0.3, pr_mcc=0.3, pr_err=0.3):
        return EvalRecord(
            objectives=ObjectiveVector(e, c, e),
            test_error_rate=e, pr_error_rate=pr_err,
            test_mcc=test_mcc, pr_mcc=pr_mcc,
        )

    def test_no_penalty_when_constraints_hold(self):
        rec = self.make_record()
        assert penalty(rec) == 0.0
        assert scalarized_value(rec, 0.5, 0.5) == pytest.approx(0.5 * 0.3 + 0.5 * 0.2)

    def test_mcc_shortfall_penalty(self):
        rec = self.make_record(test_mcc=-0.05)     # 0.10 short of EPS_TEST_MCC
        assert penalty(rec) == pytest.approx(0.5)

    def test_pr_error_threshold_penalty(self):
        rec = self.make_record(pr_err=0.70)        # 0.20 above EPS_PR_ERROR
        assert penalty(rec) == pytest.approx(5 * 0.2)

    def test_penalty_free_always_preferred_at_equal_weighted_sum(self):
        clean = self.make_record()
        dirty = self.make_record(test_mcc=-0.2)
        assert scalarized_value(clean, 0.5, 0.5) < scalarized_value(dirty, 0.5, 0.5)

    def test_preference_scenarios_exposed(self):
        from coevonet.baselines import SCALARIZED_SCENARIOS
        assert SCALARIZED_SCENARIOS["efficacy"] == (0.75, 0.25)
        assert SCALARIZED_SCENARIOS["balanced"] == (0.50, 0.50)
        assert SCALARIZED_SCENARIOS["complexity"] == (0.25, 0.75)
