import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coevonet.neural import (
    ActivationKind, ConfusionCounts, Topology, TrainedModel, _activate, _CrossEntropy,
    _flatten, _layer_sizes, _log_softmax, _scg_minimize, accuracy, balanced_accuracy,
    balanced_error, confusion, init_weights, mcc, predict, scg_train,
)

SIG = ActivationKind.SIGMOID
TANH = ActivationKind.TANH


class TestInit:
    def test_same_seed_identical(self):
        topo = Topology(((4, SIG), (3, TANH)))
        a = init_weights(topo, 5, seed=42)
        b = init_weights(topo, 5, seed=42)
        for (wa, ba), (wb, bb) in zip(a, b):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)

    def test_different_seeds_differ(self):
        topo = Topology(((4, SIG),))
        a = init_weights(topo, 5, seed=1)
        b = init_weights(topo, 5, seed=2)
        assert not np.array_equal(a[0][0], b[0][0])

    def test_zero_hidden_shapes(self):
        params = init_weights(Topology(()), 7, seed=0)
        assert len(params) == 1
        w, b = params[0]
        assert w.shape == (7, 2) and b.shape == (2,)
        # one input-to-output tensor of (inputs+1) x 2 parameters with the bias row
        assert w.size + b.size == (7 + 1) * 2

    def test_inactive_layer_compaction(self):
        topo = Topology(((0, TANH), (5, SIG)))
        params = init_weights(topo, 3, seed=0)
        assert [w.shape for w, _ in params] == [(3, 5), (5, 2)]


class TestActivation:
    def test_sigmoid_saturates_without_an_overflow_warning(self):
        z = np.array([[-800.0, 800.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _activate(z, SIG)
        assert z.tolist() == [[0.0, 1.0, 0.5]]


#: Logits at the edges of float64: signed zeros, exp's overflow and underflow
#: points, the largest finite, infinities, NaNs and the smallest subnormal.
EDGE_LOGITS = [sign * v for v in (0.0, 1.0, 700.0, 745.0, 1e308, np.inf, np.nan, 5e-324)
               for sign in (1.0, -1.0)]


def reference_log_softmax(logits):
    """The general form, with the row max and row sum as reductions over the classes."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


class TestLogSoftmax:
    def test_edge_pairs_match_the_general_form_byte_for_byte(self):
        logits = np.array(list(itertools.product(EDGE_LOGITS, repeat=2)))
        assert logits.shape == (256, 2)
        with np.errstate(all="ignore"):
            assert _log_softmax(logits).tobytes() == reference_log_softmax(logits).tobytes()

    @pytest.mark.parametrize("scale", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])
    def test_random_rows_match_the_general_form_byte_for_byte(self, scale):
        logits = np.random.default_rng(int(np.log10(scale)) + 10).standard_normal((2000, 2))
        logits *= scale
        with np.errstate(all="ignore"):
            assert _log_softmax(logits).tobytes() == reference_log_softmax(logits).tobytes()


def random_net(rng):
    n_in = int(rng.integers(2, 7))
    layers = []
    for _ in range(int(rng.integers(0, 3))):
        size = int(rng.integers(1, 6))
        act = SIG if rng.random() < 0.5 else TANH
        layers.append((size, act))
    topo = Topology(tuple(layers))
    n_pat = int(rng.integers(4, 20))
    x = rng.normal(size=(n_pat, n_in))
    y = rng.integers(0, 2, size=n_pat)
    y1h = np.zeros((n_pat, 2))
    y1h[:, 0] = y == 1
    y1h[:, 1] = y == 0
    return topo, n_in, x, y1h


class TestGradient:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            topo, n_in, x, y1h = random_net(rng)
            sizes = _layer_sizes(topo, n_in)
            acts = tuple(a for _, a in topo.active_layers)
            theta = _flatten(init_weights(topo, n_in, seed=int(rng.integers(1e6))))
            objective = _CrossEntropy(sizes, acts, x, y1h)
            grad = objective.gradient(objective.forward(theta)[1])
            h = 1e-6
            num = np.empty_like(theta)
            for i in range(theta.size):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                num[i] = (objective.forward(tp)[0] - objective.forward(tm)[0]) / (2 * h)
            rel = np.linalg.norm(grad - num) / max(np.linalg.norm(num), 1e-12)
            assert rel < 1e-5


XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


class TestScgTraining:
    def test_xor_most_seeds(self):
        topo = Topology(((4, TANH),))
        wins = 0
        for seed in range(10):
            model = scg_train(topo, XOR_X, XOR_Y, 500, seed)
            if np.array_equal(predict(model, XOR_X), XOR_Y):
                wins += 1
        assert wins >= 9

    def test_zero_iteration_cap_keeps_initial_weights(self):
        topo = Topology(((3, SIG),))
        x = np.random.default_rng(0).normal(size=(10, 2))
        y = np.array([0, 1] * 5)
        model = scg_train(topo, x, y, 0, seed=5)
        init = init_weights(topo, 2, seed=5)
        for (w0, b0), (w1, b1) in zip(init, model.params):
            assert np.array_equal(w0, w1) and np.array_equal(b0, b1)

    def test_linear_blobs_with_no_hidden_layer(self):
        rng = np.random.default_rng(3)
        x = np.vstack([rng.normal([2, 2], 0.4, size=(100, 2)),
                       rng.normal([-2, -2], 0.4, size=(100, 2))])
        y = np.array([1] * 100 + [0] * 100)
        model = scg_train(Topology(()), x, y, 200, seed=1)
        acc = (predict(model, x) == y).mean()
        assert acc >= 0.99

    def test_accepted_steps_never_increase_loss(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 3))
        y = (x[:, 0] + 0.3 * rng.normal(size=30) > 0).astype(int)
        topo = Topology(((5, SIG),))
        sizes = _layer_sizes(topo, 3)
        acts = (SIG,)
        y1h = np.zeros((30, 2))
        y1h[:, 0] = y == 1
        y1h[:, 1] = y == 0
        theta0 = _flatten(init_weights(topo, 3, seed=11))
        trace = []
        _scg_minimize(theta0, _CrossEntropy(sizes, acts, x, y1h), 120, trace=trace)
        assert len(trace) > 5
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    # sha256 of the trained parameter bytes, final loss and iterations, recorded
    # before the trial point's forward pass was reused: the reuse keeps every bit
    PINNED = {
        "direct": ((), "9c69947868af602042bca4c0c793ed1a89a4b651dc3336ca3dc32199eede4225",
                   0.2508221488297501, 15),
        "sigmoid": (((6, SIG),),
                    "f171c3ea78a8eade1213989a8aa1989a7f71028b970b80c48dfaf98cb64d83b4",
                    0.005877422230568213, 80),
        "sigmoid-tanh": (((5, SIG), (4, TANH)),
                         "5b581c154406b97572dadb5fd533fa406c5feaf995b928e9c32c66dbb00d26b7",
                         0.04078553350665388, 80),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_trained_bits_are_pinned(self, name):
        layers, digest, final_loss, iterations = self.PINNED[name]
        rng = np.random.default_rng(123)
        x = rng.normal(size=(60, 4))
        y = (x[:, 0] - 0.5 * x[:, 1] + 0.4 * rng.normal(size=60) > 0).astype(int)
        model = scg_train(Topology(layers), x, y, 80, seed=17)
        raw = b"".join(np.ascontiguousarray(a).tobytes() for w, b in model.params for a in (w, b))
        assert hashlib.sha256(raw).hexdigest() == digest
        assert model.final_loss == final_loss
        assert model.iterations == iterations
        assert not model.aborted

    def test_passes_reuse_the_training_buffers(self):
        # a pass that allocated its layers would raise the peak by whole n x 71
        # arrays; the buffers come with the objective, made before tracing
        def peak_bytes(n):
            rng = np.random.default_rng(8)
            x = rng.normal(size=(n, 34))
            y1h = np.zeros((n, 2))
            y1h[np.arange(n), rng.integers(0, 2, size=n)] = 1.0
            topo = Topology(((71, TANH), (39, SIG)))
            objective = _CrossEntropy(_layer_sizes(topo, 34), (TANH, SIG), x, y1h)
            theta0 = _flatten(init_weights(topo, 34, seed=4))
            tracemalloc.start()
            try:
                _scg_minimize(theta0, objective, 20)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        growth = peak_bytes(2310) - peak_bytes(231)
        assert growth < (2310 - 231) * 71 * 8

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            scg_train(Topology(()), np.zeros((0, 2)), np.zeros(0), 200, 0)


class TestPredict:
    def make_fixed_model(self, w):
        return TrainedModel(Topology(()), [(np.array(w, dtype=float), np.zeros(2))], 0.0, 0)

    def test_argmax_convention(self):
        model = self.make_fixed_model([[1.0, -1.0]])
        assert predict(model, np.array([[2.0]])) == [1]   # unit 0 larger -> up
        assert predict(model, np.array([[-2.0]])) == [0]

    def test_tie_breaks_up(self):
        model = self.make_fixed_model([[0.0, 0.0]])
        assert predict(model, np.array([[1.0]])) == [1]

    def test_empty_patterns(self):
        model = self.make_fixed_model([[1.0, -1.0]])
        assert predict(model, np.zeros((0, 1))).shape == (0,)

    def test_dimension_mismatch(self):
        model = self.make_fixed_model([[1.0, -1.0]])
        with pytest.raises(ValueError):
            predict(model, np.zeros((3, 2)))


class TestMetrics:
    def test_worked_example(self):
        c = ConfusionCounts(tp=3, fp=1, tn=4, fn=2)
        assert math.isclose(mcc(c), 10 / math.sqrt(600), rel_tol=1e-12)
        assert math.isclose(balanced_accuracy(c), 0.7)
        assert math.isclose(balanced_error(c), 0.3)
        assert math.isclose(accuracy(c), 0.7)

    def test_perfect_prediction(self):
        c = confusion([1, 0, 1, 0], [1, 0, 1, 0])
        assert mcc(c) == 1.0
        assert balanced_error(c) == 0.0

    def test_all_up_on_mixed_data_gives_zero_mcc(self):
        c = confusion([1, 1, 1, 1], [1, 0, 1, 0])
        assert mcc(c) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([1, 0], [1])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=60))
    def test_brute_force_recount(self, pairs):
        pred = [p for p, _ in pairs]
        act = [a for _, a in pairs]
        c = confusion(pred, act)
        tp = sum(1 for p, a in pairs if p == 1 and a == 1)
        fp = sum(1 for p, a in pairs if p == 1 and a == 0)
        tn = sum(1 for p, a in pairs if p == 0 and a == 0)
        fn = sum(1 for p, a in pairs if p == 0 and a == 1)
        assert (c.tp, c.fp, c.tn, c.fn) == (tp, fp, tn, fn)
        assert c.total == len(pairs)
        # accuracy recount
        assert math.isclose(accuracy(c), sum(1 for p, a in pairs if p == a) / len(pairs))
        # mcc recount including the zero-denominator convention
        denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        expected = 0.0 if denom == 0 else (tp * tn - fp * fn) / math.sqrt(denom)
        assert math.isclose(mcc(c), expected, abs_tol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=2, max_size=40),
           st.randoms())
    def test_permutation_invariance(self, pairs, pyrandom):
        pred = [p for p, _ in pairs]
        act = [a for _, a in pairs]
        order = list(range(len(pairs)))
        pyrandom.shuffle(order)
        c1 = confusion(pred, act)
        c2 = confusion([pred[i] for i in order], [act[i] for i in order])
        assert (mcc(c1), balanced_accuracy(c1), accuracy(c1)) == \
               (mcc(c2), balanced_accuracy(c2), accuracy(c2))
