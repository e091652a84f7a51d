import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_genome
from coevonet.genome import (
    TOPOLOGY_BITS, Architecture, GenomeError, bits_to_string, complexity_of, decode,
    decode_topology, encode, repair_feature_prefix, string_to_bits,
)
from coevonet.neural import ActivationKind, Topology

SIG = ActivationKind.SIGMOID
TANH = ActivationKind.TANH
N_FEATURES = 68     # the indicator catalog's width


def genome_string(feature_bits, layer1="00000000", layer2="00000000"):
    prefix = ["0"] * N_FEATURES
    for i in feature_bits:
        prefix[i] = "1"
    return "".join(prefix) + layer1 + layer2


class TestDecode:
    def test_layer_byte_example(self):
        assert decode_topology("00100101" + "0" * 8).layers[0] == (18, SIG)

    @pytest.mark.parametrize("bits", ["0010010x" + "0" * 8, "0" * 15],
                             ids=["non-binary", "15-bits"])
    def test_topology_string_refused(self, bits):
        with pytest.raises(GenomeError):
            decode_topology(bits)

    def test_all_zero_topology_is_direct(self):
        arch = decode(genome_string([0]), N_FEATURES)
        assert arch.topology.active_layers == ()
        assert arch.feature_indices == (0,)

    def test_feature_prefix_positions(self):
        arch = decode(genome_string([1, 3]), N_FEATURES)
        assert arch.feature_indices == (1, 3)

    def test_empty_prefix_rejected(self):
        with pytest.raises(GenomeError):
            decode("0" * (N_FEATURES + TOPOLOGY_BITS), N_FEATURES)

    def test_wrong_length_rejected(self):
        with pytest.raises(GenomeError):
            decode("1" * 10, N_FEATURES)

    def test_activation_bit(self):
        arch = decode(genome_string([5], layer1="00000010"), N_FEATURES)
        assert arch.topology.layers[0] == (1, TANH)
        arch = decode(genome_string([5], layer1="00000011"), N_FEATURES)
        assert arch.topology.layers[0] == (1, SIG)


class TestEncode:
    def test_round_trip_example(self):
        arch = Architecture((2, 5), Topology(((18, SIG), (0, TANH))))
        assert decode(encode(arch, N_FEATURES), N_FEATURES) == arch

    def test_boundary_127(self):
        arch = Architecture((0,), Topology(((127, TANH), (0, TANH))))
        bits = encode(arch, N_FEATURES)
        assert bits[N_FEATURES:N_FEATURES + 8] == "11111110"
        assert decode(bits, N_FEATURES).topology.layers[0] == (127, TANH)

    def test_128_rejected(self):
        with pytest.raises(GenomeError):
            encode(Architecture((0,), Topology(((128, TANH),))), N_FEATURES)

    def test_out_of_range_feature_rejected(self):
        with pytest.raises(GenomeError):
            encode(Architecture((68,), Topology(())), N_FEATURES)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**20))
    def test_round_trip_random(self, seed):
        rng = np.random.default_rng(seed)
        bits = random_genome(N_FEATURES, rng)
        assert encode(decode(bits, N_FEATURES), N_FEATURES) == bits


TABLE2_CASES = [
    (11, ((18, TANH),), 0.27),
    (11, ((32, TANH),), 0.30),
    (10, ((35, TANH), (32, SIG)), 0.47),
    (14, ((123, TANH), (64, SIG)), 0.65),
    (13, ((48, TANH),), 0.36),
]

FILTER_CASES = [
    (17, ((35, TANH),), 0.3419),
    (17, ((68, TANH),), 0.4285),
    (17, ((11, TANH),), 0.2789),
    (17, ((10, TANH),), 0.2762),
    (17, ((57, TANH), (19, TANH)), 0.5164),
]


class TestComplexity:
    @pytest.mark.parametrize("n_sel,layers,expected", TABLE2_CASES + FILTER_CASES)
    def test_printed_values(self, n_sel, layers, expected):
        assert abs(complexity_of(n_sel, Topology(layers), N_FEATURES) - expected) < 0.005

    def test_mother_is_exactly_one(self):
        assert complexity_of(68, Topology(((127, TANH), (127, SIG))), N_FEATURES) == 1.0

    def test_zero_layers_size_term(self):
        assert complexity_of(34, Topology(()), N_FEATURES) == pytest.approx((34 / 68) / 3)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 67), st.integers(0, 126), st.integers(0, 127))
    def test_monotonicity(self, n_sel, s1, s2):
        base = complexity_of(n_sel, Topology(((s1, TANH), (s2, SIG))), N_FEATURES)
        assert complexity_of(n_sel + 1, Topology(((s1, TANH), (s2, SIG))), N_FEATURES) > base
        assert complexity_of(n_sel, Topology(((s1 + 1, TANH), (s2, SIG))), N_FEATURES) > base
        if s2 == 0:
            # activating the second layer strictly increases complexity
            assert complexity_of(n_sel, Topology(((s1, TANH), (1, SIG))), N_FEATURES) > base

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**20))
    def test_bounds_and_uniqueness_of_mother(self, seed):
        rng = np.random.default_rng(seed)
        arch = decode(random_genome(N_FEATURES, rng), N_FEATURES)
        c = complexity_of(len(arch.feature_indices), arch.topology, N_FEATURES)
        assert 0.0 < c <= 1.0
        is_mother = (len(arch.feature_indices) == 68
                     and [s for s, _ in arch.topology.layers] == [127, 127])
        assert (c == 1.0) == is_mother


class TestRandomGenome:
    def test_reproducible(self):
        a = random_genome(N_FEATURES, np.random.default_rng(99))
        b = random_genome(N_FEATURES, np.random.default_rng(99))
        assert a == b

    def test_subset_sizes_near_binomial(self):
        rng = np.random.default_rng(7)
        sizes = np.array([random_genome(N_FEATURES, rng)[:68].count("1") for _ in range(10_000)])
        # Binomial(68, 1/2): mean 34, sd ~4.12; sample mean within 4 sigma/sqrt(n)
        assert abs(sizes.mean() - 34.0) < 4 * 4.123 / 100
        assert 3.8 < sizes.std() < 4.5

    def test_repair_sets_exactly_one_feature_bit(self):
        bits = np.zeros(N_FEATURES + TOPOLOGY_BITS, dtype=np.uint8)
        bits[70] = 1
        repaired = repair_feature_prefix(bits, N_FEATURES, np.random.default_rng(1))
        assert repaired[:68].sum() == 1

    def test_string_round_trip(self):
        bits = random_genome(N_FEATURES, np.random.default_rng(5))
        assert bits_to_string(string_to_bits(bits)) == bits
