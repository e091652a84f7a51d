"""Binary encoding of candidate architectures and the complexity measure.

A genome is a fixed-length bit string (a ``str`` of "0" and "1"): the first
``n_features`` bits, one per data column, select the input feature subset
(at least one bit must be set), so the prefix is the network's input layer
and as wide as the data; each of the ``N_LAYERS`` blocks of
``BITS_PER_LAYER`` bits that follow encodes one hidden layer, 7 big-endian
size bits followed by one activation bit (1 = sigmoid, 0 = tanh). Genomes
travel as strings from ``repair`` to the artifacts; uint8 arrays exist only
inside variation (``moea``) and decoding.

Complexity averages three normalized terms: selected-feature fraction,
active-layer fraction, and mean active-layer fill. The size sum is divided
by the number of ACTIVE layers (zero layers contribute a zero term), which
pins the most complex expressible architecture at exactly 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neural import ActivationKind, Topology


class GenomeError(ValueError):
    pass


#: Hidden-layer slots of a genome, and the bits of each: 7 size bits, then the activation.
N_LAYERS = 2
BITS_PER_LAYER = 8
S_MAX = 2 ** (BITS_PER_LAYER - 1) - 1      # the largest layer size, 127
TOPOLOGY_BITS = N_LAYERS * BITS_PER_LAYER


@dataclass(frozen=True)
class Architecture:
    """A feature subset (0-based catalog positions) plus a hidden topology."""

    feature_indices: tuple[int, ...]
    topology: Topology

    def __post_init__(self):
        if not self.feature_indices:
            raise GenomeError("feature subset must be nonempty")
        if len(set(self.feature_indices)) != len(self.feature_indices):
            raise GenomeError("duplicate feature indices")


def bits_to_string(bits: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in bits)


def string_to_bits(s: str) -> np.ndarray:
    if set(s) - {"0", "1"}:
        raise GenomeError(f"genome string contains non-binary characters: {s!r}")
    return np.frombuffer(s.encode(), dtype=np.uint8) - ord("0")


def decode_layer_block(block: np.ndarray) -> tuple[int, ActivationKind]:
    """7 big-endian size bits then 1 activation bit (1 sigmoid, 0 tanh)."""
    size_bits = block[:-1]
    weights = 2 ** np.arange(len(size_bits) - 1, -1, -1)
    size = int(size_bits @ weights)
    act = ActivationKind.SIGMOID if block[-1] else ActivationKind.TANH
    return size, act


def encode_layer_block(size: int, act: ActivationKind) -> np.ndarray:
    if not 0 <= size <= S_MAX:
        raise GenomeError(f"layer size {size} outside [0, {S_MAX}]")
    block = np.zeros(BITS_PER_LAYER, dtype=np.uint8)
    for p in range(BITS_PER_LAYER - 1):
        block[p] = (size >> (BITS_PER_LAYER - 2 - p)) & 1
    block[-1] = 1 if ActivationKind(act) == ActivationKind.SIGMOID else 0
    return block


def decode_topology(bits: np.ndarray) -> Topology:
    if bits.shape != (TOPOLOGY_BITS,):
        raise GenomeError(f"expected {TOPOLOGY_BITS} topology bits, got {bits.shape}")
    return Topology(tuple(decode_layer_block(block)
                          for block in bits.reshape(N_LAYERS, BITS_PER_LAYER)))


def decode(genome: str, n_features: int) -> Architecture:
    bits = string_to_bits(genome)
    if bits.shape != (n_features + TOPOLOGY_BITS,):
        raise GenomeError(f"genome length {bits.size} differs from the expected "
                          f"{n_features + TOPOLOGY_BITS}: {n_features} feature bits, one per "
                          f"data column, and {TOPOLOGY_BITS} topology bits")
    feature_idx = tuple(int(i) for i in np.flatnonzero(bits[:n_features]))
    if not feature_idx:
        raise GenomeError("empty feature subset (all feature bits zero)")
    return Architecture(feature_idx, decode_topology(bits[n_features:]))


def encode(arch: Architecture, n_features: int) -> str:
    bits = np.zeros(n_features + TOPOLOGY_BITS, dtype=np.uint8)
    for i in arch.feature_indices:
        if not 0 <= i < n_features:
            raise GenomeError(f"feature index {i} outside [0, {n_features})")
        bits[i] = 1
    layers = list(arch.topology.layers)
    if len(layers) > N_LAYERS:
        raise GenomeError(f"{len(layers)} layers exceed the maximum {N_LAYERS}")
    layers += [(0, ActivationKind.TANH)] * (N_LAYERS - len(layers))
    bits[n_features:] = np.concatenate([encode_layer_block(size, act) for size, act in layers])
    return bits_to_string(bits)


def complexity_of(n_selected: int, topology: Topology, n_features: int) -> float:
    """Normalized architectural complexity in [0, 1] over ``n_features`` data columns."""
    active = topology.active_layers
    feature_term = n_selected / n_features
    layer_term = len(active) / N_LAYERS
    if active:
        size_term = sum(s for s, _ in active) / S_MAX / len(active)
    else:
        size_term = 0.0
    return (feature_term + layer_term + size_term) / 3.0


def repair_feature_prefix(bits: np.ndarray, n_features: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Set one random feature bit if the prefix is all zero (in place)."""
    if not bits[:n_features].any():
        bits[int(rng.integers(n_features))] = 1
    return bits
