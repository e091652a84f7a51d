"""Binary encoding of candidate architectures and the complexity measure.

A genome is a fixed-length bit string (a ``str`` of "0" and "1"): the first
``n_features`` bits select the input feature subset (at least one bit must
be set); each subsequent 8-bit block encodes one hidden layer, 7 big-endian
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


@dataclass(frozen=True)
class SearchSpaceConfig:
    n_features: int = 68
    n_layers: int = 2
    bits_per_layer: int = 8

    @property
    def s_max(self) -> int:
        return 2 ** (self.bits_per_layer - 1) - 1

    @property
    def genome_length(self) -> int:
        return self.n_features + self.n_layers * self.bits_per_layer

    @property
    def topology_bits(self) -> int:
        return self.n_layers * self.bits_per_layer


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


def encode_layer_block(size: int, act: ActivationKind, bits_per_layer: int) -> np.ndarray:
    s_max = 2 ** (bits_per_layer - 1) - 1
    if not 0 <= size <= s_max:
        raise GenomeError(f"layer size {size} outside [0, {s_max}]")
    block = np.zeros(bits_per_layer, dtype=np.uint8)
    for p in range(bits_per_layer - 1):
        block[p] = (size >> (bits_per_layer - 2 - p)) & 1
    block[-1] = 1 if ActivationKind(act) == ActivationKind.SIGMOID else 0
    return block


def decode_topology(bits: np.ndarray, cfg: SearchSpaceConfig) -> Topology:
    if bits.shape != (cfg.topology_bits,):
        raise GenomeError(f"expected {cfg.topology_bits} topology bits, got {bits.shape}")
    layers = []
    for k in range(cfg.n_layers):
        block = bits[k * cfg.bits_per_layer:(k + 1) * cfg.bits_per_layer]
        layers.append(decode_layer_block(block))
    return Topology(tuple(layers))


def decode(genome: str, cfg: SearchSpaceConfig = SearchSpaceConfig()) -> Architecture:
    bits = string_to_bits(genome)
    if bits.shape != (cfg.genome_length,):
        raise GenomeError(f"genome length {bits.shape} differs from expected {cfg.genome_length}")
    feature_idx = tuple(int(i) for i in np.flatnonzero(bits[:cfg.n_features]))
    if not feature_idx:
        raise GenomeError("empty feature subset (all feature bits zero)")
    topology = decode_topology(bits[cfg.n_features:], cfg)
    return Architecture(feature_idx, topology)


def encode(arch: Architecture, cfg: SearchSpaceConfig = SearchSpaceConfig()) -> str:
    bits = np.zeros(cfg.genome_length, dtype=np.uint8)
    for i in arch.feature_indices:
        if not 0 <= i < cfg.n_features:
            raise GenomeError(f"feature index {i} outside [0, {cfg.n_features})")
        bits[i] = 1
    layers = list(arch.topology.layers)
    if len(layers) > cfg.n_layers:
        raise GenomeError(f"{len(layers)} layers exceed the maximum {cfg.n_layers}")
    layers += [(0, ActivationKind.TANH)] * (cfg.n_layers - len(layers))
    for k, (size, act) in enumerate(layers):
        start = cfg.n_features + k * cfg.bits_per_layer
        bits[start:start + cfg.bits_per_layer] = encode_layer_block(size, act, cfg.bits_per_layer)
    return bits_to_string(bits)


def complexity_of(n_selected: int, topology: Topology,
                  cfg: SearchSpaceConfig = SearchSpaceConfig()) -> float:
    """Normalized architectural complexity in [0, 1]."""
    active = topology.active_layers
    feature_term = n_selected / cfg.n_features
    layer_term = len(active) / cfg.n_layers
    if active:
        size_term = sum(s for s, _ in active) / cfg.s_max / len(active)
    else:
        size_term = 0.0
    return (feature_term + layer_term + size_term) / 3.0


def repair_feature_prefix(bits: np.ndarray, cfg: SearchSpaceConfig,
                          rng: np.random.Generator) -> np.ndarray:
    """Set one random feature bit if the prefix is all zero (in place)."""
    if not bits[:cfg.n_features].any():
        bits[int(rng.integers(cfg.n_features))] = 1
    return bits
