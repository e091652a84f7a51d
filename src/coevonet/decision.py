"""A-posteriori selection from a non-dominated archive.

The decision maker ranks the three objectives (ties allowed) and states an
intensity on the 1 (indifference) to 9 (extreme prejudice) scale. Pairwise
multiplicative relations pi[i,j] = I^((O_j - O_i)/(n_obj - 1)) are reduced to
weights by row geometric means. Selection then runs a per-objective
tournament: each member scores a win against every other member with a
strictly worse (larger) value, win fractions are aggregated through a
weighted geometric mean, and the member with the top global rank is chosen.

Only orderings enter the tournament, so selection is invariant to positive
rescaling of any objective column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_OBJ = 3

#: Named ranking presets (within-regime error, complexity, earlier-regime error).
PRESET_RANKINGS: dict[str, tuple[int, int, int]] = {
    "O1": (1, 1, 1),
    "O2": (1, 2, 3),
    "O3": (1, 2, 1),
    "O4": (2, 3, 1),
    "O5": (1, 3, 3),
}
PRESET_INTENSITY = 9.0


class DecisionError(ValueError):
    pass


@dataclass(frozen=True)
class PreferenceSpec:
    rankings: tuple[int, int, int]
    intensity: float = PRESET_INTENSITY

    def __post_init__(self):
        if len(self.rankings) != N_OBJ:
            raise DecisionError(f"need {N_OBJ} rankings, got {len(self.rankings)}")
        if not all(isinstance(r, int) and 1 <= r <= N_OBJ for r in self.rankings):
            raise DecisionError(f"rankings must be integers in [1, {N_OBJ}]: {self.rankings}")
        if not 1.0 <= self.intensity <= 9.0:
            raise DecisionError(f"intensity {self.intensity} outside [1, 9]")

    @classmethod
    def preset(cls, name: str) -> "PreferenceSpec":
        try:
            return cls(PRESET_RANKINGS[name])
        except KeyError:
            raise DecisionError(
                f"unknown preset {name!r}; choose from {sorted(PRESET_RANKINGS)}"
            ) from None


def preference_weights(spec: PreferenceSpec) -> np.ndarray:
    """Objective weights (length 3, summing to 1) from ranking and intensity."""
    o = np.asarray(spec.rankings, dtype=float)
    pi = spec.intensity ** ((o[None, :] - o[:, None]) / (N_OBJ - 1))
    theta = pi.prod(axis=1) ** (1.0 / N_OBJ)
    return theta / theta.sum()


@dataclass(frozen=True)
class TournamentResult:
    """Audit matrices of a tournament selection over n archive members."""

    wins: np.ndarray            # n x 3 integers
    win_fractions: np.ndarray   # n x 3 in [0, 1]
    global_ranks: np.ndarray    # n in [0, 1]
    weights: np.ndarray
    selected_index: int

    def to_json_dict(self) -> dict:
        return {
            "wins": self.wins.tolist(),
            "win_fractions": self.win_fractions.tolist(),
            "global_ranks": self.global_ranks.tolist(),
            "weights": self.weights.tolist(),
            "selected_index": int(self.selected_index),
        }


def mtd_select(rows, weights: np.ndarray) -> TournamentResult:
    """Multi-criteria tournament over an archive's (bits, objectives) pairs.

    Win counting is strict: ties award no win to either side. The best global
    rank wins; exact rank ties break on lowest e_cv, then lowest complexity,
    then genome string. A singleton archive returns its only member with rank
    1 by the documented degenerate-size rule.
    """
    if not rows:
        raise DecisionError("empty archive")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (N_OBJ,) or np.any(weights < 0):
        raise DecisionError("weights must be 3 nonnegative reals")
    objs = np.array([obj.as_tuple() for _, obj in rows])
    n = len(rows)
    if n == 1:
        return TournamentResult(
            wins=np.zeros((1, N_OBJ), dtype=int),
            win_fractions=np.zeros((1, N_OBJ)),
            global_ranks=np.ones(1),
            weights=weights,
            selected_index=0,
        )
    wins = (objs[None, :, :] > objs[:, None, :]).sum(axis=1)
    fractions = wins / (n - 1)
    ranks = np.prod(fractions ** weights[None, :], axis=1) ** (1.0 / N_OBJ)
    best = np.flatnonzero(ranks == ranks.max())
    selected = min(best, key=lambda i: (objs[i, 0], objs[i, 1], rows[i][0]))
    return TournamentResult(
        wins=wins.astype(int),
        win_fractions=fractions,
        global_ranks=ranks,
        weights=weights,
        selected_index=int(selected),
    )


def select_architecture(archive, spec: PreferenceSpec):
    """Tournament over a ``ParetoArchive``: (selected bits, objectives, audit)."""
    rows = archive.members()
    result = mtd_select(rows, preference_weights(spec))
    bits, obj = rows[result.selected_index]
    return bits, obj, result
