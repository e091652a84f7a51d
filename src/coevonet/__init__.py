"""Co-evolution of input-feature subsets and shallow neural topologies.

A library plus CLI that searches the joint space of technical-indicator
subsets and feed-forward topologies as a tri-objective problem (test-regime
balanced error, architectural complexity, earlier-regime balanced error) and
selects one non-dominated architecture a posteriori from a decision maker's
preference ranking.

Importing the package sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 where the caller left them unset: a multi-cycle
search already trains on every core, one worker process per core, and the
BLAS thread count changes the last bits of matrix products, so fixed-seed
results are reproduced at the default. The variables act only if numpy has
not been imported yet; forked workers inherit them with the loaded numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

from .decision import PreferenceSpec, mtd_select, preference_weights
from .genome import Architecture, decode, encode
from .market_data import (DatasetSplits, OhlcvSeries, PatternSet, SplitSpec,
                          build_patterns, load_ohlcv_csv, split_by_dates)
from .moea import ParetoArchive, eagd_run, hypervolume, nsga2_run
from .neural import ActivationKind, Topology, predict, scg_train
from .objectives import ObjectiveVector

__all__ = [
    "ActivationKind", "Architecture", "DatasetSplits", "ObjectiveVector", "OhlcvSeries",
    "ParetoArchive", "PatternSet", "PreferenceSpec", "SplitSpec", "Topology", "build_patterns",
    "decode", "eagd_run", "encode", "hypervolume", "load_ohlcv_csv", "mtd_select",
    "nsga2_run", "predict", "preference_weights", "scg_train", "split_by_dates",
]
