"""Learn small Boolean classification rules by column generation."""

import os

# many small BLAS products run fastest on one thread; a user's setting wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .dataset import (
    BinaryDataset,
    DatasetError,
    FeatureMeta,
    binarize_table,
    build_matrix,
    read_csv_table,
)
from .ruleset import RuleSet, build_ruleset, hamming_loss, predict

__version__ = "0.1.0"

__all__ = [
    "BinaryDataset",
    "DatasetError",
    "FeatureMeta",
    "RuleSet",
    "binarize_table",
    "build_matrix",
    "build_ruleset",
    "hamming_loss",
    "predict",
    "read_csv_table",
    "__version__",
]
