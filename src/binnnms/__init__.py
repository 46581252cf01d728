"""Nearest-neighbor median shift clustering for binary data (BinNNMS)."""

from .bga import BatchAscent, BgaConfig, ascend_bits
from .binvec import (
    BinaryVector,
    DimensionMismatch,
    Feature,
    FeatureSchema,
    decode_categorical,
    encode_categorical,
    hamming,
)
from .ingest import Dataset, load_binary_csv, load_categorical_csv, load_uci
from .kde import aa_kernel, kde_estimate, kde_gradient
from .kmodes import KModesResult, kmodes_repeated, kmodes_run
from .knn import NeighborSet, knn_query, kth_distance
from .labeling import ClusterLabeling, epsilon_bits, label_bits
from .metrics import arand, nmi, quantization_error, scores

__all__ = [
    "BatchAscent", "BgaConfig", "ascend_bits",
    "BinaryVector", "DimensionMismatch", "Feature", "FeatureSchema",
    "decode_categorical", "encode_categorical", "hamming",
    "Dataset", "load_binary_csv", "load_categorical_csv", "load_uci",
    "aa_kernel", "kde_estimate", "kde_gradient",
    "KModesResult", "kmodes_repeated", "kmodes_run",
    "NeighborSet", "knn_query", "kth_distance",
    "ClusterLabeling", "epsilon_bits", "label_bits",
    "arand", "nmi", "quantization_error", "scores",
]

__version__ = "0.1.0"
