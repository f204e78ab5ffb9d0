"""Exemplar selection, spatially aware sparse coding, and classification."""

from .coding import (
    CodeResult,
    Coder,
    CodingDiagnostics,
    Encoder,
    SpatialWeightConfig,
    bound_check,
    dense_saco1,
    grid_weights,
    saco1,
    saco2,
    soft_threshold,
    solve_weighted_l1,
    solve_weighted_l2_l1,
    spatial_weights,
)
from .config import PipelineConfig
from .data import Dictionary, ImageFeatures, LabeledImage, Patch, PatchSet
from .errors import (
    DegenerateInputError,
    InvalidConfigError,
    InvalidInputError,
    LinearSolveError,
    PipelineStageError,
    TensorFormatError,
)
from .graphs import AffinityGraph, build_feature_affinity, build_spatial_affinity
from .selection import (
    ObjectiveWeights,
    SelectionResult,
    SelectionState,
    brute_force_opt,
    lazy_greedy,
    naive_greedy,
)
from .tensorio import read_tensor, write_tensor

__version__ = "0.1.0"

__all__ = [
    "AffinityGraph",
    "CodeResult",
    "Coder",
    "CodingDiagnostics",
    "DegenerateInputError",
    "Dictionary",
    "Encoder",
    "ImageFeatures",
    "InvalidConfigError",
    "InvalidInputError",
    "LabeledImage",
    "LinearSolveError",
    "ObjectiveWeights",
    "Patch",
    "PatchSet",
    "PipelineConfig",
    "PipelineStageError",
    "SelectionResult",
    "SelectionState",
    "SpatialWeightConfig",
    "TensorFormatError",
    "bound_check",
    "brute_force_opt",
    "build_feature_affinity",
    "build_spatial_affinity",
    "dense_saco1",
    "grid_weights",
    "lazy_greedy",
    "naive_greedy",
    "read_tensor",
    "saco1",
    "saco2",
    "soft_threshold",
    "solve_weighted_l1",
    "solve_weighted_l2_l1",
    "spatial_weights",
    "write_tensor",
]
