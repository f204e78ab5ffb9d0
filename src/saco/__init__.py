"""Exemplar selection, spatially aware sparse coding, and classification."""

from .coding import (
    CodingDiagnostics,
    Encoder,
    SpatialWeightConfig,
    bound_check,
    soft_threshold,
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
    lazy_greedy,
)
from .tensorio import read_tensor, write_tensor

__version__ = "0.1.0"

__all__ = [
    "AffinityGraph",
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
    "build_feature_affinity",
    "build_spatial_affinity",
    "lazy_greedy",
    "read_tensor",
    "soft_threshold",
    "spatial_weights",
    "write_tensor",
]
