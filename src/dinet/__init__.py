"""dinet: tree-structured tabular classifier built from information-bottleneck
nodes and lossless mixed-radix multiplexers, trained layer by layer."""

from .analysis import MIFlowReport, check_bounds, compose_full_matrix, mi_flow
from .dataio import RawDataset, fetch_ckd, load_dataset, load_model, save_model, split
from .errors import (
    ConfigError,
    DatasetFormatError,
    DinetError,
    ModelFormatError,
    ModelVersionError,
    ResourceError,
    SchemaMismatchError,
    ValidationError,
)
from .ib import (
    IBDiagnostics,
    IBProblem,
    IBSolution,
    estimate_empirical,
    ib_step,
    lagrangian,
    posteriors,
    solve_ib,
)
from .infotheory import ConditionalMatrix, DiscreteDistribution
from .network import (
    DINModel,
    Topology,
    mux_combine,
    mux_split,
    predict,
    predict_quantized,
    train_network,
)
from .quantizer import FeatureSpec, QuantizedDataset, RawColumn, apply_quantizer, fit_quantizer
from .synthetic import make_synthetic_ckd

__version__ = "0.1.0"

__all__ = [
    "ConditionalMatrix",
    "ConfigError",
    "DINModel",
    "DatasetFormatError",
    "DinetError",
    "DiscreteDistribution",
    "FeatureSpec",
    "IBDiagnostics",
    "IBProblem",
    "IBSolution",
    "MIFlowReport",
    "ModelFormatError",
    "ModelVersionError",
    "QuantizedDataset",
    "RawColumn",
    "RawDataset",
    "ResourceError",
    "SchemaMismatchError",
    "Topology",
    "ValidationError",
    "apply_quantizer",
    "check_bounds",
    "compose_full_matrix",
    "estimate_empirical",
    "fetch_ckd",
    "fit_quantizer",
    "ib_step",
    "lagrangian",
    "load_dataset",
    "load_model",
    "make_synthetic_ckd",
    "mi_flow",
    "mux_combine",
    "mux_split",
    "posteriors",
    "predict",
    "predict_quantized",
    "save_model",
    "solve_ib",
    "split",
    "train_network",
]
