"""Hyperbolic growth fitting and regime tests for sparse GDP series."""

__version__ = "0.1.0"

# synthetic's model kinds, kept here so the CLI lists them without loading synthetic
KINDS = ("hyperbolic", "exponential", "logistic", "stagnation")

from .errors import HypergrowthError
from .fitting import (
    FitDiagnostics,
    HyperbolicFit,
    fit_hyperbolic,
    goodness,
    model_value,
    percent_deviation,
    singularity,
)
from .ingest import Dataset, RegionPreset, aggregate, parse_wide_csv, preset_catalog
from .regimes import (
    DiversionReport,
    SegmentReport,
    StagnationVerdict,
    TakeoffReport,
    detect_diversion,
    segment_consistency,
    stagnation_test,
    takeoff_scan,
)
from .series import GrowthSeries, Window, from_columns, new_series, reciprocal, window

__all__ = [
    "HypergrowthError",
    "GrowthSeries",
    "Window",
    "from_columns",
    "new_series",
    "reciprocal",
    "window",
    "Dataset",
    "RegionPreset",
    "parse_wide_csv",
    "aggregate",
    "preset_catalog",
    "HyperbolicFit",
    "FitDiagnostics",
    "fit_hyperbolic",
    "model_value",
    "singularity",
    "percent_deviation",
    "goodness",
    "DiversionReport",
    "TakeoffReport",
    "StagnationVerdict",
    "SegmentReport",
    "detect_diversion",
    "takeoff_scan",
    "stagnation_test",
    "segment_consistency",
    "ModelSpec",
    "generate",
    "__version__",
]


def __getattr__(name: str):
    """Serve the synthetic generators, importing them on first use."""
    if name in ("ModelSpec", "generate"):
        from . import synthetic

        return getattr(synthetic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
