"""Hyperbolic growth fitting and regime tests for sparse GDP series.

Every public name that this file does not set itself is served from its
home module, imported on the first use of one of its names, so that a
command loads only the modules it runs.
"""

__version__ = "0.1.0"

from .errors import HypergrowthError
from .series import Window

# kept here, not in the modules that use them, so the CLI lists them without
# loading those modules: synthetic's model kinds, each with its parameters (a
# ModelSpec gives every one of them and no other), and the analysis defaults
KIND_PARAMS = {
    "hyperbolic": ("a", "k"),
    "exponential": ("s0", "r"),
    "logistic": ("cap", "s0", "r"),
    "stagnation": ("mean", "amplitude", "period"),
}
KINDS = tuple(KIND_PARAMS)
DEFAULT_FIT_WINDOW = Window(1500.0, 1900.0)
DEFAULT_PROBE_YEARS = (1.0, 1000.0)
DEFAULT_KAPPA = 3.0
DEFAULT_TAKEOFF_WINDOW = Window(1760.0, 1840.0)
DEFAULT_STAGNATION_WINDOW = Window(1.0, 1750.0)
DEFAULT_SEGMENT_BOUNDARIES = (1750.0, 1870.0)
DEFAULT_SEGMENT_WINDOW = DEFAULT_FIT_WINDOW

# every other public name, by its home module
_HOMES = {name: module for module, names in (
    ("series", "GrowthSeries from_columns new_series reciprocal window"),
    ("ingest", "Dataset RegionPreset parse_wide_csv aggregate preset_catalog"),
    ("fitting", "HyperbolicFit FitDiagnostics fit_hyperbolic model_value singularity "
                "percent_deviation goodness"),
    ("regimes", "DiversionReport TakeoffReport StagnationVerdict SegmentReport "
                "detect_diversion takeoff_scan stagnation_test segment_consistency"),
    ("synthetic", "ModelSpec generate"),
) for name in names.split()}

__all__ = ["HypergrowthError", "Window", *_HOMES, "__version__"]


def __getattr__(name: str):
    """Serve a public name from its home module, importing the module on first use."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    """The package's names, with every public name not yet served."""
    return sorted({*globals(), *__all__})
