"""Certified correlation-decay computations for two-state spin systems.

The package's names resolve lazily (PEP 562): ``import spindecay`` loads no
submodule, and the first use of a name imports the submodule that defines
it.  ``spindecay.X`` is then the same object as ``spindecay.<module>.X``.
"""
import importlib

__version__ = "0.1.0"

# home submodule -> the names the package exports from it
_EXPORTS = {
    "core": (
        "ANTIFERROMAGNETIC",
        "BLUE",
        "DEGENERATE",
        "FERROMAGNETIC",
        "GREEN",
        "Classification",
        "SpinSystem",
        "alpha",
        "alpha_sym",
        "classify",
        "edge_factor",
        "fixed_point_derivative",
        "recursion_f",
        "swap_spins",
        "symmetric_f",
    ),
    "errors": (
        "BudgetExceededError",
        "EnumerationCapError",
        "GraphFormatError",
        "InvalidParameterError",
        "NoThresholdError",
        "SpinDecayError",
        "UniquenessError",
        "ZeroWeightError",
    ),
    "estimator": (
        "Depth",
        "MarginalBounds",
        "MBased",
        "PartitionEstimate",
        "approx_partition",
        "bounds",
        "decay_curve",
        "estimate_marginal",
    ),
    "graphs": ("Boundary", "Graph", "Instance", "from_edges", "load", "loads", "max_degree"),
    "oracle": ("ExactMarginal", "ExactResult", "exact_marginal", "exact_partition", "log_weight"),
    "uniqueness": (
        "ContractionBound",
        "FixedPointResult",
        "ThresholdReport",
        "UniquenessResult",
        "choose_M",
        "contraction_bound",
        "find_non_monotone_witness",
        "fixed_point",
        "gamma_threshold",
        "hardcore_threshold",
        "is_unique_up_to",
        "soft_thresholds",
        "universal_lambda_threshold",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
