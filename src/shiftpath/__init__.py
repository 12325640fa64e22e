"""Transfer operators, weighted path measures, and inverse-branch sampling
on subshifts of finite type.

The exported names resolve on first use (PEP 562): `import shiftpath`
loads no submodule, and `shiftpath.X` imports the module that defines X
the first time it is read.
"""

import importlib

__version__ = "0.1.0"

# the defining submodule of each exported name
_EXPORTS = {
    "errors": (
        "ConfigError",
        "DegenerateH",
        "DepthDowngrade",
        "DepthTooShallow",
        "FilterMismatch",
        "InadmissibleWord",
        "NegativeWeight",
        "NonBinaryEntry",
        "NotFixedPoint",
        "NotSubNormalized",
        "ShiftPathError",
        "TableTooLarge",
        "TooFewSamples",
        "ZeroColumn",
        "ZeroMassConditioning",
    ),
    "extremality": (
        "Decomposition",
        "ErgodicityReport",
        "decompose",
        "decompose_report",
        "relative_ergodicity_dimension",
    ),
    "invariant": (
        "MarkovMeasure",
        "markov_measure_for_weight",
        "strongly_invariant_measure",
        "verify_strong_invariance",
    ),
    "measures": (
        "DensityMeasure",
        "RawMeasure",
        "check_fixed_point",
        "fixed_density_measure",
        "masses_along_orbit",
        "transform_measure",
        "weight_pushforward_defect",
    ),
    "pathspace": (
        "EmpiricalReport",
        "MartingaleCoordinates",
        "PathMeasure",
        "SampleBatch",
        "build_path_measure",
        "check_consistency",
        "check_isometry",
        "check_quasi_invariance",
        "empirical_check",
        "martingale_coordinates",
        "project_once",
        "sample_paths",
    ),
    "subshift": (
        "CylinderFunction",
        "Subshift",
        "build_subshift",
        "weight_product",
        "word_string",
    ),
    "transfer": (
        "FixedFunctionResult",
        "apply_transfer",
        "check_weight_pushforward",
        "iterate_fixed_function",
        "left_fixed_functional",
        "transfer_matrix",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
