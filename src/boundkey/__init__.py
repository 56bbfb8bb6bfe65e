"""boundkey: four-qubit PPT-invariant states with distillable cryptographic key.

Construction, certification, key-rate bounds, and simulation of a
local-measurement verification scheme for a family of bound entangled
states carrying private correlations.

Importing the package loads none of its layers: each public name, and each
layer module (``boundkey.serialize``, ...), is imported on first use
(PEP 562), so a command pays only for the layers it runs.
"""
import importlib

__version__ = "0.1.0"

# the public names, by the layer module that defines them
_EXPORTS = {
    "keyrate": (
        "BoundsReport", "CcqState", "ErResult", "SeparableWitness", "TwistingUnitary",
        "binary_entropy", "canonical_twisting", "ccq_from_state", "certified_bounds",
        "dw_rate", "er_upper_bound", "holevo_rate", "privacy_squeeze", "rel_entropy",
        "twirl_hashing", "twirl_hashing_bound",
    ),
    "linalg": (
        "CertificationInfeasibleError", "DensityOperator", "MultipartiteOperator",
        "UnsupportedStateError", "partial_trace", "partial_transpose", "permute_subsystems",
        "trace_norm", "von_neumann_entropy",
    ),
    "observables": (
        "CollectiveSetting", "SettingsCover", "VerificationObservables",
        "build_observables", "cover_from_settings", "default_candidates",
        "expansion_differences", "expectation", "min_settings_cover", "pauli_decompose",
        "reference_expansions", "tilde_bell_states",
    ),
    "ppt": (
        "ExtremalityPoint", "RobustnessPoint", "RobustnessReport", "extremality_scan",
        "ppt_check", "ppt_invariance", "robustness_scan", "robustness_threshold",
    ),
    "serialize": ("load_records", "load_state", "save_records", "save_state", "scheme_hash"),
    "shots": (
        "EstimateReport", "ShotRecord", "certify", "estimate_parameters", "exact_record",
        "outcome_distribution", "sample_scheme", "sample_setting",
    ),
    "states": (
        "KeyMixture", "PreparedComponent", "bell_states", "depolarize", "flip_operator",
        "fourier", "hadamard", "key_ratio", "mixture_from_unitary", "pbit_from_X",
        "rho_from_mixture", "rho_h", "rho_h_mixture_form", "rho_h_preparation",
        "rho_h_weights", "rho_u",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
