"""bergmanlab: a numerical laboratory for weighted Bergman kernels.

Computes Gram matrices of monomials under admissible-style weights on model
domains (balls, the disk being B^1, type-I matrix balls, full space),
reconstructs weighted Bergman kernels as truncated series in <z, w> from
radial moments,
evaluates the closed-form Fock-Bargmann and generic-norm power kernels,
sums the Forelli-Rudin series for Hartogs domains, applies the classical
automorphism generators with their analytic Jacobians, and turns the
kernel-transformation law and the Diederich-Ohsawa moment machinery into
executable pass/fail verdicts.

The public names below are loaded on first use (PEP 562), so importing the
package, or one command of its CLI, loads only the modules it reads.
"""

import importlib

# the public names of each submodule
_EXPORTS = {
    "core": (
        "DomainKind", "DomainSpec", "HuaPolynomial", "Weight", "GaussianPower",
        "GenericNormPower", "PolynomialRadial", "RadialProfile", "contains",
        "full_space", "gaussian_weight", "generic_norm", "generic_norm_power",
        "generic_norm_weight", "hua_normalization", "load_radial_profile",
        "matrix_ball", "multiindex_enumerate", "polynomial_weight",
        "unit_ball", "unit_disk", "weight_eval"),
    "moments": (
        "RadialGram", "gram_auto", "gram_exact", "gram_montecarlo",
        "gram_quadrature", "gram_to_json", "gram_validate",
        "unit_mass_weight"),
    "kernels": (
        "FockKernel", "PowerKernel", "RadialSeriesKernel", "kernel_from_gram",
        "kernel_from_json", "kernel_to_json", "weighted_kernel_closed_form"),
    "hartogs": (
        "ClosedFormFamily", "FrcPairs", "FrcResult", "HartogsDomain",
        "ball_kernel", "frc_eval_pairs", "frc_restriction_check",
        "hartogs_contains"),
    "automorphisms": (
        "AutomorphismSpec", "BaseUnitary", "Composite", "FiberUnitary",
        "FockTranslation", "MobiusMap", "jacobian_base_slice",
        "jacobian_fd_matrix", "make_ch_map", "make_fbh_map", "map_from_json",
        "map_to_json", "thullen_mobius", "transform_residual",
        "zero_preimage"),
    "characterize": (
        "BoundaryReport", "CharacterizationReport", "FamilyConditionReport",
        "RecoveredWeight", "boundary_inequality_check",
        "characterize_ch", "characterize_fbh", "family_condition_check",
        "moment_mismatch", "moment_table", "recover_weight"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
