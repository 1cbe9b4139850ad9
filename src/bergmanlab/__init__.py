"""bergmanlab: a numerical laboratory for weighted Bergman kernels.

Computes Gram matrices of monomials under admissible-style weights on model
domains (disk, ball, type-I matrix balls, full space), reconstructs weighted
Bergman kernels as truncated orthonormal series, evaluates the closed-form
Fock-Bargmann and generic-norm power kernels, sums the Forelli-Rudin series
for Hartogs domains, applies the classical automorphism generators with
their analytic Jacobians, and turns the kernel-transformation law and the
Diederich-Ohsawa moment machinery into executable pass/fail verdicts.
"""

from .core import (
    DomainKind,
    DomainSpec,
    HuaPolynomial,
    Weight,
    GaussianPower,
    GenericNormPower,
    PolynomialRadial,
    RadialProfile,
    contains,
    full_space,
    gaussian_weight,
    generic_norm,
    generic_norm_power,
    generic_norm_weight,
    genus,
    hua_normalization,
    load_radial_profile,
    matrix_ball,
    multiindex_enumerate,
    polynomial_weight,
    unit_ball,
    unit_disk,
    weight_eval,
)
from .moments import (
    GramMatrix,
    RadialGram,
    gram_auto,
    gram_exact,
    gram_from_json,
    gram_montecarlo,
    gram_quadrature,
    gram_to_json,
    gram_validate,
    moment_exact,
    unit_mass_weight,
    weight_mass,
)
from .kernels import (
    FockKernel,
    PowerKernel,
    RadialSeriesKernel,
    SeriesKernel,
    fock_kernel,
    kernel_from_gram,
    kernel_from_json,
    kernel_to_json,
    normalized_kernel,
    power_kernel,
    reproducing_residual,
    weighted_kernel_closed_form,
)
from .hartogs import (
    ClosedFormFamily,
    FrcPairs,
    FrcResult,
    HartogsDomain,
    SeriesFamily,
    ball_kernel,
    frc_eval,
    frc_eval_pairs,
    frc_restriction_check,
    hartogs_contains,
    pochhammer,
)
from .automorphisms import (
    AutomorphismSpec,
    BaseUnitary,
    Composite,
    FiberUnitary,
    FockTranslation,
    MobiusMap,
    jacobian_base_slice,
    jacobian_fd,
    jacobian_fd_matrix,
    make_ch_map,
    make_fbh_map,
    map_from_json,
    map_to_json,
    thullen_mobius,
    transform_residual,
    zero_preimage,
)
from .characterize import (
    BoundaryReport,
    CharacterizationReport,
    FamilyConditionReport,
    MomentTable,
    RecoveredWeight,
    boundary_inequality_check,
    characterize_ch,
    characterize_fbh,
    family_condition_check,
    moment_mismatch,
    moment_table,
    recover_weight,
)

__version__ = "0.1.0"
