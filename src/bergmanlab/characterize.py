"""Moment discrimination, weight recovery, and the uniqueness verdicts.

The discrimination principle: two admissible weights with polynomials in
both weighted Bergman spaces and identical (or proportional) kernels have
identical (or proportional) weights.  At finite rank this becomes a family
of executable checks:

* ``moment_mismatch`` compares the full monomial moment tables of two
  weights; a nonzero difference certifies distinct kernels, and a zero
  difference is the rank-d necessary condition for equality.
* ``recover_weight`` inverts the finite radial moment problem in an
  orthogonal basis (shifted Legendre on [0, 1], Laguerre functions on
  [0, inf)), with optional ridge damping for the notoriously conditioned
  Hausdorff case.
* ``characterize_fbh`` / ``characterize_ch`` test whether the series kernel
  of p^m is a constant multiple of the model kernel (Gaussian exponential,
  generic-norm power) that the domain's special automorphisms force, and
  return Match(c) / Mismatch / Inconclusive verdicts with named sub-checks.
* ``boundary_inequality_check`` tests the boundary inequality
  p(z) |k_z(z)|^2 <= p(0) that translation automorphisms impose, with
  Equality exactly characterizing Gaussian decay.
* ``family_condition_check`` verifies, for a family of zero-section
  preserving maps indexed by their base points z0 = phi^(-1)(0), that
  |J(phi, (z0, 0))|^2 = const * K_{D, p^m}(z0, z0) with one shared
  constant -- the homogeneity premise that transports the kernel identity
  to every base point.

Every verdict is a statement at truncation rank d and carries d in its
report; no claim is made beyond the computed rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.legendre import Legendre
from scipy.special import eval_laguerre

from .core import (
    DomainKind,
    PolynomialRadial,
    RadialProfile,
    Weight,
    as_point,
    sample_ball,
    weight_eval,
)
from .moments import Gram, gram_auto
from .kernels import FockKernel, KernelModel, PowerKernel, kernel_from_gram
from .hartogs import HartogsDomain
from .automorphisms import (
    AutomorphismSpec,
    apply as apply_map,
    base_apply,
    jacobian_base_slice,
    zero_preimage,
)
from . import jsonio


# ---------------------------------------------------------------------------
# moment tables and mismatch

@dataclass
class MomentTable:
    weight: Weight
    degree: int
    moments: Gram
    mass: float


def moment_table(weight: Weight, degree: int) -> MomentTable:
    """Gram matrix of the weight, closed-form when available."""
    gram = gram_auto(weight, degree)
    mass = float(gram.entries[0, 0].real)
    if mass <= 0:
        raise ValueError("weight has non-positive mass")
    return MomentTable(weight, degree, gram, mass)


@dataclass
class MismatchResult:
    difference: np.ndarray
    frobenius: float
    max_abs: float
    degree: int

    @property
    def norm(self) -> float:
        """The reported mismatch norm (Frobenius)."""
        return self.frobenius


def moment_mismatch(w1: Weight, w2: Weight, degree: int) -> MismatchResult:
    """Entrywise difference of two moment tables on a common base.

    A zero difference (to tolerance) is the rank-d necessary condition for
    the two weighted kernels to coincide; any entry beyond tolerance is a
    certified discrepancy witness.
    """
    if w1.base != w2.base:
        raise ValueError("weights live on different base domains")
    t1 = moment_table(w1, degree)
    t2 = moment_table(w2, degree)
    diff = t1.moments.entries - t2.moments.entries
    return MismatchResult(diff, float(np.linalg.norm(diff)),
                          float(np.max(np.abs(diff))), degree)


# ---------------------------------------------------------------------------
# radial moment inversion

def _profile_from_coeffs(basis: str, coefficients, t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    if basis == "shifted_legendre":
        x = 2.0 * t - 1.0
        for j, c in enumerate(coefficients):
            out += c * Legendre.basis(j)(x)
        return out
    for j, c in enumerate(coefficients):
        out += c * eval_laguerre(j, t)
    return out * np.exp(-t)


@dataclass
class RecoveredWeight:
    basis: str
    coefficients: np.ndarray
    weight: Weight
    residual: float
    condition: float

    def eval_profile(self, t):
        """Evaluate the recovered radial profile w(t)."""
        return _profile_from_coeffs(self.basis, self.coefficients, t)


def _design_shifted_legendre(degree: int) -> np.ndarray:
    # A[k, j] = pi * integral_0^1 t^k P~_j(t) dt
    #         = pi * [k (k-1) ... (k-j+1)] / [(k+1)(k+2)...(k+j+1)]
    A = np.zeros((degree + 1, degree + 1))
    for k in range(degree + 1):
        for j in range(0, k + 1):
            val = 1.0
            for i in range(j):
                val *= (k - i) / (k + 2 + i)
            val /= (k + 1)
            A[k, j] = math.pi * val
    return A


def _design_laguerre(degree: int) -> np.ndarray:
    # A[k, j] = pi * integral_0^inf t^k L_j(t) e^(-t) dt = pi (-1)^j C(k,j) k!
    A = np.zeros((degree + 1, degree + 1))
    for k in range(degree + 1):
        fk = float(math.factorial(k))
        for j in range(0, k + 1):
            A[k, j] = math.pi * (-1) ** j * math.comb(k, j) * fk
    return A


def _legendre_to_monomial(coeffs: np.ndarray) -> np.ndarray:
    shift = npoly.Polynomial([-1.0, 2.0])
    total = npoly.Polynomial([0.0])
    for j, c in enumerate(coeffs):
        pj = Legendre.basis(j).convert(kind=npoly.Polynomial)
        total = total + c * pj(shift)
    return np.asarray(total.coef, dtype=float)


# condition number of the unridged moment system above which recovery
# refuses and asks for a ridge parameter
_CONDITION_LIMIT = 1e12


def recover_weight(table: MomentTable, basis: str | None = None,
                   ridge: float = 0.0) -> RecoveredWeight:
    """Invert the diagonal (radial) moment sequence m_k = <z^k, z^k>.

    One complex variable only.  The profile is expanded in shifted Legendre
    polynomials on [0, 1] (bounded base) or Laguerre functions
    L_j(t) e^(-t) on [0, inf), and fitted by least squares with optional
    ridge damping; with ridge = 0 a well-conditioned system reproduces
    polynomial profiles of degree <= d exactly.
    """
    base = table.weight.base
    if base.dim != 1:
        raise ValueError("radial moment recovery is wired for n = 1")
    if basis is None:
        basis = "shifted_legendre" if base.bounded else "laguerre"
    if basis not in ("shifted_legendre", "laguerre"):
        raise ValueError(f"unknown basis {basis!r}")
    if basis == "shifted_legendre" and not base.bounded:
        raise ValueError("shifted Legendre basis needs a bounded base")
    if basis == "laguerre" and base.bounded:
        raise ValueError("the Laguerre basis lives on the full space")

    d = table.degree
    m = np.real(np.diag(table.moments.entries)).astype(float)
    A = (_design_shifted_legendre(d) if basis == "shifted_legendre"
         else _design_laguerre(d))
    cond = float(np.linalg.cond(A))
    if ridge == 0.0:
        if cond > _CONDITION_LIMIT:
            raise ValueError(
                f"moment system condition {cond:.2e} exceeds {_CONDITION_LIMIT:.0e}; "
                "retry with a positive ridge parameter")
        coeffs, *_ = np.linalg.lstsq(A, m, rcond=None)
    else:
        AtA = A.T @ A + ridge * np.eye(d + 1)
        coeffs = np.linalg.solve(AtA, A.T @ m)
    residual = float(np.linalg.norm(A @ coeffs - m))

    if basis == "shifted_legendre":
        mono = _legendre_to_monomial(coeffs)
        wt = Weight(base, PolynomialRadial(tuple(mono)))
    else:
        # tabulate the Laguerre-function expansion as a radial profile
        t_cut = max(40.0, 3.0 * d + 20.0)
        knots = np.linspace(0.0, t_cut, 2001)
        vals = _profile_from_coeffs(basis, coeffs, knots)
        wt = Weight(base, RadialProfile(tuple(knots), tuple(vals)))
    return RecoveredWeight(basis, np.asarray(coeffs), wt, residual, cond)


# ---------------------------------------------------------------------------
# characterization reports

@dataclass
class SubCheck:
    name: str
    identity: str
    residual: float

    def as_dict(self) -> dict:
        return {"name": self.name, "identity": self.identity,
                "residual": self.residual}


@dataclass
class CharacterizationReport:
    verdict: str             # "match" | "mismatch" | "inconclusive"
    c: float | None
    degree: int
    max_deviation: float
    match_tol: float
    mismatch_tol: float
    checks: list[SubCheck] = field(default_factory=list)
    witness: tuple | None = None

    @property
    def matched(self) -> bool:
        return self.verdict == "match"

    def as_dict(self) -> dict:
        out = {"verdict": self.verdict, "c": self.c, "degree": self.degree,
               "max_deviation": self.max_deviation,
               "match_tol": self.match_tol, "mismatch_tol": self.mismatch_tol,
               "checks": [c.as_dict() for c in self.checks]}
        if self.witness is not None:
            z, w = self.witness
            out["witness"] = {"z": jsonio.cpoint(z), "w": jsonio.cpoint(w)}
        return out


def _proportionality_report(series: KernelModel, reference, points,
                            degree: int, match_tol: float,
                            mismatch_tol: float,
                            power_law: bool = False) -> CharacterizationReport:
    """Worst relative deviation of K from c R over all pairs of points, c
    fitted at points[0] = 0.  ``power_law`` adds K(z, z) = K(0, 0) R(z, z),
    the generic-norm power law, read off the same grids as R(0, 0) = 1."""
    with np.errstate(all="ignore"):    # refused by name below instead
        K = series.eval_grid(points, points)
        R = reference.eval_grid(points, points)
        c = K[0, 0].real / R[0, 0].real
        dev = np.abs(K - c * R) / np.abs(c * R)
    if not R.all():
        raise ValueError("the reference kernel underflows to 0 on the sample grid")
    for grid, what in ((K, "series kernel"), (R, "reference kernel"),
                       (dev, f"deviation from c * reference (c = {c:.3e})")):
        if not np.isfinite(grid).all():
            raise ValueError(f"the {what} is not finite on the sample grid")

    # the first maximum in row-major order names the witness pair
    i, j = np.unravel_index(dev.argmax(), dev.shape)
    worst = float(dev[i, j])
    worst_diag = float(dev.diagonal().max())
    worst_off = float(dev[~np.eye(len(dev), dtype=bool)].max(initial=0.0))

    if worst <= match_tol:
        verdict = "match"
    elif worst > mismatch_tol:
        verdict = "mismatch"
    else:
        verdict = "inconclusive"

    checks = [
        SubCheck("kernel_proportionality_diagonal",
                 "K_w(z,z) = c * K_model(z,z)", worst_diag),
        SubCheck("kernel_proportionality_offdiagonal",
                 "K_w(z,w) = c * K_model(z,w), z != w", worst_off),
    ]
    if power_law:
        lhs = K.diagonal().real
        rhs = K[0, 0].real * R.diagonal().real
        checks.append(SubCheck(
            "diagonal_power_law",
            "K_q^m(z0,z0) = K_q^m(0,0) * N(z0,z0)^(-m*mu-g)",
            float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))))
    return CharacterizationReport(verdict, float(c), degree, float(worst),
                                  match_tol, mismatch_tol, checks,
                                  None if verdict == "match"
                                  else (points[i], points[j]))


def characterize_fbh(p: Weight, m: int, mu: float, degree: int, *,
                     rmax: float | None = None, npts: int = 12, seed: int = 0,
                     match_tol: float = 1e-8, mismatch_tol: float = 1e-6
                     ) -> CharacterizationReport:
    """Does the weighted kernel of p^m on C^n match the Gaussian model?

    Builds the rank-d series kernel of p^m, fits c at the origin against
    exp(m mu <z, w>), and measures the worst relative deviation over a
    seeded sample ball.  Match forces p^m = const * exp(-m mu |z|^2) at
    rank d; Mismatch carries a witness pair.
    """
    if p.base.bounded:
        raise ValueError("the Gaussian-model characterization lives on C^n")
    if m < 1 or mu <= 0:
        raise ValueError("need m >= 1 and mu > 0")
    series = kernel_from_gram(gram_auto(p.pow(m), degree))
    reference = FockKernel(m * mu, p.base.dim)
    if rmax is None:
        # keeps the rank-10 truncation tail below the match tolerance
        rmax = 0.9 / math.sqrt(m * mu)
    rng = np.random.default_rng(seed)
    n = p.base.dim
    points = [np.zeros(n, dtype=complex), *sample_ball(rng, n, rmax, npts - 1)]
    return _proportionality_report(series, reference, points, degree,
                                   match_tol, mismatch_tol)


def characterize_ch(q: Weight, m: int, mu: float, degree: int, *,
                    rmax: float = 0.55, npts: int = 12, seed: int = 0,
                    match_tol: float = 1e-8, mismatch_tol: float = 1e-6
                    ) -> CharacterizationReport:
    """Does the weighted kernel of q^m match the generic-norm power model?

    Tests K_{q^m}(z, w) = c * N(z, w)^(-m mu - g) on a seeded sample of the
    bounded base, with the diagonal power law
    K(z0, z0) = K(0, 0) N(z0, z0)^(-m mu - g) reported as a named sub-check.
    """
    base = q.base
    if base.kind not in (DomainKind.UNIT_DISK, DomainKind.UNIT_BALL):
        raise ValueError("the generic-norm characterization needs disk/ball")
    if m < 1 or mu <= 0:
        raise ValueError("need m >= 1 and mu > 0")
    series = kernel_from_gram(gram_auto(q.pow(m), degree))
    reference = PowerKernel(base, m * mu)
    rng = np.random.default_rng(seed)
    n = base.dim
    points = [np.zeros(n, dtype=complex), *sample_ball(rng, n, rmax, npts - 1)]
    return _proportionality_report(series, reference, points, degree,
                                   match_tol, mismatch_tol, power_law=True)


# ---------------------------------------------------------------------------
# boundary inequality

@dataclass
class BoundaryReport:
    verdict: str             # "equality" | "violated" | "inconclusive"
    max_residual: float
    witness: np.ndarray | None
    tol: float

    def as_dict(self) -> dict:
        out = {"verdict": self.verdict, "max_residual": self.max_residual,
               "tol": self.tol}
        if self.witness is not None:
            out["witness"] = jsonio.cpoint(self.witness)
        return out


def boundary_inequality_check(p: Weight, mu: float, samples,
                              tol: float = 1e-10) -> BoundaryReport:
    """Evaluate g(z) = p(z) exp(mu |z|^2) against p(0) over the samples.

    Translation automorphisms force g <= p(0) on the boundary and, with a
    maximum principle, g = p(0) throughout.  Verdicts: Equality when
    max |g - p(0)| <= tol * p(0); Violated with a witness when g exceeds
    p(0) (1 + tol) anywhere; Inconclusive when g only dips below.
    """
    if p.base.bounded:
        raise ValueError("the boundary inequality is posed on C^n")
    n = p.base.dim
    p0 = weight_eval(p, np.zeros(n, dtype=complex))
    worst = 0.0
    violated_at = None
    violated_amt = 0.0
    for z in samples:
        z = as_point(z, n)
        g = weight_eval(p, z) * math.exp(mu * float(np.sum(np.abs(z) ** 2)))
        worst = max(worst, abs(g - p0))
        if g > p0 * (1.0 + tol) and g - p0 > violated_amt:
            violated_amt = g - p0
            violated_at = z
    if violated_at is not None:
        return BoundaryReport("violated", worst, violated_at, tol)
    if worst <= tol * p0:
        return BoundaryReport("equality", worst, None, tol)
    return BoundaryReport("inconclusive", worst, None, tol)


# ---------------------------------------------------------------------------
# the family condition

@dataclass
class FamilyMapRecord:
    z0: np.ndarray
    jacobian_sq: float
    kernel_diag: float
    ratio: float
    fiber_zero_defect: float

    def as_dict(self) -> dict:
        return {"z0": jsonio.cpoint(self.z0), "jacobian_sq": self.jacobian_sq,
                "kernel_diag": self.kernel_diag, "ratio": self.ratio,
                "fiber_zero_defect": self.fiber_zero_defect}


@dataclass
class FamilyConditionReport:
    passed: bool
    constant: float
    max_relative_deviation: float
    max_fiber_zero_defect: float
    degree: int
    identity: str
    maps: list[FamilyMapRecord] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"passed": self.passed, "constant": self.constant,
                "max_relative_deviation": self.max_relative_deviation,
                "max_fiber_zero_defect": self.max_fiber_zero_defect,
                "degree": self.degree, "identity": self.identity,
                "maps": [m.as_dict() for m in self.maps]}


# sampled base points on which each map must keep the zero section
_FIBER_CHECKS = 5


def family_condition_check(domain: HartogsDomain,
                           maps: list[AutomorphismSpec], degree: int, *,
                           tol: float = 1e-9,
                           seed: int = 0) -> FamilyConditionReport:
    """Check the shared-constant Jacobian/kernel condition over a map family.

    Each map must preserve the zero section (its fiber component vanishes
    at zeta = 0; verified on sampled base points) and send its base point
    z0 = phi^(-1)(0) to the origin.  The condition verified at rank d is

        |J(phi, (z0, 0))|^2 = const * K_{D, p^m}(z0, z0)

    with one constant across the whole family, fitted on the first map.
    With the base transitivity this transports the kernel power law to
    every base point, which is what the uniqueness argument consumes.
    """
    if not maps:
        raise ValueError("need at least one map")
    m = domain.fiber_dim
    series = kernel_from_gram(gram_auto(domain.weight.pow(m), degree))

    rng = np.random.default_rng(seed)
    n = domain.base.dim
    # per point the real parts, then the imaginary parts
    draws = rng.uniform(-0.3, 0.3, (_FIBER_CHECKS, 2, n))
    check_pts = draws[:, 0] + 1j * draws[:, 1]
    zero_fibers = np.zeros((_FIBER_CHECKS, m), dtype=complex)

    validated = []
    worst_fiber = 0.0
    for aut in maps:
        if aut.target != domain:
            raise ValueError("map does not act on the supplied Hartogs domain")
        _, zeta_img = apply_map(aut, (check_pts, zero_fibers))
        fiber_defect = float(np.max(np.abs(zeta_img)))
        worst_fiber = max(worst_fiber, fiber_defect)

        z0 = zero_preimage(aut)
        img = base_apply(aut, z0)
        if float(np.max(np.abs(img))) > 1e-10:
            raise ValueError("map fails to send its base point to the origin")
        jac2 = abs(jacobian_base_slice(aut, z0)) ** 2
        validated.append((z0, jac2, fiber_defect))

    kdiags = series.diagonal([z0 for z0, _, _ in validated]).tolist()
    records = []
    const = None
    worst = 0.0
    for (z0, jac2, fiber_defect), kdiag in zip(validated, kdiags):
        ratio = jac2 / kdiag
        if const is None:
            const = ratio
        worst = max(worst, abs(ratio / const - 1.0))
        records.append(FamilyMapRecord(z0, float(jac2), float(kdiag),
                                       float(ratio), float(fiber_defect)))

    passed = worst <= tol and worst_fiber <= 1e-12
    return FamilyConditionReport(
        passed, float(const), float(worst), float(worst_fiber), degree,
        "|J(phi,(z0,0))|^2 = const * K_{D,p^m}(z0,z0), phi_1(z0) = 0, "
        "phi_2(z,0) = 0", records)
