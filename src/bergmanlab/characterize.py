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
  to every base point.  A family entry may be a stack of k maps (see
  ``automorphisms``), checked in one pass of array evaluations.

Every verdict is a statement at truncation rank d and carries d in its
report; no claim is made beyond the computed rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from numpy.polynomial import laguerre, legendre

from .core import (
    DomainKind,
    PolynomialRadial,
    RadialProfile,
    Weight,
    as_points,
    per_entry,
    sample_ball,
    sample_cube,
    weight_eval,
)
from .moments import RadialGram, gram_auto
from .kernels import FockKernel, KernelModel, PowerKernel, kernel_from_gram
from . import jsonio

if TYPE_CHECKING:
    # family_condition_check imports the maps when it runs, so the other
    # verdicts load neither module
    from .automorphisms import AutomorphismSpec
    from .hartogs import HartogsDomain


# ---------------------------------------------------------------------------
# moment tables and mismatch

def moment_table(weight: Weight, degree: int) -> RadialGram:
    """Gram matrix of the weight, closed-form when available; a weight of
    non-positive mass is refused."""
    gram = gram_auto(weight, degree)
    if gram.diagonal[0] <= 0:
        raise ValueError("weight has non-positive mass")
    return gram


@dataclass
class MismatchResult:
    difference: np.ndarray      # the diagonal of the difference matrix
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
    certified discrepancy witness.  Both tables are diagonal, so the
    difference is that of their diagonals.
    """
    if w1.base != w2.base:
        raise ValueError("weights live on different base domains")
    t1 = moment_table(w1, degree)
    t2 = moment_table(w2, degree)
    diff = t1.diagonal - t2.diagonal
    return MismatchResult(diff, float(np.linalg.norm(diff)),
                          float(np.max(np.abs(diff))), degree)


# ---------------------------------------------------------------------------
# radial moment inversion

def _profile_from_coeffs(basis: str, coefficients, t):
    t = np.asarray(t, dtype=float)
    if basis == "shifted_legendre":
        return legendre.legval(2.0 * t - 1.0, coefficients)
    return laguerre.lagval(t, coefficients) * np.exp(-t)


@dataclass
class RecoveredWeight:
    basis: str
    coefficients: np.ndarray
    weight: Weight
    residual: float
    condition: float


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


# coefficient arithmetic on plain arrays, each step as the numpy.polynomial
# helper it stands for computes it: polyadd, polysub and polymul, each
# trimming the trailing zeros of its result (polyutils.trimseq)

def _coef_trim(c: np.ndarray) -> np.ndarray:
    nonzero = np.flatnonzero(c)
    return c[:nonzero[-1] + 1] if nonzero.size else c[:1]


def _coef_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) > len(b):
        a, b = b, a
    out = b.copy()
    out[:len(a)] += a
    return _coef_trim(out)


def _coef_sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) > len(b):
        out = a.copy()
        out[:len(b)] -= b
    else:
        out = -b
        out[:len(a)] += a
    return _coef_trim(out)


def _coef_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _coef_trim(np.convolve(a, b))


def _legendre_to_monomial(coeffs: np.ndarray) -> np.ndarray:
    """Monomial coefficients in t of sum_j coeffs[j] P_j(2t - 1).

    The Clenshaw recursion of ``legendre.legval`` at x = 2t - 1 on
    coefficient arrays, with the operations ``Legendre(coeffs, domain=[0,
    1]).convert(kind=Polynomial)`` performs in the same order, so the
    result is that conversion's ``coef`` bit for bit and length for length.
    """
    c = np.array(coeffs, dtype=float, ndmin=1)
    x = np.array([-1.0, 2.0])
    if len(c) <= 2:
        c0, c1 = c[:1], c[1:] if len(c) == 2 else np.zeros(1)
    else:
        # the step of coefficient k: c0 <- c_k - c1 (k+1)/(k+2) and
        # c1 <- c0 + c1 x (2k+3)/(k+2); legval takes the first one on
        # scalars, the later ones on series
        k = len(c) - 3
        c0 = c[k:k + 1] - c[-1] * ((k + 1) / (k + 2))
        c1 = _coef_add(c[k + 1:k + 2], _coef_mul(_coef_mul(c[-1:], x),
                                                 [(2 * k + 3) / (k + 2)]))
        for k in range(k - 1, -1, -1):
            c0, c1 = (_coef_sub(c[k:k + 1], _coef_mul(c1, [(k + 1) / (k + 2)])),
                      _coef_add(c0, _coef_mul(_coef_mul(c1, x),
                                              [(2 * k + 3) / (k + 2)])))
    return _coef_add(c0, _coef_mul(c1, x))


# condition number of the unridged moment system above which recovery
# refuses and asks for a ridge parameter
_CONDITION_LIMIT = 1e12


def recover_weight(table: RadialGram, ridge: float = 0.0) -> RecoveredWeight:
    """Invert the diagonal (radial) moment sequence m_k = <z^k, z^k>.

    One complex variable only.  The profile is expanded in the base's own
    basis, shifted Legendre polynomials on [0, 1] (bounded base) or Laguerre
    functions L_j(t) e^(-t) on [0, inf) (C^1), and fitted by least squares
    with optional ridge damping; with ridge = 0 a well-conditioned system
    reproduces polynomial profiles of degree <= d exactly.
    """
    base = table.domain
    if base.dim != 1:
        raise ValueError("radial moment recovery is wired for n = 1")
    basis = "shifted_legendre" if base.bounded else "laguerre"

    d = table.degree
    m = table.diagonal
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


# a characterization matches when the worst relative deviation from
# c * model is at most MATCH_TOL, mismatches when it exceeds MISMATCH_TOL,
# and is inconclusive in between
MATCH_TOL = 1e-8
MISMATCH_TOL = 1e-6


@dataclass
class CharacterizationReport:
    verdict: str             # "match" | "mismatch" | "inconclusive"
    c: float | None
    degree: int
    max_deviation: float
    checks: list[SubCheck] = field(default_factory=list)
    witness: tuple | None = None

    def as_dict(self) -> dict:
        out = {"verdict": self.verdict, "c": self.c, "degree": self.degree,
               "max_deviation": self.max_deviation,
               "match_tol": MATCH_TOL, "mismatch_tol": MISMATCH_TOL,
               "checks": [c.as_dict() for c in self.checks]}
        if self.witness is not None:
            z, w = self.witness
            out["witness"] = {"z": jsonio.cpoint(z), "w": jsonio.cpoint(w)}
        return out


# most sample points of a characterize verdict: its kernels and deviations
# are npts x npts grids, 16 MiB each at this size
MAX_NPTS = 1024


def _sample_points(n: int, rmax: float, npts: int, seed: int) -> np.ndarray:
    """The origin, then npts - 1 seeded draws from the ball of radius rmax
    in C^n; npts above ``MAX_NPTS`` is refused before anything is drawn.
    c is fitted at the origin, so a verdict needs a point besides it:
    npts < 2 and rmax <= 0 are refused, as every deviation would be 0 by
    construction."""
    if npts > MAX_NPTS:
        raise ValueError(f"npts = {npts} exceeds MAX_NPTS = {MAX_NPTS}: the "
                         "verdict tables its kernels over npts x npts pairs")
    if npts < 2:
        raise ValueError(f"npts = {npts} leaves the origin, where c is "
                         "fitted, as the only sample point, so every "
                         "deviation is 0 by construction; npts must be >= 2")
    if not rmax > 0:
        raise ValueError(f"rmax = {rmax!r} puts every sample point at the "
                         "origin, where c is fitted, so every deviation is 0 "
                         "by construction; rmax must be > 0")
    rng = np.random.default_rng(seed)
    return np.concatenate([np.zeros((1, n), dtype=complex),
                           sample_ball(rng, n, rmax, npts - 1)])


def _proportionality_report(series: KernelModel, reference, points,
                            degree: int, power_law: bool = False
                            ) -> CharacterizationReport:
    """Worst relative deviation of K from c R over all pairs of points, c
    fitted at points[0] = 0.  ``power_law`` adds K(z, z) = K(0, 0) R(z, z),
    the generic-norm power law, read off the same grids as R(0, 0) = 1.

    With c = m 2^e (``math.frexp``) the deviation is |K 2^-e - m R|/|m R|:
    scaling by 2^-e is exact, so c R need not be representable, and a
    deviation that is a normal float has the bits of |K - c R|/|c R|."""
    with np.errstate(all="ignore"):    # refused by name below instead
        K = series.eval_grid(points, points)
        R = reference.eval_grid(points, points)
        c = K[0, 0].real / R[0, 0].real
        m, e = math.frexp(c)
        dev = np.abs(K * np.ldexp(1.0, -e) - m * R) / np.abs(m * R)
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

    if worst <= MATCH_TOL:
        verdict = "match"
    elif worst > MISMATCH_TOL:
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
        # K(0, 0) = m 2^e as for c
        m, e = math.frexp(K[0, 0].real)
        lhs = K.diagonal().real * np.ldexp(1.0, -e)
        rhs = m * R.diagonal().real
        checks.append(SubCheck(
            "diagonal_power_law",
            "K_q^m(z0,z0) = K_q^m(0,0) * N(z0,z0)^(-m*mu-g)",
            float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))))
    return CharacterizationReport(verdict, float(c), degree, float(worst),
                                  checks, None if verdict == "match"
                                  else (points[i], points[j]))


def characterize_fbh(p: Weight, m: int, mu: float, degree: int, *,
                     rmax: float | None = None, npts: int = 12, seed: int = 0
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
    points = _sample_points(p.base.dim, rmax, npts, seed)
    return _proportionality_report(series, reference, points, degree)


def characterize_ch(q: Weight, m: int, mu: float, degree: int, *,
                    rmax: float = 0.55, npts: int = 12, seed: int = 0
                    ) -> CharacterizationReport:
    """Does the weighted kernel of q^m match the generic-norm power model?

    Tests K_{q^m}(z, w) = c * N(z, w)^(-m mu - g) on a seeded sample of the
    bounded base, with the diagonal power law
    K(z0, z0) = K(0, 0) N(z0, z0)^(-m mu - g) reported as a named sub-check.
    rmax >= 1 is refused before the Gram is formed.
    """
    base = q.base
    if base.kind is not DomainKind.UNIT_BALL:
        raise ValueError("the generic-norm characterization needs disk/ball")
    if m < 1 or mu <= 0:
        raise ValueError("need m >= 1 and mu > 0")
    if not rmax < 1:
        raise ValueError(f"rmax = {rmax!r} lets sample points reach the "
                         "boundary of the unit ball, where the kernels blow "
                         "up, or leave it; rmax must be < 1")
    series = kernel_from_gram(gram_auto(q.pow(m), degree))
    reference = PowerKernel(base, m * mu)
    points = _sample_points(base.dim, rmax, npts, seed)
    return _proportionality_report(series, reference, points, degree,
                                   power_law=True)


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
    Z = as_points(samples, n)
    # as in float arithmetic, products overflow to inf; a finite exponent
    # whose exponential leaves the float range is refused by name, before
    # any weight is evaluated
    with np.errstate(over="ignore"):
        exponent = mu * np.sum(np.abs(Z) ** 2, axis=1)
        growth = np.exp(exponent)
    past = np.isinf(growth) & np.isfinite(exponent)
    if past.any():
        raise ValueError(f"--mu {mu!r} puts exp(mu |z|^2) past the float "
                         "range: the largest exponent mu max|z|^2 is "
                         f"{float(np.max(exponent[past])):.6g}, and exp "
                         "overflows above 709.78")
    p0 = weight_eval(p, np.zeros((1, n), dtype=complex))[0]
    with np.errstate(over="ignore"):
        g = weight_eval(p, Z) * growth
    excess = g - p0
    worst = float(np.max(np.abs(excess), initial=0.0))
    # the witness is the first sample of largest excess among the violations
    violations = (g > p0 * (1.0 + tol)) & (excess > 0.0)
    if violations.any():
        witness = Z[int(np.argmax(np.where(violations, excess, -np.inf)))]
        return BoundaryReport("violated", worst, witness, tol)
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


# sampled base points, drawn with seed 0, on which each map must keep the
# zero section
_FIBER_CHECKS = 5


def family_condition_check(domain: HartogsDomain,
                           maps: list[AutomorphismSpec], degree: int, *,
                           tol: float = 1e-9) -> FamilyConditionReport:
    """Check the shared-constant Jacobian/kernel condition over a map family.

    Each map must preserve the zero section (its fiber component vanishes
    at zeta = 0; verified on sampled base points) and send its base point
    z0 = phi^(-1)(0) to the origin.  The condition verified at rank d is

        |J(phi, (z0, 0))|^2 = const * K_{D, p^m}(z0, z0)

    with one constant across the whole family, fitted on the first map.
    With the base transitivity this transports the kernel power law to
    every base point, which is what the uniqueness argument consumes.

    An entry of ``maps`` is one map or a stack of k maps; each entry takes
    one ``apply``, one ``base_apply`` and one ``jacobian_base_slice`` over
    all its rows, and gives its k records in row order.
    """
    from .automorphisms import (apply as apply_map, base_apply,
                                jacobian_base_slice, repeat_rows,
                                zero_preimage)
    if not maps:
        raise ValueError("need at least one map")
    n, m = domain.base.dim, domain.fiber_dim
    series = kernel_from_gram(gram_auto(domain.weight.pow(m), degree))

    rng = np.random.default_rng(0)
    check_pts = sample_cube(rng, n, 0.3, _FIBER_CHECKS)

    z0s, jacs, fiber_defects = [], [], []
    for aut in maps:
        if aut.target != domain:
            raise ValueError("map does not act on the supplied Hartogs domain")
        z0 = zero_preimage(aut)
        k = len(z0)
        # every map meets every check point: row i of the repeated stack
        # maps check point i mod _FIBER_CHECKS
        _, zeta_img = apply_map(
            repeat_rows(aut, _FIBER_CHECKS),
            (np.tile(check_pts, (k, 1)),
             np.zeros((k * _FIBER_CHECKS, m), dtype=complex)))
        fiber_defects.append(np.max(np.abs(zeta_img).reshape(k, -1), axis=1))
        if np.max(np.abs(base_apply(aut, z0))) > 1e-10:
            raise ValueError("map fails to send its base point to the origin")
        jacs.append(jacobian_base_slice(aut, z0))
        z0s.append(z0)

    z0 = np.concatenate(z0s)
    fiber = np.concatenate(fiber_defects)
    jac2 = per_entry(lambda j: abs(j) ** 2, np.concatenate(jacs))
    kdiag = series.diagonal(z0)
    ratio = jac2 / kdiag
    const = ratio[0]
    worst = np.max(np.abs(ratio / const - 1.0))
    worst_fiber = np.max(fiber)
    records = list(map(FamilyMapRecord, z0, jac2.tolist(), kdiag.tolist(),
                       ratio.tolist(), fiber.tolist()))

    passed = bool(worst <= tol and worst_fiber <= 1e-12)
    return FamilyConditionReport(
        passed, float(const), float(worst), float(worst_fiber), degree,
        "|J(phi,(z0,0))|^2 = const * K_{D,p^m}(z0,z0), phi_1(z0) = 0, "
        "phi_2(z,0) = 0", records)
