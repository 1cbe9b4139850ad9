"""Automorphism generators of the supported Hartogs domains, their
analytic Jacobians, and the kernel transformation-law verifier.

Generators (all preserve the zero section {zeta = 0}):

* base and fiber unitaries (z, zeta) -> (U z, zeta), (z, U' zeta);
* Fock translations on Gaussian-weighted Hartogs domains over C^n,
  (z, zeta) -> (z - v, k_v(z) zeta) with k_v(z) = exp(mu <z,v> - mu|v|^2/2)
  the normalized Gaussian-space kernel;
* Moebius maps on generic-norm-weighted Hartogs domains over disk/ball,
  (z, zeta) -> (phi(z), U' * N(a,a)^(mu/2) / N(z,a)^mu * zeta) where phi is
  the base Moebius sending a to 0 ((z-a)/(1 - conj(a) z) on the disk B^1,
  the involutive exchange of 0 and a on the ball B^n, n > 1; at n = 1 that
  involution is the negative of the disk's map);
* finite compositions of the above.

The action, the fiber factors and the closed-form Jacobian determinants on
the zero section take one point or (k, dim) rows of points; one point is
the 1-row view of the same array expressions.  The Jacobians come with a
finite-difference oracle that also checks holomorphy via the Cauchy-Riemann
defect, so a buggy non-holomorphic map is detected rather than assumed away.

The transformation law K(x, y) = J(x) conj(J(y)) K(F x, F y), restricted to
the zero section, is evaluated through the fiber-restriction identity
K_Omega((z,0),(w,0)) = (m!/pi^m) K_{D, p^m}(z, w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DomainKind,
    GaussianPower,
    GenericNormPower,
    as_point,
    as_point_rows,
    as_points,
    contains,
    generic_norm,
    generic_norm_power,
    hermitian_inner,
    unit_disk,
)
from .hartogs import HartogsDomain
from . import jsonio

_UNITARY_TOL = 1e-12


def _check_unitary(U: np.ndarray, dim: int, what: str) -> np.ndarray:
    U = np.asarray(U, dtype=complex)
    if U.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}")
    defect = np.max(np.abs(U.conj().T @ U - np.eye(dim)))
    if defect > _UNITARY_TOL:
        raise ValueError(f"{what} is not unitary (defect {defect:.2e})")
    return U


def _gaussian_rate(domain: HartogsDomain) -> float:
    form = domain.weight.form
    if not isinstance(form, GaussianPower) or domain.base.bounded:
        raise ValueError("target is not a Gaussian-weighted Hartogs domain "
                         "over the full space")
    return form.mu * domain.weight.power_exponent


def _norm_power_rate(domain: HartogsDomain) -> float:
    form = domain.weight.form
    if not isinstance(form, GenericNormPower) or \
            domain.base.kind is not DomainKind.UNIT_BALL:
        raise ValueError("target is not a generic-norm-weighted Hartogs "
                         "domain over the disk or ball")
    return form.mu * domain.weight.power_exponent


@dataclass(frozen=True)
class BaseUnitary:
    target: HartogsDomain
    matrix: tuple

    def _U(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=complex)


@dataclass(frozen=True)
class FiberUnitary:
    target: HartogsDomain
    matrix: tuple

    def _U(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=complex)


@dataclass(frozen=True)
class FockTranslation:
    """(z, zeta) -> (z - v, k_v(z) zeta) with the Gaussian rate of the target."""

    target: HartogsDomain
    v: tuple
    mu: float

    def fiber_factor(self, z: np.ndarray):
        """k_v(z), one value per row of z."""
        v = np.asarray(self.v, dtype=complex)
        return np.exp(self.mu * hermitian_inner(z, v)
                      - 0.5 * self.mu * float(np.sum(np.abs(v) ** 2)))


@dataclass(frozen=True)
class MobiusMap:
    """Base Moebius phi with phi(a) = 0 plus the induced fiber factor."""

    target: HartogsDomain
    a: tuple
    mu: float
    fiber_unitary: tuple

    def _a(self) -> np.ndarray:
        return np.asarray(self.a, dtype=complex)

    def _U(self) -> np.ndarray:
        return np.asarray(self.fiber_unitary, dtype=complex)

    def fiber_factor(self, z: np.ndarray):
        """N(a,a)^(mu/2) N(z,a)^(-mu), one value per row of z."""
        a = self._a()
        base = self.target.base
        naa = generic_norm(base, a, a).real
        return naa ** (self.mu / 2.0) * generic_norm_power(base, z, a, -self.mu)

    def base_apply(self, z: np.ndarray) -> np.ndarray:
        """phi(z) for one point or each row of z."""
        a = self._a()
        base = self.target.base
        if np.all(a == 0):
            return z.copy()
        if base.dim == 1:
            return (z - a) / (1.0 - np.conj(a[0]) * z)
        # involutive ball Moebius exchanging 0 and a
        na2 = float(np.sum(np.abs(a) ** 2))
        s = math.sqrt(1.0 - na2)
        za = hermitian_inner(z, a)[..., None]
        Pz = (za / na2) * a
        Qz = z - Pz
        return (a - Pz - s * Qz) / (1.0 - za)

    def base_jacobian(self, z: np.ndarray):
        """det J(phi, z), one value per row of z."""
        a = self._a()
        base = self.target.base
        if np.all(a == 0):
            return np.ones(np.shape(z)[:-1], dtype=complex)
        if base.dim == 1:
            return ((1.0 - abs(a[0]) ** 2)
                    / (1.0 - np.conj(a[0]) * z[..., 0]) ** 2)
        n = base.dim
        na2 = float(np.sum(np.abs(a) ** 2))
        s = math.sqrt(1.0 - na2)
        return ((-1.0) ** n * s ** (n + 1)
                / (1.0 - hermitian_inner(z, a)) ** (n + 1))


@dataclass(frozen=True)
class Composite:
    target: HartogsDomain
    parts: tuple

    def __post_init__(self):
        for p in self.parts:
            if p.target != self.target:
                raise ValueError("composite parts must share one target domain")


AutomorphismSpec = BaseUnitary | FiberUnitary | FockTranslation | MobiusMap | Composite


# ---------------------------------------------------------------------------
# constructors

def make_fbh_map(domain: HartogsDomain, kind: str, *, v=None, matrix=None
                 ) -> AutomorphismSpec:
    """Generators of Gaussian-weighted Hartogs domains over C^n.

    ``kind`` is "translation" (needs v), "base_unitary" or "fiber_unitary"
    (need matrix).  The translation's fiber factor is the normalized
    Gaussian-space kernel k_v at the weight's decay rate.
    """
    mu = _gaussian_rate(domain)
    if kind == "translation":
        vv = as_point(v, domain.base.dim)
        return FockTranslation(domain, tuple(vv), mu)
    if kind == "base_unitary":
        U = _check_unitary(matrix, domain.base.dim, "base unitary")
        return BaseUnitary(domain, tuple(map(tuple, U)))
    if kind == "fiber_unitary":
        U = _check_unitary(matrix, domain.fiber_dim, "fiber unitary")
        return FiberUnitary(domain, tuple(map(tuple, U)))
    raise ValueError(f"unknown generator kind {kind!r}")


def make_ch_map(domain: HartogsDomain, a, fiber_unitary=None) -> MobiusMap:
    """Moebius generator of a generic-norm-weighted Hartogs domain.

    ``a`` is the interior base point sent to 0; the fiber unitary defaults
    to the identity.  The disk uses (z - a)/(1 - conj(a) z); the ball the
    standard involutive Moebius exchanging 0 and a.
    """
    mu = _norm_power_rate(domain)
    av = as_point(a, domain.base.dim)
    if contains(domain.base, av) >= 0:
        raise ValueError("Moebius center must be an interior base point")
    U = np.eye(domain.fiber_dim, dtype=complex) if fiber_unitary is None \
        else _check_unitary(fiber_unitary, domain.fiber_dim, "fiber unitary")
    return MobiusMap(domain, tuple(av), mu, tuple(map(tuple, U)))


def thullen_mobius(domain: HartogsDomain, a: complex) -> MobiusMap:
    """The disk specialization with one fiber dimension."""
    if domain.base != unit_disk() or domain.fiber_dim != 1:
        raise ValueError("Thullen maps live over the disk with fiber dim 1")
    return make_ch_map(domain, [a])


# ---------------------------------------------------------------------------
# action, inverses, base points

def apply(aut: AutomorphismSpec, point) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the map at (z, zeta); composites apply left to right.

    z and zeta are one point each, or (k, n) and (k, m) rows of points
    mapped at once; one point is the 1-row view of the same expressions.
    """
    z, zeta = point
    Z, one = as_point_rows(z, aut.target.base.dim)
    ZETA, _ = as_point_rows(zeta, aut.target.fiber_dim)
    if isinstance(aut, BaseUnitary):
        out = Z @ aut._U().T, ZETA.copy()
    elif isinstance(aut, FiberUnitary):
        out = Z.copy(), ZETA @ aut._U().T
    elif isinstance(aut, FockTranslation):
        out = (Z - np.asarray(aut.v, dtype=complex),
               aut.fiber_factor(Z)[:, None] * ZETA)
    elif isinstance(aut, MobiusMap):
        out = (aut.base_apply(Z),
               aut.fiber_factor(Z)[:, None] * (ZETA @ aut._U().T))
    elif isinstance(aut, Composite):
        out = Z, ZETA
        for part in aut.parts:
            out = apply(part, out)
    else:
        raise TypeError(f"unknown automorphism {aut!r}")
    return (out[0][0], out[1][0]) if one else out


def base_apply(aut: AutomorphismSpec, z) -> np.ndarray:
    """The base component of the action (the zero section is preserved),
    at one point or each row of z."""
    Z, one = as_point_rows(z, aut.target.base.dim)
    out, _ = apply(aut, (Z, np.zeros((len(Z), aut.target.fiber_dim),
                                     dtype=complex)))
    return out[0] if one else out


def inverse(aut: AutomorphismSpec) -> AutomorphismSpec:
    """Exact algebraic inverse of a generator or composite."""
    if isinstance(aut, BaseUnitary):
        return BaseUnitary(aut.target, tuple(map(tuple, aut._U().conj().T)))
    if isinstance(aut, FiberUnitary):
        return FiberUnitary(aut.target, tuple(map(tuple, aut._U().conj().T)))
    if isinstance(aut, FockTranslation):
        return FockTranslation(aut.target,
                               tuple(-np.asarray(aut.v, dtype=complex)), aut.mu)
    if isinstance(aut, MobiusMap):
        Uinv = tuple(map(tuple, aut._U().conj().T))
        if aut.target.base.dim == 1:
            return MobiusMap(aut.target,
                             tuple(-np.asarray(aut.a, dtype=complex)),
                             aut.mu, Uinv)
        return MobiusMap(aut.target, aut.a, aut.mu, Uinv)
    if isinstance(aut, Composite):
        return Composite(aut.target, tuple(inverse(p) for p in reversed(aut.parts)))
    raise TypeError(f"unknown automorphism {aut!r}")


def zero_preimage(aut: AutomorphismSpec) -> np.ndarray:
    """The base point z0 with phi_1(z0) = 0."""
    n = aut.target.base.dim
    if isinstance(aut, (BaseUnitary, FiberUnitary)):
        return np.zeros(n, dtype=complex)
    if isinstance(aut, FockTranslation):
        return np.asarray(aut.v, dtype=complex)
    if isinstance(aut, MobiusMap):
        return np.asarray(aut.a, dtype=complex)
    if isinstance(aut, Composite):
        return base_apply(inverse(aut), np.zeros(n, dtype=complex))
    raise TypeError(f"unknown automorphism {aut!r}")


# ---------------------------------------------------------------------------
# Jacobians

def jacobian_base_slice(aut: AutomorphismSpec, z):
    """Closed-form full Jacobian determinant at (z, 0), one value per row
    of z (a complex number for one point).

    Unitaries contribute det U; translations k_v(z)^m; Moebius maps
    N(a,a)^(m mu/2) N(z,a)^(-m mu) det J(phi, z) det U'.  Composites chain
    through the base orbit, which is valid because every generator fixes
    the zero section with a fiber block linear in zeta.
    """
    Z, one = as_point_rows(z, aut.target.base.dim)
    m = aut.target.fiber_dim
    if isinstance(aut, (BaseUnitary, FiberUnitary)):
        jac = np.full(len(Z), complex(np.linalg.det(aut._U())))
    elif isinstance(aut, FockTranslation):
        jac = aut.fiber_factor(Z) ** m
    elif isinstance(aut, MobiusMap):
        detU = complex(np.linalg.det(aut._U()))
        jac = aut.fiber_factor(Z) ** m * aut.base_jacobian(Z) * detU
    elif isinstance(aut, Composite):
        jac = np.ones(len(Z), dtype=complex)
        for part in aut.parts:
            jac = jac * jacobian_base_slice(part, Z)
            Z = base_apply(part, Z)
    else:
        raise TypeError(f"unknown automorphism {aut!r}")
    return complex(jac[0]) if one else jac


def jacobian_fd_matrix(aut: AutomorphismSpec, point, h: float = 1e-5):
    """Central finite-difference holomorphic Jacobian of the full map.

    Returns the (n+m) x (n+m) matrix of dF_i/dx_j and the largest
    Cauchy-Riemann defect |dF/d conj(x)| seen; a defect above 1e-6 raises,
    because it means the map under test is not holomorphic.  For (k, n)
    and (k, m) rows of points it returns k matrices and k defects.  The
    4 (n+m) steps +-h, +-ih along each coordinate of every point go through
    one ``apply``.
    """
    z, zeta = point
    Z, one = as_point_rows(z, aut.target.base.dim)
    ZETA, _ = as_point_rows(zeta, aut.target.fiber_dim)
    X0 = np.concatenate([Z, ZETA], axis=1)
    n = aut.target.base.dim
    count, dim = X0.shape

    if aut.target.base.bounded and (contains(aut.target.base, Z) > -4.0 * h).any():
        raise ValueError("step too large for the domain margin at this point")

    E = np.eye(dim, dtype=complex)
    steps = np.concatenate([h * E, -h * E, 1j * h * E, -1j * h * E])
    X = (X0[:, None, :] + steps).reshape(-1, dim)
    out_z, out_zeta = apply(aut, (X[:, :n], X[:, n:]))
    # F[p, s, j] is the image of point p under step s along coordinate j
    F = np.concatenate([out_z, out_zeta], axis=1).reshape(count, 4, dim, dim)
    dx = (F[:, 0] - F[:, 1]) / (2.0 * h)
    dy = (F[:, 2] - F[:, 3]) / (2.0 * h)
    J = ((dx - 1j * dy) / 2.0).swapaxes(1, 2)
    cr_defect = np.max(np.abs((dx + 1j * dy) / 2.0), axis=(1, 2))
    if (cr_defect > 1e-6).any():
        raise ValueError(f"map is not holomorphic: CR defect "
                         f"{cr_defect.max():.2e}")
    return (J[0], float(cr_defect[0])) if one else (J, cr_defect)


def jacobian_fd(aut: AutomorphismSpec, point, h: float = 1e-5) -> complex:
    """Finite-difference determinant oracle for jacobian_base_slice."""
    J, _ = jacobian_fd_matrix(aut, point, h)
    return complex(np.linalg.det(J))


# ---------------------------------------------------------------------------
# transformation law

def transform_residual(aut: AutomorphismSpec, slice_kernel, points) -> float:
    """Max relative residual of the transformation law on the zero section.

    ``slice_kernel`` is a kernel model of K_{D, p^m}(z, w); through the
    fiber-restriction identity this determines the Hartogs kernel at zero
    fiber, so the law reads

        K(z, w) = J(z) conj(J(w)) K(phi(z), phi(w))

    with J the full Jacobian determinant at (z, 0).  The residual is
    maximized over all ordered pairs of the supplied base points, from one
    kernel grid over the points and one over their images; pairs where
    |K(z, w)| < 1e-300 are skipped.
    """
    m = aut.target.fiber_dim
    c = math.factorial(m) / math.pi ** m
    pts = as_points(points, aut.target.base.dim)
    jacs = jacobian_base_slice(aut, pts)
    imgs = base_apply(aut, pts)
    lhs = c * slice_kernel.eval_grid(pts, pts)
    rhs = np.outer(jacs, jacs.conj()) * c * slice_kernel.eval_grid(imgs, imgs)
    denom = np.abs(lhs)
    keep = denom >= 1e-300
    if not np.any(keep):
        return 0.0
    return float(np.max(np.abs(lhs - rhs)[keep] / denom[keep]))


# ---------------------------------------------------------------------------
# serialization

def map_to_json(aut: AutomorphismSpec) -> dict:
    if isinstance(aut, BaseUnitary):
        return {"kind": "base_unitary", "matrix": jsonio.cmatrix(aut._U())}
    if isinstance(aut, FiberUnitary):
        return {"kind": "fiber_unitary", "matrix": jsonio.cmatrix(aut._U())}
    if isinstance(aut, FockTranslation):
        return {"kind": "translation", "v": jsonio.cpoint(np.asarray(aut.v)),
                "mu": aut.mu}
    if isinstance(aut, MobiusMap):
        return {"kind": "mobius", "a": jsonio.cpoint(np.asarray(aut.a)),
                "mu": aut.mu, "fiber_unitary": jsonio.cmatrix(aut._U())}
    if isinstance(aut, Composite):
        return {"kind": "composite", "parts": [map_to_json(p) for p in aut.parts]}
    raise TypeError(f"unknown automorphism {aut!r}")


# the fields each map kind reads besides "kind"
_MAP_FIELDS = {
    "base_unitary": ("matrix",),
    "fiber_unitary": ("matrix",),
    "translation": ("v", "mu"),
    "mobius": ("a", "mu", "fiber_unitary"),
    "composite": ("parts",),
}


def map_from_json(obj: dict, domain: HartogsDomain) -> AutomorphismSpec:
    """The map that ``map_to_json`` wrote, on the given domain.  A
    translation or Moebius map takes its rate from the domain's weight, so
    a ``mu`` field other than that rate is refused, and so is a field that
    the map's kind does not read."""
    kind = obj["kind"]
    n, m = domain.base.dim, domain.fiber_dim
    if kind not in _MAP_FIELDS:
        raise ValueError(f"unknown map kind {kind!r}")
    unread = sorted(set(obj) - {"kind", *_MAP_FIELDS[kind]})
    if unread:
        raise ValueError(f"{kind} map has the field(s) {', '.join(unread)}, "
                         f"which it does not read; it reads kind, "
                         f"{', '.join(_MAP_FIELDS[kind])}")

    def matrix(field: str, dim: int) -> np.ndarray:
        return jsonio.as_cmatrix(obj[field], (dim, dim),
                                 f"{kind} map field {field!r}")

    def point(field: str) -> np.ndarray:
        return jsonio.as_cpoint(obj[field], f"{kind} map field {field!r}")

    def with_rate(aut):
        mu = obj.get("mu", aut.mu)
        if type(mu) not in (int, float) or mu != aut.mu:
            raise ValueError(f"{kind} map field 'mu' is {mu!r}, but the "
                             f"weight's rate is {aut.mu!r}; give that rate "
                             "or leave the field out")
        return aut

    if kind == "base_unitary":
        U = _check_unitary(matrix("matrix", n), n, "base unitary")
        return BaseUnitary(domain, tuple(map(tuple, U)))
    if kind == "fiber_unitary":
        U = _check_unitary(matrix("matrix", m), m, "fiber unitary")
        return FiberUnitary(domain, tuple(map(tuple, U)))
    if kind == "translation":
        return with_rate(make_fbh_map(domain, "translation", v=point("v")))
    if kind == "mobius":
        U = matrix("fiber_unitary", m) if "fiber_unitary" in obj else None
        return with_rate(make_ch_map(domain, point("a"), U))
    return Composite(domain, tuple(map_from_json(p, domain)
                                   for p in obj["parts"]))
