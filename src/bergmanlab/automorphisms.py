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
the zero section take (k, dim) rows of points; a single point is one row.
The point parameter of a translation or Moebius map (``v`` or ``a``) holds
(k, n) rows, a stack of k maps: row i maps point row i, the pairing of
``hermitian_inner``, and one point row is mapped by each map row.  A
single map is a one-row stack, which maps every point row.  The rate, the
fiber unitary and the target are shared by the rows; composites and
``map_to_json`` take single maps only.  The Jacobians come with a
finite-difference oracle that also checks holomorphy via the
Cauchy-Riemann defect, so a buggy non-holomorphic map is detected rather
than assumed away.

The transformation law K(x, y) = J(x) conj(J(y)) K(F x, F y), restricted to
the zero section, is evaluated through the fiber-restriction identity
K_Omega((z,0),(w,0)) = (m!/pi^m) K_{D, p^m}(z, w).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DomainKind,
    GaussianPower,
    GenericNormPower,
    as_points,
    contains,
    generic_norm,
    generic_norm_power,
    hermitian_inner,
    per_entry,
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


def _param(rows: np.ndarray) -> tuple:
    """The frozen form of a point parameter's (k, n) rows."""
    return tuple(map(tuple, rows))


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
    """(z, zeta) -> (z - v, k_v(z) zeta) with the Gaussian rate of the
    target; v of shape (k, n) is a stack of k translations."""

    target: HartogsDomain
    v: tuple
    mu: float

    def _v(self) -> np.ndarray:
        return np.asarray(self.v, dtype=complex)

    def fiber_factor(self, z: np.ndarray):
        """k_v(z), one value per row of z (and of v)."""
        v = self._v()
        return np.exp(self.mu * hermitian_inner(z, v)
                      - 0.5 * self.mu * np.sum(np.abs(v) ** 2, axis=-1))


@dataclass(frozen=True)
class MobiusMap:
    """Base Moebius phi with phi(a) = 0 plus the induced fiber factor; a of
    shape (k, n) is a stack of k maps, and a row a = 0 is the identity."""

    target: HartogsDomain
    a: tuple
    mu: float
    fiber_unitary: tuple

    def _a(self) -> np.ndarray:
        return np.asarray(self.a, dtype=complex)

    def _U(self) -> np.ndarray:
        return np.asarray(self.fiber_unitary, dtype=complex)

    def fiber_factor(self, z: np.ndarray):
        """N(a,a)^(mu/2) N(z,a)^(-mu), one value per row of z (and of a)."""
        a = self._a()
        base = self.target.base
        naa = generic_norm(base, a, a).real
        return (per_entry(lambda t: t ** (self.mu / 2.0), naa)
                * generic_norm_power(base, z, a, -self.mu))

    def base_apply(self, z: np.ndarray) -> np.ndarray:
        """phi(z) for each row of z; z itself where a = 0."""
        a = self._a()
        identity = ~np.any(a, axis=-1)[..., None]
        if self.target.base.dim == 1:
            return np.where(identity, z, (z - a) / (1.0 - np.conj(a) * z))
        # involutive ball Moebius exchanging 0 and a; na2 = 1 on identity
        # rows keeps their discarded value finite
        na2 = np.sum(np.abs(a) ** 2, axis=-1)[..., None]
        s = np.sqrt(1.0 - na2)
        za = hermitian_inner(z, a)[..., None]
        Pz = (za / np.where(identity, 1.0, na2)) * a
        Qz = z - Pz
        return np.where(identity, z, (a - Pz - s * Qz) / (1.0 - za))

    def base_jacobian(self, z: np.ndarray):
        """det J(phi, z), one value per row of z; 1 where a = 0."""
        a = self._a()
        n = self.target.base.dim
        identity = ~np.any(a, axis=-1)
        if n == 1:
            det = (per_entry(lambda t: 1.0 - abs(t) ** 2, a[..., 0])
                   / (1.0 - np.conj(a[..., 0]) * z[..., 0]) ** 2)
        else:
            s = np.sqrt(1.0 - np.sum(np.abs(a) ** 2, axis=-1))
            det = (per_entry(lambda t: (-1.0) ** n * t ** (n + 1), s)
                   / (1.0 - hermitian_inner(z, a)) ** (n + 1))
        return np.where(identity, 1.0 + 0j, det)


@dataclass(frozen=True)
class Composite:
    target: HartogsDomain
    parts: tuple

    def __post_init__(self):
        for i, p in enumerate(self.parts):
            if p.target != self.target:
                raise ValueError("composite parts must share one target domain")
            if stack_rows(p) > 1:
                raise ValueError(f"composite part {i} is a stack of "
                                 f"{stack_rows(p)} {type(p).__name__} rows; "
                                 "a composite takes single maps")


AutomorphismSpec = BaseUnitary | FiberUnitary | FockTranslation | MobiusMap | Composite


def stack_rows(aut: AutomorphismSpec) -> int:
    """k for a translation or Moebius map whose point parameter holds k
    rows (a stack of k maps), 1 for a single map, a unitary or a
    composite."""
    if isinstance(aut, FockTranslation):
        return len(aut.v)
    if isinstance(aut, MobiusMap):
        return len(aut.a)
    return 1


def repeat_rows(aut: AutomorphismSpec, count: int) -> AutomorphismSpec:
    """The stack with each row repeated count times in place, so that its
    k maps meet count points each as k * count row pairs; a single map,
    which maps every row, as it is."""
    if stack_rows(aut) == 1:
        return aut
    if isinstance(aut, FockTranslation):
        return FockTranslation(aut.target,
                               _param(np.repeat(aut._v(), count, axis=0)),
                               aut.mu)
    return MobiusMap(aut.target, _param(np.repeat(aut._a(), count, axis=0)),
                     aut.mu, aut.fiber_unitary)


# ---------------------------------------------------------------------------
# constructors

def _point_param(p, dim: int, what: str) -> np.ndarray:
    """A generator's point parameter: (k, dim) rows standing for k maps,
    each row checked and a bad one named."""
    rows = np.asarray(p, dtype=complex)
    if rows.ndim != 2 or rows.shape[1] != dim or not len(rows):
        raise ValueError(f"{what} rows must have shape (k, {dim}) with "
                         f"k >= 1, got shape {rows.shape}")
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise ValueError(f"{what} row {int(np.argmax(bad))} has non-finite "
                         "entries")
    return rows


def make_fbh_map(domain: HartogsDomain, kind: str, *, v=None, matrix=None
                 ) -> AutomorphismSpec:
    """Generators of Gaussian-weighted Hartogs domains over C^n.

    ``kind`` is "translation" (needs v: (k, n) rows for a stack of k
    translations, one row for one), "base_unitary" or "fiber_unitary" (need
    matrix).  The translation's fiber factor is the normalized
    Gaussian-space kernel k_v at the weight's decay rate.
    """
    mu = _gaussian_rate(domain)
    if kind == "translation":
        vv = _point_param(v, domain.base.dim, "translation")
        return FockTranslation(domain, _param(vv), mu)
    if kind == "base_unitary":
        U = _check_unitary(matrix, domain.base.dim, "base unitary")
        return BaseUnitary(domain, tuple(map(tuple, U)))
    if kind == "fiber_unitary":
        U = _check_unitary(matrix, domain.fiber_dim, "fiber unitary")
        return FiberUnitary(domain, tuple(map(tuple, U)))
    raise ValueError(f"unknown generator kind {kind!r}")


def make_ch_map(domain: HartogsDomain, a, fiber_unitary=None) -> MobiusMap:
    """Moebius generator of a generic-norm-weighted Hartogs domain.

    ``a`` holds (k, n) rows of interior base points sent to 0, one row for
    one map and k for a stack of k maps; the fiber unitary, shared by the
    rows, defaults to the identity.  The disk uses (z - a)/(1 - conj(a) z); the ball the
    standard involutive Moebius exchanging 0 and a.
    """
    mu = _norm_power_rate(domain)
    av = _point_param(a, domain.base.dim, "Moebius center")
    outside = np.flatnonzero(contains(domain.base, av) >= 0)
    if outside.size:
        row = f" row {outside[0]}" if len(av) > 1 else ""
        raise ValueError(f"Moebius center{row} must be an interior base point")
    U = np.eye(domain.fiber_dim, dtype=complex) if fiber_unitary is None \
        else _check_unitary(fiber_unitary, domain.fiber_dim, "fiber unitary")
    return MobiusMap(domain, _param(av), mu, tuple(map(tuple, U)))


def thullen_mobius(domain: HartogsDomain, a) -> MobiusMap:
    """The disk specialization with one fiber dimension; ``a`` holds k
    complex centers for a stack of k maps, one for one map."""
    if domain.base != unit_disk() or domain.fiber_dim != 1:
        raise ValueError("Thullen maps live over the disk with fiber dim 1")
    return make_ch_map(domain, np.reshape(a, (-1, 1)))


# ---------------------------------------------------------------------------
# action, inverses, base points

def _rows(aut: AutomorphismSpec, z) -> np.ndarray:
    """``as_points`` for the map's base: a stack of k > 1 maps takes k
    point rows or one."""
    Z = as_points(z, aut.target.base.dim)
    k = stack_rows(aut)
    if k > 1 and len(Z) not in (1, k):
        raise ValueError(f"a stack of {k} maps takes {k} point rows or one, "
                         f"not {len(Z)} rows")
    return Z


def _rows_by(A: np.ndarray, U: np.ndarray) -> np.ndarray:
    """A @ U.T for point rows A, summed over j in one fixed order of real
    products: a matrix product rounds a row differently alone than inside a
    stack, and this sum maps every row the same way."""
    parts = [(A.real[:, j, None], A.imag[:, j, None], U.real[:, j],
              U.imag[:, j]) for j in range(U.shape[1])]
    out = np.empty((len(A), len(U)), dtype=complex)
    out.real = functools.reduce(np.add, (a * c - b * d
                                         for a, b, c, d in parts))
    out.imag = functools.reduce(np.add, (a * d + b * c
                                         for a, b, c, d in parts))
    return out


def _base_image(aut: AutomorphismSpec, Z: np.ndarray) -> np.ndarray:
    """phi_1 on point rows."""
    if isinstance(aut, BaseUnitary):
        return _rows_by(Z, aut._U())
    if isinstance(aut, FiberUnitary):
        return Z.copy()
    if isinstance(aut, FockTranslation):
        return Z - aut._v()
    if isinstance(aut, MobiusMap):
        return aut.base_apply(Z)
    if isinstance(aut, Composite):
        for part in aut.parts:
            Z = _base_image(part, Z)
        return Z
    raise TypeError(f"unknown automorphism {aut!r}")


def _fiber_image(aut: AutomorphismSpec, Z: np.ndarray, ZETA: np.ndarray):
    """phi_2 of a generator on point rows: its fiber block, linear in zeta."""
    if isinstance(aut, BaseUnitary):
        return ZETA.copy()
    if isinstance(aut, FiberUnitary):
        return _rows_by(ZETA, aut._U())
    if isinstance(aut, FockTranslation):
        return aut.fiber_factor(Z)[:, None] * ZETA
    if isinstance(aut, MobiusMap):
        return aut.fiber_factor(Z)[:, None] * _rows_by(ZETA, aut._U())
    raise TypeError(f"unknown automorphism {aut!r}")


def apply(aut: AutomorphismSpec, point) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the map at (z, zeta); composites apply left to right.

    z and zeta are (k, n) and (k, m) rows of points, mapped at once.  A
    stack maps point row i by its row i.
    """
    z, zeta = point
    Z = _rows(aut, z)
    ZETA = as_points(zeta, aut.target.fiber_dim)
    if isinstance(aut, Composite):
        out = Z, ZETA
        for part in aut.parts:
            out = apply(part, out)
        return out
    return _base_image(aut, Z), _fiber_image(aut, Z, ZETA)


def base_apply(aut: AutomorphismSpec, z) -> np.ndarray:
    """The base component of the action (the zero section is preserved),
    at each row of z; no fiber factor is formed."""
    return _base_image(aut, _rows(aut, z))


def inverse(aut: AutomorphismSpec) -> AutomorphismSpec:
    """Exact algebraic inverse of a generator or composite; of a stack, the
    stack of the row inverses."""
    if isinstance(aut, BaseUnitary):
        return BaseUnitary(aut.target, tuple(map(tuple, aut._U().conj().T)))
    if isinstance(aut, FiberUnitary):
        return FiberUnitary(aut.target, tuple(map(tuple, aut._U().conj().T)))
    if isinstance(aut, FockTranslation):
        return FockTranslation(aut.target, _param(-aut._v()), aut.mu)
    if isinstance(aut, MobiusMap):
        Uinv = tuple(map(tuple, aut._U().conj().T))
        if aut.target.base.dim == 1:
            return MobiusMap(aut.target, _param(-aut._a()), aut.mu, Uinv)
        return MobiusMap(aut.target, aut.a, aut.mu, Uinv)
    if isinstance(aut, Composite):
        return Composite(aut.target, tuple(inverse(p) for p in reversed(aut.parts)))
    raise TypeError(f"unknown automorphism {aut!r}")


def zero_preimage(aut: AutomorphismSpec) -> np.ndarray:
    """The base point z0 with phi_1(z0) = 0, one row per map row."""
    origin = np.zeros((1, aut.target.base.dim), dtype=complex)
    if isinstance(aut, (BaseUnitary, FiberUnitary)):
        return origin
    if isinstance(aut, FockTranslation):
        return aut._v()
    if isinstance(aut, MobiusMap):
        return aut._a()
    if isinstance(aut, Composite):
        return base_apply(inverse(aut), origin)
    raise TypeError(f"unknown automorphism {aut!r}")


# ---------------------------------------------------------------------------
# Jacobians

def jacobian_base_slice(aut: AutomorphismSpec, z):
    """Closed-form full Jacobian determinant at (z, 0), one value per row
    of z and, for a stack, per map row.

    Unitaries contribute det U; translations k_v(z)^m; Moebius maps
    N(a,a)^(m mu/2) N(z,a)^(-m mu) det J(phi, z) det U'.  Composites chain
    through the base orbit, which is valid because every generator fixes
    the zero section with a fiber block linear in zeta.
    """
    Z = _rows(aut, z)
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
            Z = _base_image(part, Z)
    else:
        raise TypeError(f"unknown automorphism {aut!r}")
    return jac


def jacobian_fd_matrix(aut: AutomorphismSpec, point, h: float = 1e-5):
    """Central finite-difference holomorphic Jacobian of the full map.

    For (k, n) and (k, m) rows of points it returns k (n+m) x (n+m)
    matrices of dF_i/dx_j and the k largest Cauchy-Riemann defects
    |dF/d conj(x)| seen; a defect above 1e-6 raises, because it means the
    map under test is not holomorphic.  The 4 (n+m) steps +-h, +-ih along
    each coordinate of every point go through one ``apply``.
    """
    z, zeta = point
    Z = as_points(z, aut.target.base.dim)
    ZETA = as_points(zeta, aut.target.fiber_dim)
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
    return J, cr_defect


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
    if stack_rows(aut) > 1:
        raise ValueError(f"map_to_json writes single maps; this is a stack "
                         f"of {stack_rows(aut)} {type(aut).__name__} rows")
    if isinstance(aut, BaseUnitary):
        return {"kind": "base_unitary", "matrix": jsonio.cmatrix(aut._U())}
    if isinstance(aut, FiberUnitary):
        return {"kind": "fiber_unitary", "matrix": jsonio.cmatrix(aut._U())}
    if isinstance(aut, FockTranslation):
        return {"kind": "translation", "v": jsonio.cpoint(aut._v()[0]),
                "mu": aut.mu}
    if isinstance(aut, MobiusMap):
        return {"kind": "mobius", "a": jsonio.cpoint(aut._a()[0]),
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
        what = f"{kind} map field {field!r}"
        p = jsonio.as_cpoint(obj[field], what)
        if len(p) != n or not np.isfinite(p).all():
            raise ValueError(f"{what} must be a point of C^{n}: {n} [re, im] "
                             "pairs of finite numbers")
        return p[None, :]

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
