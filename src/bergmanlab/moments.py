"""Gram matrices of monomials under a weight: the finite-rank shadow of
the weighted Bergman space.

The entry at multi-indices (alpha, beta) is the inner product

    G[alpha][beta] = <z^alpha, z^beta> = integral_D z^alpha conj(z)^beta p(z) dV(z)

over the base domain with respect to the raw Euclidean volume; measure
normalizations are expressed by rescaled weights, never baked in.  Three
assembly routes are provided: closed-form moments where the (domain, weight)
pair admits them, product quadrature (Gauss-Legendre in t = r^2 on bounded
domains, Gauss-Laguerre radially on the full space, equispaced angular
nodes), and importance-sampled Monte Carlo with per-entry standard errors.

Assembly is deterministic: node sets and summation order are fixed by the
scheme and by the seed, independent of any threading in the BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.special import roots_legendre, roots_laguerre, gammaincc, gammaln

from .core import (
    DomainKind,
    DomainSpec,
    GaussianPower,
    GenericNormPower,
    PolynomialRadial,
    RadialProfile,
    Scaled,
    Weight,
    monomial_values,
    multiindex_enumerate,
    weight_radial_fn,
)
from . import jsonio

_HALF = 0.5


@dataclass(frozen=True)
class QuadratureScheme:
    """Product-quadrature parameters.

    ``angular_margin`` fixes the equispaced angular node count at
    2*degree + margin per coordinate, enough to annihilate every angular
    frequency a monomial pair of degree <= d can produce, with margin.
    """

    radial_nodes: int = 64
    angular_margin: int = 8
    fullspace_nodes: int = 96
    table_nodes: int = 256
    tail_rtol: float = 1e-12

    def angular_count(self, degree: int) -> int:
        return 2 * degree + self.angular_margin


@dataclass
class GramMatrix:
    """Hermitian matrix of monomial inner products up to a degree cap."""

    domain: DomainSpec
    degree: int
    index_map: list[tuple[int, ...]]
    entries: np.ndarray
    method: dict
    stderr: np.ndarray | None = None
    weight_label: str = ""

    @property
    def size(self) -> int:
        return len(self.index_map)


@dataclass
class GramDiagnostics:
    hermitian_defect: float
    lambda_min: float
    lambda_max: float
    condition: float
    radial_offdiag_max: float
    cholesky_ok: bool
    psd_tol: float

    def as_dict(self) -> dict:
        return {k: jsonio.rnum(v) for k, v in asdict(self).items()}


# ---------------------------------------------------------------------------
# closed-form moments

def _reduce_weight(weight: Weight) -> tuple[float, object, int]:
    """Collapse Scaled wrappers and lazy powers to (scale, form, total_power)."""
    scale = 1.0
    form = weight.form
    power = weight.power_exponent
    while isinstance(form, Scaled):
        scale *= form.factor ** power
        inner = form.inner
        power *= inner.power_exponent
        form = inner.form
    return scale, form, power


def _poly_power(coeffs: tuple[float, ...], m: int) -> np.ndarray:
    out = np.array([1.0])
    base = np.asarray(coeffs, dtype=float)
    for _ in range(m):
        out = np.convolve(out, base)
    return out


def moment_exact(domain: DomainSpec, weight: Weight, alpha, beta) -> complex:
    """Closed-form <z^alpha, z^beta> for supported (domain, weight) pairs.

    Supported: Gaussian powers on C^n, generic-norm powers on disk/ball,
    and radial polynomial weights on disk/ball (all radial, so the result
    vanishes unless alpha == beta).  Raises ValueError otherwise; callers
    fall back to gram_quadrature.
    """
    alpha = tuple(int(a) for a in alpha)
    beta = tuple(int(b) for b in beta)
    n = domain.dim
    if len(alpha) != n or len(beta) != n:
        raise ValueError("multi-index length must match the domain dimension")
    if weight.base != domain:
        raise ValueError("weight is attached to a different base domain")
    scale, form, power = _reduce_weight(weight)

    if alpha != beta:
        if isinstance(form, (GaussianPower, GenericNormPower, PolynomialRadial)):
            return 0.0 + 0.0j
        raise ValueError("no closed-form moments for this weight form")

    k = sum(alpha)
    fact_alpha = 1.0
    for a in alpha:
        fact_alpha *= math.factorial(a)

    if isinstance(form, GaussianPower):
        if domain.kind is not DomainKind.FULL_SPACE:
            raise ValueError("Gaussian moments require the full space")
        mu_eff = form.mu * power
        return complex(scale * math.pi ** n * fact_alpha / mu_eff ** (k + n))

    if isinstance(form, GenericNormPower):
        if domain.kind not in (DomainKind.UNIT_DISK, DomainKind.UNIT_BALL):
            raise ValueError("closed-form generic-norm moments: disk/ball only")
        s = form.mu * power
        # Gamma(s+1)/Gamma(n+k+s+1) = 1/prod_{i=1..n+k}(s+i)
        denom = 1.0
        for i in range(1, n + k + 1):
            denom *= s + i
        return complex(scale * math.pi ** n * fact_alpha / denom)

    if isinstance(form, PolynomialRadial):
        if domain.kind not in (DomainKind.UNIT_DISK, DomainKind.UNIT_BALL):
            raise ValueError("radial polynomial moments: disk/ball only")
        coeffs = _poly_power(form.coefficients, power)
        # pi^n alpha!/(k+n-1)! * sum_j c_j / (k+n+j), by the shell reduction
        shell = fact_alpha / math.factorial(k + n - 1)
        acc = 0.0
        for j, c in enumerate(coeffs):
            acc += c / (k + n + j)
        return complex(scale * math.pi ** n * shell * acc)

    raise ValueError("no closed-form moments for this weight form")


def gram_exact(domain: DomainSpec, weight: Weight, degree: int) -> GramMatrix:
    """Assemble the Gram matrix entirely from closed-form moments."""
    basis = multiindex_enumerate(domain.dim, degree)
    B = len(basis)
    G = np.zeros((B, B), dtype=complex)
    for i, a in enumerate(basis):
        G[i, i] = moment_exact(domain, weight, a, a)
    return GramMatrix(domain, degree, basis, G, {"kind": "exact"},
                      weight_label=describe_weight(weight))


# ---------------------------------------------------------------------------
# product quadrature

def _angular_integrals(degree: int, count: int) -> np.ndarray:
    """Equispaced-rule values of integral_0^{2pi} e^{i k theta} d(theta),
    indexed by k = -degree..degree.  Computed by literally summing the
    nodes so the discretization is the one actually applied."""
    thetas = 2.0 * np.pi * np.arange(count) / count
    ks = np.arange(-degree, degree + 1)
    vals = np.exp(1j * np.outer(ks, thetas)).sum(axis=1) * (2.0 * np.pi / count)
    return vals


def _gauss01(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_legendre(nodes)
    return (x + 1.0) / 2.0, w / 2.0


def _simplex_nodes(n: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nested Gauss-Legendre rule on the simplex {t_j >= 0, sum t <= 1}."""
    x, w = _gauss01(nodes)
    T = np.zeros((1, 0))
    wts = np.ones(1)
    rem = np.ones(1)
    for _ in range(n):
        m = T.shape[0]
        newT = np.repeat(T, nodes, axis=0)
        t_new = (rem[:, None] * x[None, :]).reshape(-1)
        newT = np.concatenate([newT, t_new[:, None]], axis=1)
        wts = (wts[:, None] * (rem[:, None] * w[None, :])).reshape(-1)
        rem = np.repeat(rem, nodes) - t_new
        T = newT
    return T, wts


def _gaussian_decay(weight: Weight) -> float | None:
    scale, form, power = _reduce_weight(weight)
    if isinstance(form, GaussianPower):
        return form.mu * power
    return None


def _profile_of(weight: Weight) -> RadialProfile | None:
    _, form, _ = _reduce_weight(weight)
    return form if isinstance(form, RadialProfile) else None


def _fullspace_tail_check(weight: Weight, degree: int, n: int,
                          scheme: QuadratureScheme,
                          t_max: float, current_scale: float) -> None:
    """Reject schemes whose radial truncation is not negligible.

    For Gaussian decay mu the neglected mass of t^(d+n-1) e^(-mu t) beyond
    the last node is an upper incomplete gamma ratio; for tabulated
    profiles an exponential decay rate is fitted to the last knots.
    """
    a = degree + n  # the largest radial monomial power is t^degree
    mu = _gaussian_decay(weight)
    if mu is not None:
        rel = float(gammaincc(a, mu * t_max))
        if rel > 1e-16:
            raise ValueError(
                f"radial tail test failed: relative Gaussian tail {rel:.2e} "
                f"beyond t = {t_max:.3g} exceeds 1e-16; increase nodes")
        return
    prof = _profile_of(weight)
    if prof is None:
        raise ValueError("weight is not integrable against a full-space scheme")
    tk = np.asarray(prof.knots[-2:], dtype=float)
    vk = np.asarray(prof.values[-2:], dtype=float)
    if vk[-1] <= 0.0:
        return  # table ends at zero: compactly supported truncation
    if vk[0] <= vk[1]:
        raise ValueError("radial tail test failed: table does not decay")
    lam = math.log(vk[0] / vk[1]) / (tk[1] - tk[0])
    # tail ~ v_end * integral_{t_max}^inf t^(a-1) e^{-lam (t - t_max)} dt
    log_tail = (math.log(vk[-1]) + lam * t_max - a * math.log(lam)
                + gammaln(a) + math.log(max(float(gammaincc(a, lam * t_max)),
                                            1e-300)))
    log_ref = math.log(current_scale) if current_scale > 0 else 0.0
    if log_tail - log_ref > math.log(scheme.tail_rtol):
        raise ValueError(
            "radial tail test failed: tabulated weight leaves an estimated "
            f"relative tail exp({log_tail - log_ref:.1f}) beyond its table")


def _radial_rule(domain: DomainSpec, weight: Weight, degree: int,
                 scheme: QuadratureScheme) -> tuple[np.ndarray, np.ndarray]:
    """Radial nodes T (N, n) in t_j = |z_j|^2 and plain-dV weights."""
    n = domain.dim
    if domain.bounded:
        if n > 3:
            raise ValueError("bounded-domain quadrature supports n <= 3")
        return _simplex_nodes(n, scheme.radial_nodes)
    mu = _gaussian_decay(weight)
    if mu is not None:
        if n > 3:
            raise ValueError("full-space quadrature supports n <= 3")
        x, w = roots_laguerre(scheme.fullspace_nodes)
        t1 = x / mu
        with np.errstate(divide="ignore"):
            w1 = np.where(w > 0, np.exp(np.log(np.where(w > 0, w, 1.0)) + x), 0.0) / mu
        T = np.zeros((1, 0))
        wts = np.ones(1)
        for _ in range(n):
            T = np.concatenate([np.repeat(T, t1.size, axis=0),
                                np.tile(t1, T.shape[0])[:, None]], axis=1)
            wts = (wts[:, None] * w1[None, :]).reshape(-1)
        _fullspace_tail_check(weight, degree, n, scheme, float(t1[-1]), 1.0)
        return T, wts
    prof = _profile_of(weight)
    if prof is not None:
        if n != 1:
            raise ValueError("tabulated full-space weights support n = 1 only")
        t_max = float(prof.knots[-1])
        x, w = _gauss01(scheme.table_nodes)
        T = (x * t_max)[:, None]
        wts = w * t_max
        wfun = weight_radial_fn(weight)
        ref = float(np.sum(wts * wfun(T[:, 0]) * T[:, 0] ** degree))
        _fullspace_tail_check(weight, degree, n, scheme, t_max, abs(ref) + 1e-300)
        return T, wts
    raise ValueError("weight not integrable against a full-space scheme")


def quadrature_points_1d(domain: DomainSpec, weight: Weight, degree: int,
                         scheme: QuadratureScheme | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Explicit product-rule nodes z_s and plain-dV weights for n = 1.

    These are the points the Gram assembly integrates over (radial in
    t = |z|^2 times equispaced angles), exposed so reproducing-property
    checks can integrate against exactly the same discretization.
    """
    if domain.dim != 1:
        raise ValueError("explicit quadrature points are provided for n = 1 only")
    scheme = scheme or QuadratureScheme()
    T, wts = _radial_rule(domain, weight, degree, scheme)
    t = T[:, 0]
    M = scheme.angular_count(degree)
    thetas = 2.0 * np.pi * np.arange(M) / M
    r = np.sqrt(t)
    pts = (r[:, None] * np.exp(1j * thetas)[None, :]).reshape(-1)
    wq = (wts[:, None] * np.full((1, M), 2.0 * np.pi / M * _HALF)).reshape(-1)
    return pts, wq


def gram_quadrature(domain: DomainSpec, weight: Weight, degree: int,
                    scheme: QuadratureScheme | None = None) -> GramMatrix:
    """Assemble the Gram matrix by product quadrature.

    Per complex coordinate the rule is radial-in-t times an equispaced
    angular rule with 2*degree + margin nodes; the angular sums are computed
    numerically, so off-diagonal entries of radial weights vanish only to
    roundoff, which is what the sparsity diagnostics measure.
    """
    if domain.kind is DomainKind.TYPE_I_MATRIX_BALL:
        raise ValueError("no quadrature scheme for type-I matrix balls")
    if weight.base != domain:
        raise ValueError("weight is attached to a different base domain")
    scheme = scheme or QuadratureScheme()
    n = domain.dim
    basis = multiindex_enumerate(n, degree)
    B = len(basis)

    T, wts = _radial_rule(domain, weight, degree, scheme)
    wfun = weight_radial_fn(weight)
    vals = wts * wfun(T.sum(axis=1)) * _HALF ** n
    sqrtT = np.sqrt(T)

    # radial moments for every needed exponent-sum vector gamma = alpha+beta
    gammas = {}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            gammas.setdefault(tuple(x + y for x, y in zip(a, b)), None)
    for gamma in gammas:
        p = vals.copy()
        for c, g in enumerate(gamma):
            if g:
                p = p * sqrtT[:, c] ** g
        gammas[gamma] = p.sum()

    ang = _angular_integrals(degree, scheme.angular_count(degree))

    G = np.empty((B, B), dtype=complex)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            f = 1.0 + 0.0j
            for c in range(n):
                f *= ang[a[c] - b[c] + degree]
            G[i, j] = f * gammas[tuple(x + y for x, y in zip(a, b))]
    G = (G + G.conj().T) / 2.0
    return GramMatrix(domain, degree, basis, G,
                      {"kind": "quadrature", "scheme": asdict(scheme)},
                      weight_label=describe_weight(weight))


# ---------------------------------------------------------------------------
# Monte Carlo

def _sample_bounded(rng, n: int, count: int) -> np.ndarray:
    g = rng.standard_normal((count, 2 * n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = rng.random(count) ** (1.0 / (2 * n))
    pts = g * r[:, None]
    return pts[:, :n] + 1j * pts[:, n:]

def _ball_volume(n: int) -> float:
    return math.pi ** n / math.factorial(n)


def gram_montecarlo(domain: DomainSpec, weight: Weight, degree: int,
                    samples: int, seed: int) -> GramMatrix:
    """Importance-sampled Gram estimate with per-entry standard errors.

    Uniform proposal on bounded domains, complex-Gaussian proposal on the
    full space.  The generator is counter-based (Philox keyed by the seed),
    and sampling is a single fixed-order pass, so the estimate is
    reproducible bit-for-bit for a given seed.
    """
    if domain.kind is DomainKind.TYPE_I_MATRIX_BALL:
        raise ValueError("Monte Carlo sampling supports disk/ball/full space")
    if samples < 1:
        raise ValueError("need at least one sample")
    n = domain.dim
    basis = multiindex_enumerate(n, degree)
    B = len(basis)
    rng = np.random.Generator(np.random.Philox(key=seed))
    wfun = weight_radial_fn(weight)

    sum_x = np.zeros((B, B), dtype=complex)
    sum_abs2 = np.zeros((B, B), dtype=float)
    chunk = 200_000
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        if domain.bounded:
            pts = _sample_bounded(rng, n, m)
            t = np.sum(np.abs(pts) ** 2, axis=1)
            dens = np.full(m, 1.0 / _ball_volume(n))
        else:
            mu = _gaussian_decay(weight)
            sigma2 = 1.0 / mu if mu is not None else 1.0
            pts = math.sqrt(sigma2 / 2.0) * (
                rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
            t = np.sum(np.abs(pts) ** 2, axis=1)
            dens = np.exp(-t / sigma2) / (math.pi * sigma2) ** n
        f = wfun(t) / dens
        V = monomial_values(basis, pts)
        Vw = V * f[:, None]
        sum_x += Vw.T @ V.conj()
        A2 = np.abs(V) ** 2
        sum_abs2 += (A2 * f[:, None] ** 2).T @ A2
        done += m

    mean = sum_x / samples
    var = np.maximum(sum_abs2 / samples - np.abs(mean) ** 2, 0.0)
    se = np.sqrt(var / samples)
    G = (mean + mean.conj().T) / 2.0
    return GramMatrix(domain, degree, basis, G,
                      {"kind": "montecarlo", "seed": int(seed),
                       "samples": int(samples)},
                      stderr=se, weight_label=describe_weight(weight))


# ---------------------------------------------------------------------------
# diagnostics, repair, mass

def gram_validate(gram: GramMatrix, psd_tol: float = 1e-10) -> GramDiagnostics:
    """Finite-rank health report: Hermitian defect, spectrum range,
    condition number, and how far off-diagonal mass strays for radial
    weights.  Always succeeds; ``cholesky_ok`` flags factorizability,
    decided by a trial factorization of the unit-diagonal rescaling (the
    raw spectrum of a Gram matrix spans too many orders for eigenvalue
    signs alone to be trustworthy)."""
    G = gram.entries
    herm = float(np.max(np.abs(G - G.conj().T))) if G.size else 0.0
    H = (G + G.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(H)
    lam_min = float(eigs[0])
    lam_max = float(eigs[-1])
    cond = float(lam_max / lam_min) if lam_min > 0 else math.inf
    off = G - np.diag(np.diag(G))

    d = np.real(np.diag(G))
    ok = False
    if G.size and np.all(d > 0):
        s = 1.0 / np.sqrt(d)
        scaled = H * s[:, None] * s[None, :]
        try:
            np.linalg.cholesky((scaled + scaled.conj().T) / 2.0)
            ok = True
        except np.linalg.LinAlgError:
            se = np.linalg.eigvalsh((scaled + scaled.conj().T) / 2.0)
            ok = bool(se[0] > -psd_tol * max(float(se[-1]), 1e-300))
    return GramDiagnostics(
        hermitian_defect=herm,
        lambda_min=lam_min,
        lambda_max=lam_max,
        condition=cond,
        radial_offdiag_max=float(np.max(np.abs(off))) if G.size else 0.0,
        cholesky_ok=ok,
        psd_tol=psd_tol,
    )


def repair_psd(entries: np.ndarray, psd_tol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Clip tiny negative eigenvalues to the PSD cone.

    Returns (repaired matrix, perturbation size).  Raises if the most
    negative eigenvalue exceeds the tolerance relative to the spectral
    radius: such a matrix is not a roundoff-perturbed Gram matrix.
    """
    H = (entries + entries.conj().T) / 2.0
    eigs, vecs = np.linalg.eigh(H)
    lam_max = float(eigs[-1])
    if eigs[0] >= 0:
        return H, 0.0
    if eigs[0] <= -psd_tol * max(lam_max, 1e-300):
        raise ValueError(f"Gram matrix is indefinite: lambda_min = {eigs[0]:.3e}")
    clipped = np.clip(eigs, 0.0, None)
    repaired = (vecs * clipped) @ vecs.conj().T
    return (repaired + repaired.conj().T) / 2.0, float(-eigs[0])


def weight_mass(weight: Weight, scheme: QuadratureScheme | None = None) -> float:
    """Total integral <1, 1> of the weight over its base domain."""
    zero = tuple([0] * weight.base.dim)
    try:
        return moment_exact(weight.base, weight, zero, zero).real
    except ValueError:
        gram = gram_quadrature(weight.base, weight, 0, scheme)
        return float(gram.entries[0, 0].real)


def unit_mass_weight(weight: Weight, scheme: QuadratureScheme | None = None) -> Weight:
    return weight.scaled(1.0 / weight_mass(weight, scheme))


# ---------------------------------------------------------------------------
# descriptions and serialization

def describe_weight(weight: Weight) -> str:
    scale, form, power = _reduce_weight(weight)
    if isinstance(form, GaussianPower):
        body = f"exp(-{form.mu:g}|z|^2)"
    elif isinstance(form, GenericNormPower):
        body = f"N(z,z)^{form.mu:g}"
    elif isinstance(form, PolynomialRadial):
        body = "poly(" + ",".join(f"{c:g}" for c in form.coefficients) + ")"
    elif isinstance(form, RadialProfile):
        body = f"table[{len(form.knots)} knots]"
    else:
        body = "weight"
    out = body if power == 1 else f"({body})^{power}"
    return out if scale == 1.0 else f"{scale:g}*{out}"


_KIND_TO_JSON = {
    DomainKind.UNIT_DISK: "disk",
    DomainKind.UNIT_BALL: "ball",
    DomainKind.TYPE_I_MATRIX_BALL: "typeI",
    DomainKind.FULL_SPACE: "fullspace",
}


def domain_to_json(domain: DomainSpec) -> dict:
    out = {"kind": _KIND_TO_JSON[domain.kind], "dim": domain.dim}
    if domain.shape is not None:
        out["shape"] = list(domain.shape)
    return out


def domain_from_json(obj: dict) -> DomainSpec:
    kind = obj["kind"]
    if kind == "disk":
        return DomainSpec(DomainKind.UNIT_DISK, 1)
    if kind == "ball":
        return DomainSpec(DomainKind.UNIT_BALL, int(obj["dim"]))
    if kind == "typeI":
        p, q = obj["shape"]
        return DomainSpec(DomainKind.TYPE_I_MATRIX_BALL, int(p) * int(q), (int(p), int(q)))
    if kind == "fullspace":
        return DomainSpec(DomainKind.FULL_SPACE, int(obj["dim"]))
    raise ValueError(f"unknown domain kind {kind!r}")


def gram_to_json(gram: GramMatrix) -> dict:
    out = {
        "n": gram.domain.dim,
        "degree": gram.degree,
        "order": "grlex",
        "entries": jsonio.cmatrix(gram.entries),
        "method": gram.method,
        "domain": domain_to_json(gram.domain),
        "weight": gram.weight_label,
    }
    if gram.method.get("kind") == "montecarlo":
        out["seed"] = gram.method.get("seed")
    if gram.stderr is not None:
        out["stderr"] = [float(x) for x in gram.stderr.reshape(-1)]
    return out


def gram_from_json(obj: dict) -> GramMatrix:
    if obj.get("order") != "grlex":
        raise ValueError("serialized Gram matrices must use grlex order")
    domain = domain_from_json(obj["domain"])
    degree = int(obj["degree"])
    basis = multiindex_enumerate(domain.dim, degree)
    ent = jsonio.as_cmatrix(obj["entries"], (len(basis), len(basis)))
    se = None
    if "stderr" in obj:
        se = np.asarray(obj["stderr"], dtype=float).reshape(len(basis), len(basis))
    return GramMatrix(domain, degree, basis, ent, dict(obj["method"]),
                      stderr=se, weight_label=obj.get("weight", ""))
