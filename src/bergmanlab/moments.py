"""Gram matrices of monomials under a weight: the finite-rank shadow of
the weighted Bergman space.

The entry at multi-indices (alpha, beta) is the inner product

    G[alpha][beta] = <z^alpha, z^beta> = integral_D z^alpha conj(z)^beta p(z) dV(z)

over the base domain with respect to the raw Euclidean volume; measure
normalizations are expressed by rescaled weights, never baked in.

Every weight on the disk, the ball and C^n depends on s = |z|^2 alone, so
its Gram matrix is diagonal and follows from one sequence of radial moments
R_j = integral s^j w(s) ds (over [0, 1] on disk/ball, [0, inf) on C^n) by
the shell reduction

    G[alpha][alpha] = pi^n alpha! / (|alpha|+n-1)! * R_{|alpha|+n-1}

(polar coordinates t_j = |z_j|^2 per coordinate, then the Dirichlet
integral over each shell t_1 + ... + t_n = s).  Such a Gram is a
``RadialGram``: it holds R_0..R_{degree+n-1} and builds the dense matrix
only where ``entries`` is read.  The moments come from one
of two routes: closed forms (Gaussian and generic-norm powers) and
Gauss-Legendre rules exact for the degree of a polynomial weight
(``gram_exact``), or a 1-D Gauss rule in s -- Legendre on [0, 1], Laguerre
on C^n, Legendre up to the last knot of a tabulated profile
(``gram_quadrature``).  ``gram_auto`` takes the closed form where one
exists.  Importance-sampled Monte Carlo with per-entry standard errors
(``gram_montecarlo``) estimates the dense matrix directly, a
``GramMatrix``, as is every Gram loaded from JSON.

Assembly is deterministic: node sets and summation order are fixed by
``QUADRATURE`` and by the seed.  The radial routes are independent of any
threading in the BLAS; the Monte Carlo sums are BLAS matrix products, whose
last digit can change with the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from functools import cached_property

import numpy as np
from scipy.special import roots_legendre, roots_laguerre, gammaincc, gammaln

from .core import (
    MAX_BASIS,
    DomainKind,
    DomainSpec,
    GaussianPower,
    GenericNormPower,
    PolynomialRadial,
    RadialProfile,
    Weight,
    monomial_values,
    multiindex_enumerate,
    weight_radial_fn,
)
from . import jsonio


# The 1-D radial rules in s = |z|^2, written into every quadrature Gram's
# ``method["scheme"]``.  Bounded domains use ``radial_nodes`` Gauss-Legendre
# nodes on [0, 1] per complex dimension, the full space ``fullspace_nodes``
# Gauss-Laguerre nodes, and tabulated full-space profiles ``table_nodes``
# Gauss-Legendre nodes up to their last knot, whose neglected tail must stay
# below ``tail_rtol``.  ``angular_margin`` fixes the equispaced angular node
# count of the explicit points of ``quadrature_points_1d`` at
# 2*degree + margin, enough to annihilate every angular frequency a monomial
# pair of degree <= d can produce, with margin.
QUADRATURE = {"radial_nodes": 64, "angular_margin": 8, "fullspace_nodes": 96,
              "table_nodes": 256, "tail_rtol": 1e-12}

# Relative size of the most negative eigenvalue of a unit-diagonal Gram
# matrix that still counts as roundoff around a positive semidefinite one.
PSD_TOL = 1e-10

# Monte Carlo samples are taken in chunks of at most 200 000 whose
# per-sample arrays (the monomial table, its weighted copy and conjugate,
# squared moduli: about 50 bytes per sample and monomial, counted as 64)
# fit in this many bytes.
MC_CHUNK_BYTES = 256 * 2 ** 20


@dataclass
class GramMatrix:
    """Hermitian matrix of monomial inner products up to a degree cap, held
    dense: the Monte Carlo estimate and every JSON-loaded Gram."""

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


@dataclass(frozen=True, eq=False)
class RadialGram:
    """The diagonal Gram matrix of a radial weight on the disk, the ball or
    C^n, held as its moments R_0..R_{degree+n-1}.

    ``index_map`` and ``entries`` are built by the shell reduction on first
    read, so nothing of size C(n+degree, n) exists until a caller needs the
    matrix itself.
    """

    domain: DomainSpec
    degree: int
    moments: np.ndarray
    method: dict
    weight_label: str = ""

    # closed forms and quadrature carry no sampling error
    stderr = None

    @property
    def size(self) -> int:
        return math.comb(self.domain.dim + self.degree, self.degree)

    @cached_property
    def index_map(self) -> list[tuple[int, ...]]:
        return multiindex_enumerate(self.domain.dim, self.degree)

    @cached_property
    def entries(self) -> np.ndarray:
        n, basis = self.domain.dim, self.index_map
        G = np.zeros((len(basis), len(basis)), dtype=complex)
        for i, a in enumerate(basis):
            G[i, i] = _shell_factor(a) * self.moments[sum(a) + n - 1]
        return G


Gram = GramMatrix | RadialGram


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
# the radial moment sequence and the shell reduction

def _gauss01(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_legendre(nodes)
    return (x + 1.0) / 2.0, w / 2.0


class NoClosedForm(ValueError):
    """The (domain, weight) pair has no closed-form moments: the one refusal
    of ``gram_exact`` after which ``gram_auto`` turns to quadrature."""


def _check_power_table(top: int, nodes: int) -> None:
    """Refuse the (top + 1) x nodes table of node powers s_i^j before the
    nodes are computed; it may hold as many numbers as a dense Gram matrix
    over ``MAX_BASIS`` monomials."""
    if (top + 1) * nodes > MAX_BASIS ** 2:
        raise ValueError(
            f"the moments R_0..R_{top} need a {top + 1} x {nodes} table of "
            f"node powers; it may hold at most {MAX_BASIS ** 2} numbers")


def _power_sums(s: np.ndarray, f: np.ndarray, top: int) -> np.ndarray:
    """sum_i f_i s_i^j for j = 0..top, each a fixed-order pairwise sum."""
    powers = s[None, :] ** np.arange(top + 1)[:, None]
    return np.sum(powers * f[None, :], axis=1)


def _exact_moments(domain: DomainSpec, weight: Weight, top: int) -> np.ndarray:
    """Closed-form R_0..R_top; raises ValueError where none exists.

    Gaussian powers on C^n and generic-norm powers on disk/ball have closed
    forms.  A polynomial weight on disk/ball is integrated by a
    Gauss-Legendre rule with enough nodes to be exact for s^top p(s)^m: the
    weights are positive and the weight is evaluated as it is everywhere
    else, so no alternating coefficient sum can cancel.
    """
    if weight.base != domain:
        raise ValueError("weight is attached to a different base domain")
    form, power = weight.form, weight.power_exponent
    if isinstance(form, GaussianPower):
        mu = form.mu * power
        with np.errstate(over="ignore"):   # an infinite R_j is refused by name
            return weight.scale * np.array([math.factorial(j) / mu ** (j + 1)
                                            for j in range(top + 1)])
    if not isinstance(form, (GenericNormPower, PolynomialRadial)):
        raise NoClosedForm("no closed-form moments for this weight form")
    if domain.kind not in (DomainKind.UNIT_DISK, DomainKind.UNIT_BALL):
        raise NoClosedForm("closed-form generic-norm and polynomial moments: "
                           "disk/ball only")
    if isinstance(form, GenericNormPower):
        # R_j = B(j+1, s+1) = j!/prod_{i=1..j+1}(s+i)
        s = form.mu * power
        out = np.empty(top + 1)
        denom = 1.0
        for j in range(top + 1):
            denom *= s + j + 1
            out[j] = math.factorial(j) / denom
        return weight.scale * out
    nodes = (top + power * (len(form.coefficients) - 1)) // 2 + 1
    _check_power_table(top, nodes)
    s, w = _gauss01(nodes)
    return _power_sums(s, w * weight_radial_fn(weight)(s), top)


def _shell_factor(alpha: tuple[int, ...]) -> float:
    """pi^n alpha!/(|alpha|+n-1)!, the multiplier of R_{|alpha|+n-1}."""
    n = len(alpha)
    num = math.prod(math.factorial(a) for a in alpha)
    return math.pi ** n * (num / math.factorial(sum(alpha) + n - 1))


def moment_exact(domain: DomainSpec, weight: Weight, alpha, beta) -> complex:
    """Closed-form <z^alpha, z^beta> for supported (domain, weight) pairs.

    Supported: Gaussian powers on C^n, generic-norm powers on disk/ball,
    and radial polynomial weights on disk/ball (all radial, so the result
    vanishes unless alpha == beta).  Raises ValueError otherwise.
    """
    alpha = tuple(int(a) for a in alpha)
    beta = tuple(int(b) for b in beta)
    n = domain.dim
    if len(alpha) != n or len(beta) != n:
        raise ValueError("multi-index length must match the domain dimension")
    moments = _exact_moments(domain, weight, sum(alpha) + n - 1)
    if alpha != beta:
        return 0.0 + 0.0j
    return complex(_shell_factor(alpha) * moments[-1])


def gram_exact(domain: DomainSpec, weight: Weight, degree: int) -> RadialGram:
    """The Gram matrix of closed-form moments; raises ValueError where the
    (domain, weight) pair has none."""
    moments = _exact_moments(domain, weight, degree + domain.dim - 1)
    return RadialGram(domain, degree, moments, {"kind": "exact"},
                      describe_weight(weight))


# ---------------------------------------------------------------------------
# quadrature

def _gaussian_decay(weight: Weight) -> float | None:
    if isinstance(weight.form, GaussianPower):
        return weight.form.mu * weight.power_exponent
    return None


def _profile_of(weight: Weight) -> RadialProfile | None:
    return weight.form if isinstance(weight.form, RadialProfile) else None


def _fullspace_tail_check(weight: Weight, degree: int, n: int,
                          t_max: float, current_scale: float) -> None:
    """Reject full-space rules whose radial truncation is not negligible.

    For Gaussian decay mu the neglected mass of t^(d+n-1) e^(-mu t) beyond
    the last node is an upper incomplete gamma ratio; for tabulated
    profiles an exponential decay rate lam is fitted to the last knots, and
    the tail of scale * p^m continues scale * v_end^m at the rate m * lam.
    """
    a = degree + n  # the largest radial moment is R_{degree+n-1}
    mu = _gaussian_decay(weight)
    if mu is not None:
        rel = float(gammaincc(a, mu * t_max))
        if rel > 1e-16:
            raise ValueError(
                f"radial tail test failed: relative Gaussian tail {rel:.2e} "
                f"of the degree-{degree} moments beyond the last Laguerre "
                f"node t = {t_max:.3g} exceeds 1e-16")
        return
    prof = _profile_of(weight)
    if prof is None:
        raise ValueError("weight is not integrable against a full-space rule")
    tk = np.asarray(prof.knots[-2:], dtype=float)
    vk = np.asarray(prof.values[-2:], dtype=float)
    if vk[-1] <= 0.0:
        return  # table ends at zero: compactly supported truncation
    if vk[0] <= vk[1]:
        raise ValueError("radial tail test failed: table does not decay")
    m = weight.power_exponent
    lam = m * math.log(vk[0] / vk[1]) / (tk[1] - tk[0])
    # tail ~ scale v_end^m
    #        * integral_{t_max}^inf t^(a-1) e^{-lam (t - t_max)} dt
    log_tail = (math.log(weight.scale) + m * math.log(vk[-1]) + lam * t_max
                - a * math.log(lam)
                + gammaln(a) + math.log(max(float(gammaincc(a, lam * t_max)),
                                            1e-300)))
    log_ref = math.log(current_scale) if current_scale > 0 else 0.0
    if log_tail - log_ref > math.log(QUADRATURE["tail_rtol"]):
        raise ValueError(
            "radial tail test failed: tabulated weight leaves an estimated "
            f"relative tail exp({log_tail - log_ref:.1f}) beyond its table")


def _radial_rule(domain: DomainSpec, weight: Weight,
                 degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s = |z|^2 and plain-ds weights of the 1-D radial rule.

    No rule has fewer nodes than integrate s^(degree+n-1) exactly.  On
    bounded domains the Legendre count grows n-fold: the moments of a
    fractional generic-norm power (1 - s)^mu meet its endpoint singularity
    with the weight s^(n-1) of the shell, and 64 nodes left ball:2 and
    ball:3 short of the accuracy of the nested tensor rules they replaced.
    """
    n = domain.dim
    top = degree + n - 1
    floor = top // 2 + 1
    if domain.bounded:
        nodes = max(n * QUADRATURE["radial_nodes"], floor)
        _check_power_table(top, nodes)
        return _gauss01(nodes)
    mu = _gaussian_decay(weight)
    if mu is not None:
        nodes = max(QUADRATURE["fullspace_nodes"], floor)
        _check_power_table(top, nodes)
        x, w = roots_laguerre(nodes)
        s = x / mu
        with np.errstate(divide="ignore"):
            ws = np.where(w > 0, np.exp(np.log(np.where(w > 0, w, 1.0)) + x), 0.0) / mu
        _fullspace_tail_check(weight, degree, n, float(s[-1]), 1.0)
        return s, ws
    prof = _profile_of(weight)
    if prof is not None:
        t_max = float(prof.knots[-1])
        _check_power_table(top, QUADRATURE["table_nodes"])
        x, w = _gauss01(QUADRATURE["table_nodes"])
        s, ws = x * t_max, w * t_max
        ref = float(np.sum(ws * weight_radial_fn(weight)(s) * s ** top))
        _fullspace_tail_check(weight, degree, n, t_max, abs(ref) + 1e-300)
        return s, ws
    raise ValueError("weight not integrable against a full-space rule")


def quadrature_points_1d(domain: DomainSpec, weight: Weight, degree: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Explicit product-rule nodes z_s and plain-dV weights for n = 1.

    These are the radial nodes the Gram assembly integrates over (in
    t = |z|^2) times equispaced angles, exposed so reproducing-property
    checks can integrate against exactly the same radial discretization.
    """
    if domain.dim != 1:
        raise ValueError("explicit quadrature points are provided for n = 1 only")
    t, wt = _radial_rule(domain, weight, degree)
    M = 2 * degree + QUADRATURE["angular_margin"]
    thetas = 2.0 * np.pi * np.arange(M) / M
    pts = (np.sqrt(t)[:, None] * np.exp(1j * thetas)[None, :]).reshape(-1)
    # dV = dt d(theta) / 2 in t = |z|^2
    return pts, np.repeat(wt, M) * (math.pi / M)


def gram_quadrature(domain: DomainSpec, weight: Weight, degree: int) -> RadialGram:
    """Assemble the Gram matrix from radial moments by 1-D quadrature in s.

    A numerical route independent of the closed forms: the moments R_j are
    sums over the nodes of ``_radial_rule``, and the shell reduction makes
    every off-diagonal entry exactly zero.
    """
    if domain.kind is DomainKind.TYPE_I_MATRIX_BALL:
        raise ValueError("no quadrature scheme for type-I matrix balls")
    if weight.base != domain:
        raise ValueError("weight is attached to a different base domain")
    s, ws = _radial_rule(domain, weight, degree)
    moments = _power_sums(s, ws * weight_radial_fn(weight)(s),
                          degree + domain.dim - 1)
    return RadialGram(domain, degree, moments,
                      {"kind": "quadrature", "scheme": dict(QUADRATURE)},
                      describe_weight(weight))


def gram_auto(weight: Weight, degree: int) -> RadialGram:
    """The closed-form Gram where the weight admits one, else the quadrature
    Gram; ``gram.method["kind"]`` records the route taken.  A closed form
    refused for its size is refused here too, not replaced by a coarser
    rule."""
    try:
        return gram_exact(weight.base, weight, degree)
    except NoClosedForm:
        return gram_quadrature(weight.base, weight, degree)


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
    and sampling is a single fixed-order pass in chunks sized by the basis
    (``MC_CHUNK_BYTES``), so the estimate is reproducible bit-for-bit for a
    given seed at a given BLAS thread count.  The chunk sums are BLAS
    matrix products, whose last digit can change with the thread count.
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

    chunk = max(1, min(200_000, MC_CHUNK_BYTES // (64 * B)))
    sum_x = np.zeros((B, B), dtype=complex)
    sum_abs2 = np.zeros((B, B), dtype=float)
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
# diagnostics and mass

def _equilibrate(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Symmetric scaling to unit diagonal; None when the diagonal is not
    strictly positive.  Gram diagonals span many orders of magnitude
    (Gaussian moments grow like k!), and eigenvalue computations are only
    trustworthy after this normalization."""
    d = np.real(np.diag(entries))
    if entries.size == 0 or np.any(d <= 0):
        return None
    s = 1.0 / np.sqrt(d)
    scaled = entries * s[:, None] * s[None, :]
    return (scaled + scaled.conj().T) / 2.0, s


def gram_validate(gram: Gram) -> GramDiagnostics:
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

    ok = False
    eq = _equilibrate(G)
    if eq is not None:
        scaled, _ = eq
        try:
            np.linalg.cholesky(scaled)
            ok = True
        except np.linalg.LinAlgError:
            se = np.linalg.eigvalsh(scaled)
            ok = bool(se[0] > -PSD_TOL * max(float(se[-1]), 1e-300))
    return GramDiagnostics(
        hermitian_defect=herm,
        lambda_min=lam_min,
        lambda_max=lam_max,
        condition=cond,
        radial_offdiag_max=float(np.max(np.abs(off))) if G.size else 0.0,
        cholesky_ok=ok,
        psd_tol=PSD_TOL,
    )


def weight_mass(weight: Weight) -> float:
    """Total integral <1, 1> of the weight over its base domain."""
    return float(gram_auto(weight, 0).entries[0, 0].real)


def unit_mass_weight(weight: Weight) -> Weight:
    return weight.scaled(1.0 / weight_mass(weight))


# ---------------------------------------------------------------------------
# descriptions and serialization

def describe_weight(weight: Weight) -> str:
    scale, form, power = weight.scale, weight.form, weight.power_exponent
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


def gram_to_json(gram: Gram) -> dict:
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
