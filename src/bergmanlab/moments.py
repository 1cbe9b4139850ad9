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
``RadialGram``: it holds R_0..R_{degree+n-1}, and its ``diagonal``, the
B = C(n+degree, n) values above in grlex order, is all of the matrix that
its diagnostics, reports and verdicts read; no dense B x B array of it is
ever formed.  Each route takes the weight alone, over its base: exact
moments by the form's own method (``gram_exact``: Gaussian and generic-norm
powers as ratios of integers rounded once, polynomial and tabulated cubic
profiles by a Gauss-Legendre rule per piece exact for its degree), a 1-D
Gauss rule in s as the cross-check -- Legendre on [0, 1], Laguerre on C^n,
Legendre up to the last knot of a table (``gram_quadrature``) -- or
importance-sampled Monte Carlo with one standard error per moment
(``gram_montecarlo``); ``kernels.kernel_from_gram`` turns the moments into
the kernel series.

Assembly is deterministic: node sets and summation order are fixed by
``QUADRATURE`` and by the seed, and no sum is a BLAS product, so no route
depends on the threading of the BLAS.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, asdict
from functools import cached_property, lru_cache

import numpy as np

from .core import (
    MAX_BASIS,
    DomainKind,
    DomainSpec,
    GaussianPower,
    GenericNormPower,
    PolynomialRadial,
    RadialProfile,
    Weight,
    _basis_size,
    full_space,
    matrix_ball,
    multiindex_enumerate,
    unit_ball,
    unit_disk,
    weight_radial_fn,
)
from . import jsonio


# The 1-D radial rules in s = |z|^2, written into every quadrature Gram's
# ``method["scheme"]``.  Bounded domains use ``radial_nodes`` Gauss-Legendre
# nodes on [0, 1] per complex dimension, the full space ``fullspace_nodes``
# Gauss-Laguerre nodes, and tabulated full-space profiles ``table_nodes``
# Gauss-Legendre nodes up to their last knot, whose neglected tail must stay
# below ``tail_rtol``.
QUADRATURE = {"radial_nodes": 64, "fullspace_nodes": 96, "table_nodes": 256,
              "tail_rtol": 1e-12}

# Relative size of the most negative eigenvalue of a unit-diagonal Gram
# matrix that would still count as roundoff, stated in every report.
PSD_TOL = 1e-10

# Monte Carlo samples are drawn in chunks of at most 200 000 within
# MC_CHUNK_BYTES, at MC_SAMPLE_BYTES per sample in any dimension: t = |z|^2
# and its draw, the weight's values with their evaluation temporaries (a
# tabulated profile's cubic holds the most, about 90 bytes), the density,
# f t^k and its square.  A seed's t are the same at any chunking; the
# chunks fix the order of the sums.
MC_CHUNK_BYTES = 256 * 2 ** 20
MC_SAMPLE_BYTES = 128


@dataclass(frozen=True, eq=False)
class RadialGram:
    """The diagonal Gram matrix of a radial weight on the disk, the ball or
    C^n, held as its moments R_0..R_{degree+n-1}.

    ``diagonal`` (the shell reduction of the moments, one value per
    monomial, by array operations) and ``index_map`` (the multi-indices as
    tuples, for readers that want them) are built on first read, so nothing
    of size C(n+degree, n) exists until a caller needs it; the matrix is
    that diagonal and zeros elsewhere, and is never built.

    A Monte Carlo Gram estimates R_{n-1}..R_{degree+n-1} only, all that
    ``diagonal`` and ``kernels.kernel_from_gram`` read, and holds NaN below:
    R_j would weight the samples by t^(j-n+1), t = |z|^2, of infinite
    variance for j <= (n-2)/2 (R_0 at every n >= 2).  Its ``stderr`` holds
    the standard errors of the estimates, in order; other routes have none.
    """

    domain: DomainSpec
    degree: int
    moments: np.ndarray
    method: dict
    weight_label: str = ""
    stderr: np.ndarray | None = None

    @property
    def size(self) -> int:
        return math.comb(self.domain.dim + self.degree, self.degree)

    @cached_property
    def index_map(self) -> list[tuple[int, ...]]:
        return multiindex_enumerate(self.domain.dim, self.degree)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """G[alpha][alpha] = pi^n alpha!/(|alpha|+n-1)! * R_{|alpha|+n-1}
        in grlex order, read-only; an entry that overflows is refused by
        name.

        With N = (|alpha|+n-1)!/alpha!, an integer, the factor is
        pi^n * (1/N) where N < 2^53 is exact in a float: the quotient
        rounded once, as ``_shell_factor`` forms it.  The other rows, and
        every row from n = 20 on, where N >= (n-1)! >= 2^53, take
        ``_shell_factor`` itself, once per multiset of alpha.
        """
        n = self.domain.dim
        _basis_size(n, self.degree)
        moments = np.asarray(self.moments)
        if n == 1:      # pi * k!/k! for every k
            alphas, top, shell = None, slice(self.degree + 1), math.pi
        else:
            alphas, degrees, N = _grlex_shells(n, self.degree)
            top = degrees + (n - 1)
            shell = np.empty(top.size)
            exact = N < 2.0 ** 53
            if exact.any():     # never from n = 20 on: pi^n overflows at 621
                shell[exact] = math.pi ** n * (1.0 / N[exact])
            factors: dict[tuple[int, ...], float] = {}
            for i in np.flatnonzero(~exact).tolist():
                a = tuple(alphas[i].tolist())
                key = tuple(sorted(a))
                factor = factors.get(key)
                if factor is None:
                    factor = factors[key] = _shell_factor(a)
                shell[i] = factor
        with np.errstate(over="ignore"):   # refused by name below
            diagonal = shell * moments[top]
        outside = ~np.isfinite(diagonal)
        if outside.any():
            j = int(np.argmax(outside))
            alpha = (j,) if alphas is None else tuple(alphas[j].tolist())
            raise ValueError(f"the Gram entry at {alpha} of "
                             f"{self.weight_label} is {diagonal[j]}, outside "
                             f"the float range")
        return _read_only(diagonal)[0]


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

def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _gauss01(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [0, 1], computed once
    per node count.

    Newton's method on the three-term recurrence from Tricomi's initial
    guess, on the nodes in [0, 1) of the symmetric rule (Hale & Townsend,
    SIAM J. Sci. Comput. 35 (2013)).  The weight 2(1-x^2)/((1-x^2)P_n'(x))^2
    is read at the polished node, and (1-x^2)P_n' = n (P_{n-1} - x P_n)
    carries the first-order correction for the node's rounding.
    """
    n = nodes
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (4 * k - 1)
                                                   / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0     # the middle node
    for _ in range(8):
        p, dp = _legendre_newton_terms(x, n)
        step = p * ((1.0 - x) * (1.0 + x)) / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-16:
            break
    _, dp = _legendre_newton_terms(x, n)
    w = 2.0 * ((1.0 - x) * (1.0 + x)) / dp ** 2
    middle = n % 2
    x = np.concatenate([-x, x[::-1][middle:]])
    w = np.concatenate([w, w[::-1][middle:]])
    return _read_only((x + 1.0) / 2.0, w / 2.0)


def _legendre_newton_terms(x: np.ndarray, n: int):
    """P_n(x) and (1 - x^2) P_n'(x) = n (P_{n-1}(x) - x P_n(x))."""
    prev, p = np.zeros_like(x), np.ones_like(x)
    for k in range(n):
        prev, p = p, ((2 * k + 1) * x * p - k * prev) / (k + 1)
    return p, n * (prev - x * p)


@lru_cache(maxsize=None)
def _gauss_laguerre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes x (ascending) and log(w) + x, computed once per
    node count.

    The nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch,
    Math. Comp. 23 (1969)) polished by one Newton pass or more on the
    recurrence; the weights w = 1/(x L_n'(x)^2) are kept in log form, where
    e^(-x) cannot underflow them.
    """
    n = nodes
    off = np.arange(1.0, n)
    J = np.diag(2.0 * np.arange(n) + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    x = np.linalg.eigvalsh(J)
    for _ in range(8):
        p, d, _ = _laguerre_newton_terms(x, n)
        step = x * p / (n * d)       # L_n / L_n', with L_n' = n d / x
        x = x - step
        if np.max(np.abs(step / x)) < 1e-15:
            break
    _, d, log_scale = _laguerre_newton_terms(x, n)
    log_w = np.log(x) - 2.0 * (np.log(n * np.abs(d)) + log_scale)
    return _read_only(x, log_w + x)


def _laguerre_newton_terms(x: np.ndarray, n: int):
    """L_n(x) and d = L_n(x) - L_{n-1}(x), both divided by e^log_scale.

    The recurrence runs on the differences, d_k = (k d_{k-1} - x L_k)/(k+1),
    which do not cancel at small x, and is rescaled every 16 steps, since
    L_n grows like e^(x/2) at the largest nodes.
    """
    p, d, log_scale = np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
    for k in range(n):
        d = (k * d - x * p) / (k + 1)
        p = p + d
        if k % 16 == 15:
            s = np.abs(p) + np.abs(d)
            p, d, log_scale = p / s, d / s, log_scale + np.log(s)
    return p, d, log_scale


def _log_gammaincc(a: int, x: float) -> float:
    """log Q(a, x), the regularized upper incomplete gamma function, for an
    integer a >= 1 and x >= 0: Q = e^(-x) sum_{k<a} x^k/k!.

    For x >= a - 1 the terms fall from the last one down, and their sum is
    that term times 1 + (a-1)/x + (a-1)(a-2)/x^2 + ...; below, Q = 1 - P
    with P = sum_{k>=a}, whose terms fall from the first.  No sum cancels.
    """
    if x == 0.0:
        return 0.0
    b = a - 1
    log_last = b * math.log(x) - x - math.lgamma(a)    # log(x^b e^-x / b!)
    if x >= b:
        falling = np.cumprod(np.arange(b, 0, -1) / x)
        return log_last + math.log1p(float(np.sum(falling)))
    rising = np.cumprod(x / np.arange(a, a + int(12 * math.sqrt(a)) + 64))
    return math.log1p(-math.exp(log_last) * float(np.sum(rising)))


def _check_power_table(top: int, nodes: int) -> None:
    """Refuse the (top + 1) x nodes table of node powers s_i^j before the
    nodes are computed; it may hold as many numbers as a dense Gram matrix
    over ``MAX_BASIS`` monomials."""
    if (top + 1) * nodes > MAX_BASIS ** 2:
        raise ValueError(
            f"the moments R_0..R_{top} need a {top + 1} x {nodes} table of "
            f"node powers; it may hold at most {MAX_BASIS ** 2} numbers")


def _check_rule(top: int, nodes: int) -> None:
    """Refuse a Gauss-Legendre rule whose Newton passes (``_gauss01``), each
    a recurrence of nodes steps over about half the nodes, would take more
    terms than ``MAX_BASIS``^2, before the rule is formed."""
    half = (nodes + 1) // 2
    if nodes * half > MAX_BASIS ** 2:
        raise ValueError(
            f"the moments R_0..R_{top} need a {nodes}-node Gauss-Legendre "
            f"rule, whose recurrence takes {nodes} x {half} terms a Newton "
            f"pass; it may take at most {MAX_BASIS ** 2}")


def _power_sums(s: np.ndarray, f: np.ndarray, top: int) -> np.ndarray:
    """sum_i f_i s_i^j for j = 0..top, each a fixed-order pairwise sum; row
    j is row j-1 times s, so a small f keeps a large s^j in range."""
    powers = np.empty((top + 1, s.size))
    powers[0] = f
    for j in range(top):
        np.multiply(powers[j], s, out=powers[j + 1])
    return np.sum(powers, axis=1)


def _finite_moments(weight: Weight, moments: np.ndarray,
                    route: str = "") -> np.ndarray:
    """The moments, or a refusal by name of the first one outside the
    float range."""
    outside = ~np.isfinite(moments)
    if outside.any():
        j = int(np.argmax(outside))
        raise ValueError(f"the {route}moment R_{j} of "
                         f"{describe_weight(weight)} is {moments[j]}, outside "
                         f"the float range")
    return moments


def _rounded_moments(weight: Weight, top: int, shift: int) -> np.ndarray:
    """R_j = scale j!/prod_{i=1..j+1}(mu + shift i) for j = 0..top, mu the
    rate of the weight's power (the form's rate times the exponent m):
    j!/mu^(j+1) for a Gaussian (shift 0), B(j+1, mu+1) for a generic norm
    (shift 1).

    Every float is a dyadic rational, so with mu = c/d and scale = p/q each
    R_j is the ratio of the integers p j! d^(j+1) and q prod(c + shift i d),
    which ``/`` rounds once, to the nearest float.  The first R_j outside
    the normal float range is refused by name, with its exponent
    log(num) - log(den), finite for integers of any size.
    """
    c, d = weight.form.mu.as_integer_ratio()
    c *= weight.power_exponent
    num, den = weight.scale.as_integer_ratio()
    out = np.empty(top + 1)
    for j in range(top + 1):
        num *= max(j, 1) * d
        den *= c + shift * (j + 1) * d
        try:
            out[j] = num / den
        except OverflowError:       # past the largest float
            out[j] = math.inf
        if not sys.float_info.min <= out[j] < math.inf:
            raise ValueError(f"the moment R_{j} of {describe_weight(weight)} "
                             f"is exp({math.log(num) - math.log(den):.1f}), "
                             f"outside the float range")
    return out


def _piecewise_moments(weight: Weight, breaks: np.ndarray, degree: int,
                       top: int) -> np.ndarray:
    """R_0..R_top of a form of the given degree in s between consecutive
    breaks, by a Gauss-Legendre rule per interval exact for s^top p(s)^m:
    the rule's weights are positive and the weight is evaluated as it is
    everywhere else, so no alternating coefficient sum can cancel."""
    nodes = (top + weight.power_exponent * degree) // 2 + 1
    _check_power_table(top, nodes * (len(breaks) - 1))
    _check_rule(top, nodes)
    x, w = _gauss01(nodes)
    start, width = breaks[:-1, None], np.diff(breaks)[:, None]
    s, ws = (start + width * x).ravel(), (width * w).ravel()
    with np.errstate(over="ignore", invalid="ignore"):   # refused by name
        moments = _power_sums(s, ws * _piece_values(weight, s, nodes), top)
    return _finite_moments(weight, moments)


def _piece_values(weight: Weight, s: np.ndarray, nodes: int) -> np.ndarray:
    """The weight at the nodes s of ``_piecewise_moments``, nodes per piece.
    A table's piece i lies in its knot interval i, so that interval's cubic
    is evaluated directly, then powered and scaled as ``weight_radial_fn``
    does: the same values, without a search for each node's interval."""
    form = weight.form
    if not isinstance(form, RadialProfile):
        return weight_radial_fn(weight)(s)
    piece = np.repeat(np.arange(s.size // nodes), nodes)
    return weight.scale * form.on_intervals(piece, s) ** weight.power_exponent


def _exact_moments(weight: Weight, top: int) -> np.ndarray:
    """R_0..R_top by the moment method of the weight's form, or a
    ValueError.  Gaussian and generic-norm powers are ratios of integers
    (``_rounded_moments``); a polynomial is one piece on [0, 1], a table a
    cubic per knot interval up to 1 on disk/ball, or up to its last knot on
    C^n behind the tail test (``_piecewise_moments``)."""
    form, domain = weight.form, weight.base
    if isinstance(form, GaussianPower):
        return _rounded_moments(weight, top, shift=0)
    if domain.kind is DomainKind.TYPE_I_MATRIX_BALL:
        raise ValueError("no radial moments on type-I matrix balls")
    if isinstance(form, GenericNormPower):
        return _rounded_moments(weight, top, shift=1)
    if isinstance(form, PolynomialRadial):
        if not domain.bounded:
            raise ValueError("a polynomial weight is not integrable on C^n")
        return _piecewise_moments(weight, np.array([0.0, 1.0]),
                                  len(form.coefficients) - 1, top)
    knots = np.asarray(form.knots, dtype=float)
    if domain.bounded:
        if knots[-1] < 1.0:
            raise ValueError("radial profile evaluated outside its table")
        return _piecewise_moments(weight, np.append(knots[knots < 1.0], 1.0),
                                  3, top)
    moments = _piecewise_moments(weight, knots, 3, top)
    _fullspace_tail_check(weight, top - domain.dim + 1, float(knots[-1]),
                          abs(float(moments[top])) + 1e-300)
    return moments


def _grlex_shells(n: int, degree: int) -> tuple[np.ndarray, ...]:
    """The multi-indices of ``multiindex_enumerate(n, degree)`` as a (B, n)
    integer array, their degrees, and N = (|alpha|+n-1)!/alpha! of each as
    a float: exact where N < 2^53, and at least 2^53 where N is not.

    In m variables the degree-k rows are the rows of degree <= k in m - 1
    variables, in order, each behind the leading entry k minus its degree.
    Column j is read off that recursion from the left: ``rows`` places each
    suffix alpha[j:] among the (n-j)-variable rows and ``rest`` is its
    degree.  N is the product of the binomials C(rest, alpha[j]) and of
    (k+1)...(k+n-1), integers >= 1: a float product of them is exact while
    below 2^53 and, rounding being monotone, never falls back below it.
    """
    ks = np.arange(degree + 1)
    pascal = np.zeros((degree + 1, degree + 1), dtype=np.int64)
    pascal[:, 0] = 1
    # from n = 2 on MAX_BASIS keeps degree <= 64, and C(64, 32) < 2^63
    for s in range(1, degree + 1):
        pascal[s, 1:] = pascal[s - 1, 1:] + pascal[s - 1, :-1]
    binomial = pascal.astype(float)
    degrees = np.repeat(ks, [math.comb(k + n - 1, n - 1) for k in ks])
    rows, rest = np.arange(degrees.size), degrees
    alphas = np.empty((degrees.size, n), dtype=np.intp)
    with np.errstate(over="ignore"):
        N = np.prod(ks[:, None] + np.arange(1.0, n), axis=1)[degrees]
        for j in range(n - 1):
            m = n - j
            # rows of degree <= k in m - 1 variables, and of degree < k in m
            upto = np.array([math.comb(k + m - 1, m - 1) for k in ks])
            below = np.cumsum(upto) - upto
            inner = rows - below[rest]
            inner_rest = np.searchsorted(upto, inner, side="right")
            alphas[:, j] = rest - inner_rest
            N *= binomial[rest, alphas[:, j]]
            rows, rest = inner, inner_rest
    alphas[:, -1] = rest
    return alphas, degrees, N


def _shell_factor(alpha: tuple[int, ...]) -> float:
    """pi^n alpha!/(|alpha|+n-1)!, the multiplier of R_{|alpha|+n-1}.

    The factorial ratio is an integer quotient rounded once.  Where it is
    no normal float (always from n = 172 on, before pi^n overflows at 621),
    the factor is formed in log space; one below the float range is
    refused by name.
    """
    n, top = len(alpha), sum(alpha) + len(alpha) - 1
    ratio = math.prod(math.factorial(a) for a in alpha) / math.factorial(top)
    if ratio >= sys.float_info.min:
        return math.pi ** n * ratio
    log_factor = (n * math.log(math.pi) - math.lgamma(top + 1)
                  + sum(math.lgamma(a + 1) for a in alpha))
    factor = math.exp(log_factor)
    if factor < sys.float_info.min:
        raise ValueError(
            f"the shell factor pi^n alpha!/(|alpha|+n-1)! at n = {n}, "
            f"|alpha| = {sum(alpha)} is exp({log_factor:.1f}), below the "
            f"float range")
    return factor


def gram_exact(weight: Weight, degree: int) -> RadialGram:
    """The Gram matrix of the weight's exact moments over its base; raises
    ValueError where the pair has none.  A rule refused for its size is
    refused, not replaced by a coarser one."""
    moments = _exact_moments(weight, degree + weight.base.dim - 1)
    return RadialGram(weight.base, degree, moments, {"kind": "exact"},
                      describe_weight(weight))


# ---------------------------------------------------------------------------
# quadrature

def _gaussian_decay(weight: Weight) -> float | None:
    if isinstance(weight.form, GaussianPower):
        return weight.form.mu * weight.power_exponent
    return None


def _fullspace_tail_check(weight: Weight, degree: int, t_max: float,
                          current_scale: float) -> None:
    """Reject full-space rules whose radial truncation is not negligible.

    For Gaussian decay mu the neglected mass of t^(d+n-1) e^(-mu t) beyond
    the last node is an upper incomplete gamma ratio; for tabulated
    profiles an exponential decay rate lam is fitted to the last knots, and
    the tail of scale * p^m continues scale * v_end^m at the rate m * lam.
    """
    a = degree + weight.base.dim  # the largest moment is R_{degree+n-1}
    mu = _gaussian_decay(weight)
    if mu is not None:
        rel = math.exp(_log_gammaincc(a, mu * t_max))
        if rel > 1e-16:
            raise ValueError(
                f"radial tail test failed: relative Gaussian tail {rel:.2e} "
                f"of the degree-{degree} moments beyond the last Laguerre "
                f"node t = {t_max:.3g} exceeds 1e-16")
        return
    tk = np.asarray(weight.form.knots[-2:], dtype=float)
    vk = np.asarray(weight.form.values[-2:], dtype=float)
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
                + math.lgamma(a) + max(_log_gammaincc(a, lam * t_max),
                                       math.log(1e-300)))
    log_ref = math.log(current_scale) if current_scale > 0 else 0.0
    if log_tail - log_ref > math.log(QUADRATURE["tail_rtol"]):
        raise ValueError(
            "radial tail test failed: tabulated weight leaves an estimated "
            f"relative tail exp({log_tail - log_ref:.1f}) beyond its table")


def _radial_rule(weight: Weight, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s = |z|^2 and plain-ds weights of the 1-D radial rule.

    No rule has fewer nodes than integrate s^(degree+n-1) exactly.  On
    bounded domains the Legendre count grows n-fold: the moments of a
    fractional generic-norm power (1 - s)^mu meet its endpoint singularity
    with the weight s^(n-1) of the shell, and 64 nodes left ball:2 and
    ball:3 short of the accuracy of the nested tensor rules they replaced.
    """
    n = weight.base.dim
    top = degree + n - 1
    floor = top // 2 + 1
    if weight.base.bounded:
        nodes = max(n * QUADRATURE["radial_nodes"], floor)
        _check_power_table(top, nodes)
        _check_rule(top, nodes)
        return _gauss01(nodes)
    mu = _gaussian_decay(weight)
    if mu is not None:
        nodes = max(QUADRATURE["fullspace_nodes"], floor)
        _check_power_table(top, nodes)
        x, log_we = _gauss_laguerre(nodes)
        s, ws = x / mu, np.exp(log_we) / mu
        _fullspace_tail_check(weight, degree, float(s[-1]), 1.0)
        return s, ws
    if isinstance(weight.form, RadialProfile):
        t_max = float(weight.form.knots[-1])
        _check_power_table(top, QUADRATURE["table_nodes"])
        x, w = _gauss01(QUADRATURE["table_nodes"])
        return x * t_max, w * t_max
    raise ValueError("weight not integrable against a full-space rule")


def gram_quadrature(weight: Weight, degree: int) -> RadialGram:
    """Assemble the Gram matrix from radial moments by 1-D quadrature in s.

    A numerical route independent of the exact moments: the moments R_j
    are sums over the nodes of ``_radial_rule``, and the shell reduction
    makes every off-diagonal entry exactly zero.
    """
    domain = weight.base
    if domain.kind is DomainKind.TYPE_I_MATRIX_BALL:
        raise ValueError("no quadrature scheme for type-I matrix balls")
    s, ws = _radial_rule(weight, degree)
    top = degree + domain.dim - 1
    with np.errstate(over="ignore", invalid="ignore"):   # refused by name
        moments = _power_sums(s, ws * weight_radial_fn(weight)(s), top)
    if isinstance(weight.form, RadialProfile) and not domain.bounded:
        _fullspace_tail_check(weight, degree, float(weight.form.knots[-1]),
                              abs(float(moments[top])) + 1e-300)
    moments = _finite_moments(weight, moments, "quadrature ")
    return RadialGram(domain, degree, moments,
                      {"kind": "quadrature", "scheme": dict(QUADRATURE)},
                      describe_weight(weight))


# ---------------------------------------------------------------------------
# Monte Carlo

def gram_montecarlo(weight: Weight, degree: int, samples: int,
                    seed: int) -> RadialGram:
    """The Gram over the weight's base of importance-sampled moments
    R_{n-1}..R_{degree+n-1}, each with its standard error.

    Uniform proposal on bounded domains, complex-Gaussian proposal of
    variance sigma^2 = 1/mu per coordinate on the full space (mu the decay
    of a Gaussian weight, else 1).  The estimate reads only t = |z|^2 of a
    sample, so t is drawn from its own law under the proposal, U^(1/n) on
    the unit ball and sigma^2 Gamma(n) on C^n, never the point: a Philox
    generator keyed by the seed draws it in chunks (``MC_CHUNK_BYTES``).
    With f the weight over the proposal density, the mean of f t^k is
    pi^n/(n-1)! R_{k+n-1} on the ball and on C^n alike (shells of volume
    pi^n s^(n-1)/(n-1)! ds).  Each chunk adds sum f t^k and sum (f t^k)^2
    for k = 0..degree, fixed-order 1-D sums over one running power array,
    so the estimate is the same bit for bit at any BLAS thread count.  A
    basis past ``MAX_BASIS`` and a seed outside the Philox key range
    [0, 2**128) are refused before anything is drawn, sums outside the
    float range by name.
    """
    domain = weight.base
    if domain.kind is DomainKind.TYPE_I_MATRIX_BALL:
        raise ValueError("Monte Carlo sampling supports disk/ball/full space")
    if samples < 1:
        raise ValueError("need at least one sample")
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"seed {seed}: the Monte Carlo draw keys its Philox "
                         "generator by the seed, which takes 0 <= seed < "
                         "2**128")
    n = domain.dim
    _basis_size(n, degree)
    rng = np.random.Generator(np.random.Philox(key=seed))
    wfun = weight_radial_fn(weight)
    mu = None if domain.bounded else _gaussian_decay(weight)
    sigma2 = 1.0 / mu if mu is not None else 1.0

    chunk = max(1, min(200_000, MC_CHUNK_BYTES // MC_SAMPLE_BYTES))
    sums, squares = np.zeros(degree + 1), np.zeros(degree + 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for done in range(0, samples, chunk):
            m = min(chunk, samples - done)
            # |z|^2 of a uniform point of the unit ball, of a complex
            # Gaussian point of C^n
            t = rng.random(m) ** (1.0 / n) if domain.bounded else \
                rng.standard_gamma(n, m) * sigma2
            dens = math.factorial(n) / math.pi ** n if domain.bounded else \
                np.exp(-t / sigma2) / (math.pi * sigma2) ** n
            # f t^k for k = 0, 1, ..., degree in place
            power, square = wfun(t) / dens, np.empty(m)
            for k in range(degree + 1):
                sums[k] += power.sum()
                squares[k] += np.multiply(power, power, out=square).sum()
                power *= t

        mean = sums / samples
        se = np.sqrt(np.maximum(squares / samples - mean ** 2, 0.0) / samples)
        shell = _shell_factor((0,) * n)     # pi^n/(n-1)!
        estimate, se = mean / shell, se / shell
    if not (np.isfinite(estimate).all() and np.isfinite(se).all()):
        raise ValueError(f"the Monte Carlo sums of {describe_weight(weight)} "
                         f"at degree {degree} leave the float range")
    return RadialGram(domain, degree,
                      np.concatenate([np.full(n - 1, np.nan), estimate]),
                      {"kind": "montecarlo", "seed": int(seed),
                       "samples": int(samples)},
                      describe_weight(weight), stderr=se)


# ---------------------------------------------------------------------------
# diagnostics and mass

def gram_validate(gram: RadialGram) -> GramDiagnostics:
    """Health report of the diagonal matrix, read off its entries: they
    are its eigenvalues, it is Hermitian without off-diagonal mass, and it
    factors exactly when all are > 0 (``cholesky_ok``)."""
    d = gram.diagonal
    lam_min, lam_max = float(d.min()), float(d.max())
    return GramDiagnostics(
        hermitian_defect=0.0,
        lambda_min=lam_min,
        lambda_max=lam_max,
        condition=lam_max / lam_min if lam_min > 0 else math.inf,
        radial_offdiag_max=0.0,
        cholesky_ok=bool(lam_min > 0),
        psd_tol=PSD_TOL,
    )


def unit_mass_weight(weight: Weight) -> Weight:
    """The weight rescaled to total integral <1, 1> = 1 over its base."""
    return weight.scaled(1.0 / float(gram_exact(weight, 0).diagonal[0]))


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


def domain_to_json(domain: DomainSpec) -> dict:
    """The domain's JSON; the ball B^1 is spelled "disk"."""
    kind = "disk" if domain == unit_disk() else domain.kind.value
    out = {"kind": kind, "dim": domain.dim}
    if domain.shape is not None:
        out["shape"] = list(domain.shape)
    return out


def domain_from_json(obj: dict) -> DomainSpec:
    """The domain ``domain_to_json`` wrote.  A ``dim`` or ``shape`` entry
    that is not a whole number is refused by name, not truncated."""
    kind = obj["kind"]

    def size(field: str, value) -> int:
        if type(value) is int or (type(value) is float
                                  and value.is_integer()):
            return int(value)
        raise ValueError(f"domain JSON of kind {kind!r} has {field} "
                         f"{value!r}; it must be a whole number")

    if kind == "disk":
        if obj.get("dim", 1) != 1:
            raise ValueError(f"domain JSON of kind 'disk' has dim "
                             f"{obj['dim']!r}; the disk has dimension 1")
        return unit_disk()
    if kind == "ball":
        return unit_ball(size("dim", obj["dim"]))
    if kind == "typeI":
        p, q = obj["shape"]
        return matrix_ball(size("shape", p), size("shape", q))
    if kind == "fullspace":
        return full_space(size("dim", obj["dim"]))
    raise ValueError(f"unknown domain kind {kind!r}")


def gram_to_json(gram: RadialGram) -> dict:
    """The Gram's report: its ``diagonal``, the B values in grlex order,
    and the ``moments`` R_{n-1}..R_{degree+n-1} that the diagonal and the
    kernel read.  A Monte Carlo Gram adds its ``seed`` and its ``stderr``:
    the standard errors of those moments, in order."""
    out = {
        "n": gram.domain.dim,
        "degree": gram.degree,
        "order": "grlex",
        "diagonal": gram.diagonal.tolist(),
        "moments": np.asarray(gram.moments)[gram.domain.dim - 1:].tolist(),
        "method": gram.method,
        "domain": domain_to_json(gram.domain),
        "weight": gram.weight_label,
    }
    if gram.stderr is not None:     # Monte Carlo
        out["seed"], out["stderr"] = gram.method["seed"], gram.stderr.tolist()
    return out
