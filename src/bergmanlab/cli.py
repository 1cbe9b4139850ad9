"""Command-line interface: configuration loading, dispatch, reports.

Verdict-producing commands encode their outcome in the exit code so shell
pipelines and CI can consume them directly:

    0   computation succeeded; any verdict passed
    1   a verdict failed (mismatch / violated / inconclusive / above tol)
    2   usage, configuration, or I/O error, or an arithmetic failure
        (overflow, division by zero) of the requested computation; the
        fiber-series and automorphism verdicts raise every floating-point
        overflow or invalid value as such a failure

Reports are canonical JSON (sorted keys, complex numbers as [re, im]) or
CSV for matrix/grid payloads, written to --out or stdout.  Reports carry no
wall-clock data, so a fixed configuration and seed reproduce byte-identical
output; BLAS threading is controlled by the usual OMP_NUM_THREADS /
OPENBLAS_NUM_THREADS variables and does not affect report contents.

``bergmanlab batch FILE|-`` runs many verdicts in one process: each
non-empty line of FILE (``-``: standard input) is the JSON list of one
command line, and each gives one JSON line holding its line number, exit
code, standard output and standard error text, in input order.  The batch
exits with the largest exit code of its lines (0 for no lines).  A plain
command line -- a verdict command and its flags, each with its value -- is
decoded from the command table and builds no argument parser; argparse
reads every other line and writes all help, usage and error text.  Between
verdicts the process keeps only each command's flag table, the argument
parser of a command that needed one, and the quadrature rules per node
count, none of which changes a report.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import jsonio
from .core import (
    MAX_POINTS,
    DomainKind,
    DomainSpec,
    Weight,
    as_points,
    full_space,
    gaussian_weight,
    generic_norm_weight,
    load_radial_profile,
    matrix_ball,
    polynomial_weight,
    sample_ball,
    sample_cube,
    unit_ball,
    unit_disk,
)
from .moments import (
    describe_weight,
    gram_auto,
    gram_exact,
    gram_montecarlo,
    gram_quadrature,
    gram_to_json,
    gram_validate,
    unit_mass_weight,
)
from .kernels import (
    PowerKernel,
    kernel_from_gram,
    kernel_from_json,
    kernel_to_json,
    weighted_kernel_closed_form,
)
# hartogs, automorphisms and characterize are imported by the handlers that
# use them, so that a command loads only the modules it runs


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration schema

_SCHEMA: dict[str, type] = {
    "domain": str, "weight": str, "weight2": str,
    "kernel": str, "map": str, "family": str, "method": str,
    "points_file": str, "out": str, "format": str,
    "mu": float, "tolerance": float, "radius": float, "rmax": float,
    "ridge": float, "step": float,
    "m": int, "n": int, "degree": int, "seed": int, "samples": int,
    "pairs": int, "points": int, "grid": int, "npts": int, "max_terms": int,
    "normalize": bool, "closed_form": bool,
}

_DEFAULTS = {"degree": 20, "tolerance": 1e-8, "seed": 0, "format": "json",
             "m": 1, "n": 1, "mu": 1.0}


def _validate_value(key: str, value):
    if key not in _SCHEMA:
        raise ConfigError(f"unknown configuration key {key!r}")
    want = _SCHEMA[key]
    if want is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, want) or (want is int and isinstance(value, bool)):
        raise ConfigError(f"key {key!r} must be of type {want.__name__}")
    if want is float and not math.isfinite(value):
        raise ConfigError(f"key {key!r} must be finite")
    if key == "degree" and not 0 <= value <= 64:
        raise ConfigError("key 'degree' must lie in [0, 64]")
    if key in ("tolerance", "step") and value <= 0:
        raise ConfigError(f"key {key!r} must be positive")
    if key in ("samples", "pairs", "points", "grid", "npts", "max_terms",
               "m", "n") and value < 1:
        raise ConfigError(f"key {key!r} must be >= 1")
    if key == "format" and value not in ("json", "csv"):
        raise ConfigError("key 'format' must be 'json' or 'csv'")
    if key in ("ridge", "mu", "radius", "rmax", "seed") and value < 0:
        raise ConfigError(f"key {key!r} must be >= 0")
    return value


def load_config(path: str) -> dict:
    """Strict-schema JSON configuration: unknown keys are rejected by name."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    raw = _json_object(raw, "config file")
    return {k: _validate_value(k, v) for k, v in raw.items()}


def _effective(args: argparse.Namespace) -> dict:
    """Merge file config and CLI flags; explicit flags win.  A config key
    the command does not read is refused by name."""
    keys = _keys(args.cmd)
    cfg = {k: v for k, v in _DEFAULTS.items() if k in keys}
    if args.config:
        file_cfg = load_config(args.config)
        for key in file_cfg:
            if key not in keys:
                raise ConfigError(f"{args.cmd} does not read configuration "
                                  f"key {key!r}")
        cfg.update(file_cfg)
    for key in _SCHEMA:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = _validate_value(key, val)
    cfg["command"] = args.cmd
    return cfg


# ---------------------------------------------------------------------------
# descriptor parsing

def parse_domain(spec: str) -> DomainSpec:
    """disk | ball:N | typei:PxQ | cn:N"""
    s = spec.strip().lower()
    kind, _, rest = s.partition(":")

    def sizes(count: int) -> list[int]:
        try:
            values = [int(part) for part in rest.split("x")]
        except ValueError:
            values = []
        if len(values) != count:
            form = "PxQ" if count == 2 else "N"
            raise ConfigError(f"--domain {spec!r}: expected {kind}:{form} "
                              f"with integer {' and '.join(form.split('x'))}")
        return values

    if s == "disk":
        return unit_disk()
    if kind == "ball":
        return unit_ball(*sizes(1))
    if kind == "typei":
        return matrix_ball(*sizes(2))
    if kind == "cn":
        return full_space(*sizes(1))
    raise ConfigError(f"cannot parse domain descriptor {spec!r}")


def parse_weight(spec: str, domain: DomainSpec) -> Weight:
    """gaussian:MU | npower:MU | poly:c0,c1,... | table:PATH | scaled:C:REST"""
    s = spec.strip()
    kind, _, rest = s.partition(":")
    kind = kind.lower()

    def number(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ConfigError(f"weight descriptor {spec!r} holds {text!r}; "
                              "its numbers must be finite")
        return value

    if kind == "gaussian":
        return gaussian_weight(domain.dim, number(rest))
    if kind == "npower":
        return generic_norm_weight(domain, number(rest))
    if kind == "poly":
        return polynomial_weight(domain, [number(c) for c in rest.split(",")])
    if kind == "table":
        return load_radial_profile(rest, domain)
    if kind == "scaled":
        factor, _, inner = rest.partition(":")
        return parse_weight(inner, domain).scaled(number(factor))
    raise ConfigError(f"cannot parse weight descriptor {spec!r}")


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must hold a JSON object, "
                          f"not {type(value).__name__}")
    return value


def _point_list(obj: dict, key: str, path: str) -> list:
    if key not in obj:
        raise ConfigError(f"points file {path} has no field {key!r}")
    points = obj[key]
    if not isinstance(points, list):
        raise ConfigError(f"{path}: {key!r} must hold a list of points, "
                          f"not {type(points).__name__}")
    return [jsonio.as_cpoint(p, f"points file {path} field {key!r} entry {i}")
            for i, p in enumerate(points)]


def _decode(parse, what: str, text: str, *args):
    """Build the ``what`` (kernel or map) from an inline JSON object or a
    path to one; a missing field or one of the wrong JSON type is a
    configuration error, not a traceback."""
    t = text.strip()
    obj = json.loads(t) if t.startswith("{") else \
        _json_object(json.loads(Path(t).read_text()), t)
    try:
        return parse(obj, *args)
    except KeyError as exc:
        raise ConfigError(f"{what} JSON has no field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ConfigError(f"malformed JSON argument: {exc}") from exc


def _domain_of(cfg: dict, default: str | None = None) -> DomainSpec:
    """The --domain of the command, refused unless of a kind it takes."""
    spec = cfg.get("domain", default)
    if spec is None:
        raise ConfigError("this command needs --domain")
    domain = parse_domain(spec)
    command = cfg["command"]
    forms = _COMMANDS[command].domains
    form = _FORMS[domain.kind]
    if form not in forms and form.replace("N", str(domain.dim)) not in forms:
        raise ConfigError(f"{command} does not take the domain {spec!r}; "
                          f"its --domain is {' | '.join(forms)}")
    return domain


def _diagonal_rows(diagonal: np.ndarray):
    """The CSV lines "i,j,re,im" of diag(diagonal), one per entry, joined
    into one text per matrix row, without forming the matrix."""
    yield "i,j,re,im"
    cells = [f",{j},0.0,0.0" for j in range(len(diagonal))]
    for i, re in enumerate(jsonio.float_reprs(diagonal).tolist()):
        zero, cells[i] = cells[i], f",{i},{re},0.0"
        yield str(i) + ("\n" + str(i)).join(cells)
        cells[i] = zero


def _count(cfg: dict, key: str, default: int, points_each: int = 1) -> int:
    """The count under key, refused by name before anything is drawn when
    its points_each points per item would overfill one draw."""
    count = cfg.get(key, default)
    if count * points_each > MAX_POINTS:
        raise ValueError(f"{key} = {count} asks for {count * points_each} "
                         f"points; one draw holds at most MAX_POINTS = "
                         f"{MAX_POINTS}")
    return count


# largest number of (z, w) pairs one kernel-eval evaluates and reports:
# its table and report grow with the pair count, which is refused before
# either is built
MAX_EVAL_PAIRS = 1 << 20


def _check_pairs(nz: int, nw: int) -> None:
    if nz * nw > MAX_EVAL_PAIRS:
        raise ValueError(f"{nz} z and {nw} w points make {nz * nw} pairs; "
                         f"kernel-eval evaluates at most MAX_EVAL_PAIRS = "
                         f"{MAX_EVAL_PAIRS}")


def _weight_of(cfg: dict, domain: DomainSpec, key: str = "weight") -> Weight:
    if key not in cfg:
        raise ConfigError(f"this command needs --{key.replace('_', '-')}")
    return parse_weight(cfg[key], domain)


# ---------------------------------------------------------------------------
# commands; each returns (report dict, failed flag, CSV lines or None)

def _cmd_gram(cfg: dict):
    domain = _domain_of(cfg)
    weight = _weight_of(cfg, domain)
    if cfg["m"] > 1:
        weight = weight.pow(cfg["m"])
    method = cfg.get("method", "auto")
    if method == "auto":
        gram = gram_auto(weight, cfg["degree"])
    elif method == "exact":
        gram = gram_exact(domain, weight, cfg["degree"])
    elif method == "quadrature":
        gram = gram_quadrature(domain, weight, cfg["degree"])
    elif method == "montecarlo":
        gram = gram_montecarlo(domain, weight, cfg["degree"],
                               cfg.get("samples", 100_000), cfg["seed"])
    else:
        raise ConfigError(f"unknown gram method {method!r}")
    rows = _diagonal_rows(gram.diagonal)
    if cfg["format"] == "csv":
        # the entries alone: no JSON report, no diagnostics
        return None, False, rows
    report = gram_to_json(gram)
    report["command"] = "gram"
    report["diagnostics"] = gram_validate(gram).as_dict()
    return report, False, rows


def _cmd_kernel_eval(cfg: dict):
    if "kernel" in cfg:
        model = _decode(kernel_from_json, "kernel", cfg["kernel"])
    else:
        domain = _domain_of(cfg)
        weight = _weight_of(cfg, domain)
        if cfg["m"] > 1:
            weight = weight.pow(cfg["m"])
        if cfg.get("closed_form"):
            model = weighted_kernel_closed_form(weight)
        else:
            model = kernel_from_gram(gram_auto(weight, cfg["degree"]))

    n = model.domain.dim
    if "points_file" in cfg:
        path = cfg["points_file"]
        obj = _json_object(json.loads(Path(path).read_text()), path)
        zs, ws = (_point_list(obj, key, path) for key in ("z", "w"))
        _check_pairs(len(zs), len(ws))
    else:
        if n != 1:
            raise ConfigError("--grid synthesis needs a one-dimensional base; "
                              "use --points-file")
        count = cfg.get("grid", 10)
        _check_pairs(count, count)
        radius = cfg.get("radius", 0.5)
        zs = ws = np.linspace(-radius, radius, count).reshape(count, 1)
    zs = as_points(zs, n)
    ws = as_points(ws, n)
    kernel = kernel_to_json(model)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            grid = model.eval_grid(zs, ws).tolist()
    except FloatingPointError as exc:
        raise FloatingPointError(f"the {kernel['form']} kernel is not finite "
                                 f"on these points ({exc})") from None

    rows = ["re(z),im(z),re(w),im(w),re(K),im(K)"]
    values = []
    for z, krow in zip(zs.tolist(), grid):
        for w, k in zip(ws.tolist(), krow):
            values.append({"z": jsonio.cpoint(z), "w": jsonio.cpoint(w),
                           "K": jsonio.cnum(k)})
            if n == 1:
                rows.append(",".join((repr(z[0].real), repr(z[0].imag),
                                      repr(w[0].real), repr(w[0].imag),
                                      repr(k.real), repr(k.imag))))
    report = {"command": "kernel-eval", "kernel": kernel, "values": values}
    return report, False, rows if n == 1 else None


# The fiber-series and automorphism verdicts evaluate closed forms over
# whole point arrays; there an overflow, an invalid value or a division by
# zero is an arithmetic failure (exit 2), never an inf or NaN to compare.
_ARITHMETIC_RAISES = np.errstate(over="raise", invalid="raise", divide="raise")


@_ARITHMETIC_RAISES
def _cmd_frc_check(cfg: dict):
    """Fiber series vs the closed ball kernel for the original construction.

    The Hartogs domain over the disk with weight 1 - |z|^2 and fiber
    dimension m is the unit ball of C^(1+m), whose Bergman kernel is known
    in closed form; the series must reproduce it pair by pair.  The pairs
    and the 20 zero-fiber restriction pairs, appended as rows with zero
    fibers, are summed in one batched call; the pairs are checked against
    the oracle at once and the restriction pairs against the closed kernel
    of the slice weight.
    """
    from .hartogs import (_FIRST_TERMS, MAX_TERM_TABLE, ClosedFormFamily,
                          HartogsDomain, ball_kernel, frc_eval_pairs,
                          frc_restriction_check)
    m = cfg["m"]
    # an arithmetic limit of the oracle, refused like the other float-range
    # failures (an "error:" line, exit 2) but before anything is drawn
    if m >= 170:
        raise ValueError(f"--m {m}: the ball oracle's constant "
                         "(m+1)!/pi^(m+1) starts from (m+1)!, which leaves "
                         "the float range from 171! on; frc-check takes "
                         "--m up to 169")
    tol = cfg["tolerance"]
    domain = HartogsDomain(unit_disk(), generic_norm_weight(unit_disk(), 1.0), m)
    family = ClosedFormFamily(domain)
    oracle = ball_kernel(1 + m)
    rng = np.random.default_rng(cfg["seed"])
    pairs = _count(cfg, "pairs", 100, points_each=2)
    max_terms = cfg.get("max_terms", 200)
    # the pairs and the restriction pairs are the rows of the series' first
    # pass, whose table is refused past MAX_TERM_TABLE entries
    first = min(_FIRST_TERMS, max_terms)
    most = MAX_TERM_TABLE // first - 20
    if pairs > most:
        raise ValueError(f"--pairs {pairs} and the 20 zero-fiber restriction "
                         f"pairs make {pairs + 20} rows x {first} terms, more "
                         f"than the MAX_TERM_TABLE = {MAX_TERM_TABLE} entries "
                         "of the fiber series' first pass; frc-check takes "
                         f"--pairs up to {most}")

    # per pair the base points z, z', then the radius ratios |zeta|/
    # sqrt(1 - |z|^2) < 0.7, then the phases of zeta and zeta'; then the
    # base points of the restriction pairs
    z = sample_ball(rng, 1, 0.9, 2 * pairs).reshape(pairs, 2)
    ratio = 0.7 * rng.random((pairs, 2))
    phase = np.exp(2j * np.pi * rng.random((pairs, 2 * m))).reshape(pairs, 2, m)
    rest = sample_ball(rng, 1, 0.5, 2 * 20).reshape(20, 2)
    zeta = ((ratio * np.sqrt(1.0 - np.abs(z) ** 2))[:, :, None] * phase
            / math.sqrt(m))
    Z, Z2, ZETA, ZETA2 = z[:, :1], z[:, 1:], zeta[:, 0], zeta[:, 1]
    zeros = np.zeros((20, m), dtype=complex)
    res = frc_eval_pairs(domain, (np.concatenate([Z, rest[:, :1]]),
                                  np.concatenate([ZETA, zeros])),
                         (np.concatenate([Z2, rest[:, 1:]]),
                          np.concatenate([ZETA2, zeros])),
                         family, max_terms=max_terms,
                         tol=1e-14)
    all_converged = bool(res.converged[:pairs].all())
    # the reported pair is the first to need the most terms; the errors
    # all sit at roundoff, where ulp noise would decide an argmax
    first_most = int(np.argmax(res.terms_used[:pairs]))
    terms_max = int(res.terms_used[first_most])
    worst_eval = res.pair(first_most).as_dict()
    ref = oracle(np.concatenate([Z, ZETA], axis=1),
                 np.concatenate([Z2, ZETA2], axis=1))
    worst = float(np.max(np.abs(res.value[:pairs] - ref) / np.abs(ref)))

    # zero-fiber restriction against the closed kernel of (1 - |z|^2)^m,
    # (m+1)/pi (1 - z conj(z'))^-(m+2), its constant written out rather than
    # taken from the Hua normalization the family's k = 0 term uses; the
    # series values are those of the rows appended above
    reference = PowerKernel(domain.base, float(m), (m + 1) / math.pi)
    worst_rest = float(np.max(frc_restriction_check(
        domain, rest[:, :1], rest[:, 1:], lambda *_: res.value[pairs:],
        reference=reference)))

    passed = worst <= tol and worst_rest <= tol and all_converged
    report = {"command": "frc-check", "fiber_dim": m, "pairs": pairs,
              "seed": cfg["seed"], "max_rel_error": worst,
              "max_restriction_residual": worst_rest,
              "max_terms_used": terms_max, "converged": bool(all_converged),
              "worst_pair_evaluation": worst_eval,
              "tolerance": tol, "passed": bool(passed)}
    return report, not passed, None


def _hartogs_and_map(cfg: dict):
    """The Hartogs domain of --domain, --weight and --m, and --map on it."""
    from .automorphisms import map_from_json
    from .hartogs import HartogsDomain
    domain = _domain_of(cfg)
    H = HartogsDomain(domain, _weight_of(cfg, domain), cfg["m"])
    if "map" not in cfg:
        raise ConfigError("this command needs --map")
    return H, _decode(map_from_json, "map", cfg["map"], H)


@_ARITHMETIC_RAISES
def _cmd_transform_check(cfg: dict):
    from .automorphisms import transform_residual
    H, aut = _hartogs_and_map(cfg)
    # the closed kernel of the slice weight where one exists, else its
    # radial series
    w = H.weight.pow(H.fiber_dim)
    try:
        slice_kernel = weighted_kernel_closed_form(w)
    except ValueError:
        slice_kernel = kernel_from_gram(gram_auto(w, cfg["degree"]))
    rng = np.random.default_rng(cfg["seed"])
    count = _count(cfg, "points", 8)
    radius = cfg.get("radius", 0.6 if H.base.bounded else 1.0)
    n = H.base.dim
    pts = sample_ball(rng, 1, radius, count) if n == 1 else \
        sample_cube(rng, n, radius, count) / math.sqrt(n)
    worst = transform_residual(aut, slice_kernel, pts)
    tol = cfg["tolerance"]
    report = {"command": "transform-check", "max_rel_residual": worst,
              "points": count, "seed": cfg["seed"], "tolerance": tol,
              "passed": bool(worst <= tol)}
    return report, worst > tol, None


@_ARITHMETIC_RAISES
def _cmd_jacobian_check(cfg: dict):
    from .automorphisms import jacobian_base_slice, jacobian_fd_matrix
    H, aut = _hartogs_and_map(cfg)
    rng = np.random.default_rng(cfg["seed"])
    count = _count(cfg, "points", 20)
    h = cfg.get("step", 1e-5)
    radius = cfg.get("radius", 0.6 if H.base.bounded else 1.0)
    tol = cfg["tolerance"]
    n, m = H.base.dim, H.fiber_dim
    Z = sample_cube(rng, n, radius, count) / math.sqrt(n)
    J, _ = jacobian_fd_matrix(aut, (Z, np.zeros((count, m), dtype=complex)), h)
    closed = jacobian_base_slice(aut, Z)
    worst = float(np.max(np.abs(closed - np.linalg.det(J))))
    worst_block = float(np.max(np.abs(J[:, :n, n:])))
    passed = worst <= tol
    report = {"command": "jacobian-check", "max_det_difference": worst,
              "max_offblock": worst_block, "points": count, "step": h,
              "seed": cfg["seed"], "tolerance": tol, "passed": bool(passed)}
    return report, not passed, None


def _cmd_moment_mismatch(cfg: dict):
    from .characterize import moment_mismatch
    domain = _domain_of(cfg)
    w1 = _weight_of(cfg, domain, "weight")
    w2 = _weight_of(cfg, domain, "weight2")
    if cfg.get("normalize"):
        w1 = unit_mass_weight(w1)
        w2 = unit_mass_weight(w2)
    res = moment_mismatch(w1, w2, cfg["degree"])
    tol = cfg["tolerance"]
    mismatched = res.norm > tol
    report = {"command": "moment-mismatch", "degree": res.degree,
              "frobenius_norm": res.frobenius, "max_abs": res.max_abs,
              "normalized": bool(cfg.get("normalize", False)),
              "tolerance": tol,
              "verdict": "mismatch" if mismatched else "match"}
    return report, mismatched, _diagonal_rows(res.difference)


def _cmd_recover_weight(cfg: dict):
    from .characterize import moment_table, recover_weight
    domain = _domain_of(cfg)
    weight = _weight_of(cfg, domain)
    table = moment_table(weight, cfg["degree"])
    rec = recover_weight(table, ridge=cfg.get("ridge", 0.0))
    report = {"command": "recover-weight", "basis": rec.basis,
              "degree": cfg["degree"], "ridge": cfg.get("ridge", 0.0),
              "coefficients": [float(c) for c in rec.coefficients],
              "residual": rec.residual, "condition": rec.condition,
              "weight": describe_weight(rec.weight)}
    return report, False, None


def _cmd_characterize_fbh(cfg: dict):
    from .characterize import characterize_fbh
    domain = full_space(cfg["n"])
    weight = _weight_of(cfg, domain)
    kwargs = {k: cfg[k] for k in ("rmax", "npts") if k in cfg}
    rep = characterize_fbh(weight, cfg["m"], cfg["mu"], cfg["degree"],
                           seed=cfg["seed"], **kwargs)
    report = {"command": "characterize-fbh", **rep.as_dict()}
    return report, rep.verdict != "match", None


def _cmd_characterize_ch(cfg: dict):
    from .characterize import characterize_ch
    domain = _domain_of(cfg, default="disk")
    weight = _weight_of(cfg, domain)
    kwargs = {k: cfg[k] for k in ("rmax", "npts") if k in cfg}
    rep = characterize_ch(weight, cfg["m"], cfg["mu"], cfg["degree"],
                          seed=cfg["seed"], **kwargs)
    report = {"command": "characterize-ch", **rep.as_dict()}
    return report, rep.verdict != "match", None


def _cmd_boundary_check(cfg: dict):
    from .characterize import boundary_inequality_check
    domain = full_space(cfg["n"])
    weight = _weight_of(cfg, domain)
    rng = np.random.default_rng(cfg["seed"])
    count = _count(cfg, "samples", 64)
    samples = sample_cube(rng, domain.dim, cfg.get("radius", 1.5), count)
    rep = boundary_inequality_check(weight, cfg["mu"], samples,
                                    tol=cfg["tolerance"])
    report = {"command": "boundary-check", **rep.as_dict(),
              "samples": count, "seed": cfg["seed"]}
    return report, rep.verdict != "equality", None


def _cmd_family_check(cfg: dict):
    from .automorphisms import make_fbh_map, thullen_mobius
    from .characterize import family_condition_check
    from .hartogs import HartogsDomain
    family = cfg.get("family", "fbh")
    rng = np.random.default_rng(cfg["seed"])
    count = _count(cfg, "points", 6)
    # the families as stacks of maps: fbh is the identity and one stack of
    # count translations over C^n, thullen one stack of count Moebius maps
    if family == "fbh":
        n = cfg["n"]
        domain = HartogsDomain(full_space(n), gaussian_weight(n, cfg["mu"]),
                               cfg["m"])
        maps = [make_fbh_map(domain, "base_unitary",
                             matrix=np.eye(n, dtype=complex)),
                make_fbh_map(domain, "translation",
                             v=sample_cube(rng, n, 0.8, count) / math.sqrt(n))]
    elif family == "thullen":
        # the Thullen domain is the disk with one fiber dimension
        for key in ("n", "m"):
            if cfg[key] != 1:
                raise ConfigError(f"--{key} {cfg[key]}: the thullen family "
                                  f"is fixed at n = m = 1; give --{key} 1 "
                                  "or leave it out")
        domain = HartogsDomain(unit_disk(),
                               generic_norm_weight(unit_disk(), cfg["mu"]), 1)
        maps = [thullen_mobius(domain, sample_ball(rng, 1, 0.6, count)[:, 0])]
    else:
        raise ConfigError(f"unknown family {family!r}; use fbh or thullen")
    rep = family_condition_check(domain, maps, cfg["degree"],
                                 tol=cfg["tolerance"])
    report = {"command": "family-check", "family": family, **rep.as_dict()}
    return report, not rep.passed, None


# argparse options of a flag beyond the type its _SCHEMA key gives it
_OPTIONS = {
    "config": dict(help="JSON config file; flags override it"),
    "out": dict(help="output path (default stdout)"),
    "format": dict(choices=["json", "csv"]),
    "weight": dict(help="gaussian:MU | npower:MU | poly:c0,c1,.. | "
                        "table:PATH | scaled:C:SPEC"),
    "kernel": dict(help="kernel JSON (inline or path)"),
    "map": dict(help="map JSON (inline or path)"),
    "m": dict(help="fiber dimension / weight power"),
    "n": dict(help="complex dimension of the C^n base"),
    "method": dict(choices=["auto", "exact", "quadrature", "montecarlo"]),
    "family": dict(choices=["fbh", "thullen"]),
    "normalize": dict(help="rescale both weights to unit mass first"),
}

# the descriptor form of each domain kind, as --domain help names it; the
# disk is ball:1, so a command takes it by ball:N or ball:1 and names it
# "disk" besides
_FORMS = {DomainKind.UNIT_BALL: "ball:N",
          DomainKind.TYPE_I_MATRIX_BALL: "typei:PxQ",
          DomainKind.FULL_SPACE: "cn:N"}
_RADIAL = ("disk", "ball:N", "cn:N")


class _Command(NamedTuple):
    """A command: its handler, its help line, the configuration keys the
    handler reads, one flag each, and the domain forms its --domain takes
    (none, no --domain; ``ball:1`` rather than ``ball:N`` for one
    dimension only).  Every command also takes --out and --format."""
    handler: Callable
    help: str
    keys: str
    domains: tuple = ()


_COMMANDS = {
    "gram": _Command(
        _cmd_gram, "assemble a Gram matrix of monomials",
        "weight m degree method samples seed", _RADIAL),
    "kernel-eval": _Command(
        _cmd_kernel_eval, "evaluate a kernel model on points or a grid",
        "kernel weight m degree closed_form points_file grid radius",
        ("disk", *_FORMS.values())),
    "frc-check": _Command(
        _cmd_frc_check, "fiber series vs the closed ball-kernel oracle "
                        "(disk, weight 1 - |z|^2)",
        "m pairs max_terms seed tolerance"),
    "transform-check": _Command(
        _cmd_transform_check, "kernel transformation law along a map",
        "weight m map degree points radius seed tolerance", _RADIAL),
    "jacobian-check": _Command(
        _cmd_jacobian_check, "closed-form vs finite-difference Jacobians",
        "weight m map points step radius seed tolerance", _RADIAL),
    "moment-mismatch": _Command(
        _cmd_moment_mismatch, "difference of two weights' moment tables",
        "weight weight2 degree normalize tolerance", _RADIAL),
    "recover-weight": _Command(
        _cmd_recover_weight, "invert radial moments to a weight profile",
        "weight degree ridge", ("disk", "ball:1", "cn:1")),
    "characterize-fbh": _Command(
        _cmd_characterize_fbh,
        "is the weighted kernel a Gaussian model kernel?",
        "n weight m mu degree rmax npts seed"),
    "characterize-ch": _Command(
        _cmd_characterize_ch, "is the weighted kernel a generic-norm power?",
        "weight m mu degree rmax npts seed", ("disk", "ball:N")),
    "boundary-check": _Command(
        _cmd_boundary_check, "boundary inequality p(z)e^{mu|z|^2} vs p(0)",
        "n weight mu samples radius seed tolerance"),
    "family-check": _Command(
        _cmd_family_check, "shared-constant Jacobian/kernel family condition",
        "family n m mu degree points seed tolerance"),
}


# every command line's first word: a verdict command or the batch runner
_EVERY = (*_COMMANDS, "batch")


@functools.cache
def _flags(name: str) -> tuple:
    """The keys of the command's flags, in the order its parser adds them:
    --config, --out, --format, --domain if it takes one, then the
    configuration keys its handler reads."""
    command = _COMMANDS[name]
    return ("config", "out", "format", *("domain",) * bool(command.domains),
            *command.keys.split())


def _keys(name: str) -> set:
    """The configuration keys the command reads."""
    return set(_flags(name)) - {"config"}


def _flag_words(key: str) -> list:
    """The words of a key's flag: --key-name, and --tol for tolerance."""
    return ["--" + key.replace("_", "-")] + ["--tol"] * (key == "tolerance")


def _add_flag(parser: argparse.ArgumentParser, key: str, **options) -> None:
    """The flag of a configuration key, typed as _SCHEMA types the key."""
    kind = _SCHEMA.get(key, str)     # --config has no key
    if kind is bool:
        options.update(action="store_true", default=None)
    elif kind is not str:
        options["type"] = kind
    parser.add_argument(*_flag_words(key), **options, **_OPTIONS.get(key, {}))


# ---------------------------------------------------------------------------
# emission

def emit_report(report: dict, fmt: str, path: str | None,
                csv_rows=None) -> None:
    """Write the report as canonical JSON, or its CSV lines, to path or
    stdout.  The file is opened only once the whole text is built, so a
    refused report leaves none; it is truncated if it exists, else created
    with mode 0o666 less the umask as ``open`` creates it, and written by
    ``os.write`` until every byte is out."""
    if fmt == "csv":
        if csv_rows is None:
            raise ConfigError("this command has no CSV representation; use json")
        text = "\n".join(csv_rows) + "\n"
    else:
        text = jsonio.canonical_dumps(report) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    data = text.encode()    # reports are ASCII
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache
def _build_parser(names: tuple = _EVERY) -> argparse.ArgumentParser:
    """The parser with the subcommands ``names``, built once per process
    and names and then reused: parsing leaves a parser as it was, and help
    reads the terminal width when it is printed.  Built with one of them,
    it still names every command in its usage line, so its usage errors
    read as those of the whole table.  A flag is never abbreviated, so one
    the command does not take is refused by name.  ``commands`` maps each
    name to its command's own parser."""
    p = argparse.ArgumentParser(
        prog="bergmanlab",
        description="Weighted Bergman kernels, Hartogs domain series, "
                    "automorphism checks, and moment-uniqueness verdicts.")
    every = "{" + ",".join(_EVERY) + "}"
    sub = p.add_subparsers(dest="cmd", required=True,
                           metavar=None if len(names) == len(_EVERY)
                           else every)
    p.commands = {}
    for name in names:
        if name == "batch":
            sp = p.commands[name] = sub.add_parser(
                "batch", allow_abbrev=False,
                help="run one command line per line of FILE in this process")
            sp.add_argument("file", metavar="FILE|-",
                            help="JSON lists of command-line words, one per "
                                 "line; - reads standard input")
            continue
        command = _COMMANDS[name]
        sp = p.commands[name] = sub.add_parser(name, help=command.help,
                                               allow_abbrev=False)
        for key in _flags(name):
            options = {"help": " | ".join(command.domains)} \
                if key == "domain" else {}
            _add_flag(sp, key, **options)
    return p


@functools.cache
def _flag_table(name: str) -> dict:
    """Every flag word of the command -> its key, the type _SCHEMA gives
    the key, and the values _OPTIONS allows it (None: any value)."""
    return {word: (key, _SCHEMA.get(key, str),
                   _OPTIONS.get(key, {}).get("choices"))
            for key in _flags(name) for word in _flag_words(key)}


def _decode_plain(name: str, words: list) -> argparse.Namespace | None:
    """The namespace the command's parser gives for words of the form
    (--flag VALUE | --bool-flag)*, read off its flag table without
    building the parser: each value converted by its key's type and
    checked against its choices, the last repeat winning, every flag not
    given None.  None for any other words -- a flag the command does not
    take, --flag=value, -h, a stray word, a missing value, one that starts
    with "-", or one its type or choices refuse -- which only argparse
    answers."""
    table = _flag_table(name)
    values = dict.fromkeys(_flags(name))
    words = iter(words)
    for word in words:
        flag = table.get(word)
        if flag is None:
            return None
        key, kind, choices = flag
        if kind is bool:
            values[key] = True
            continue
        value = next(words, None)
        if value is None or value.startswith("-"):
            return None
        if kind is not str:
            try:
                value = kind(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[key] = value
    return argparse.Namespace(cmd=name, **values)


# ---------------------------------------------------------------------------
# many verdicts in one process

def _batch_line(line: str, number: int) -> int:
    """The exit code of one batch line, run through main."""
    try:
        argv = json.loads(line)
    except json.JSONDecodeError:
        argv = None
    if not isinstance(argv, list) or not all(isinstance(a, str)
                                             for a in argv):
        print(f"config error: batch line {number} is not a JSON list of "
              "strings", file=sys.stderr)
        return 2
    if argv[:1] == ["batch"]:
        print(f"config error: batch line {number} is a batch itself",
              file=sys.stderr)
        return 2
    return main(argv)


def _run_batch(path: str) -> int:
    """Run every non-empty line of the file (``-``: standard input), a JSON
    list of command-line words, through main in this process, and write
    for each one a JSON line, keys sorted, with its line number, exit code
    and captured standard output and error.  Returns the largest exit code.

    Each line starts with fresh warning registries, so a warning shows as
    it would in a process of its own."""
    try:
        source = contextlib.nullcontext(sys.stdin) if path == "-" else \
            open(path, encoding="utf-8", errors="replace")
    except OSError as exc:
        print(f"error: cannot read batch file {path}: {exc}", file=sys.stderr)
        return 2
    worst = 0
    with source as lines:
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), warnings.catch_warnings():
                code = _batch_line(line, number)
            worst = max(worst, code)
            sys.stdout.write(json.dumps(
                {"line": number, "exit_code": code, "stdout": out.getvalue(),
                 "stderr": err.getvalue()}, sort_keys=True) + "\n")
            sys.stdout.flush()
    return worst


def _parse(argv: list) -> argparse.Namespace:
    """The command line's namespace.  A plain line of a verdict command,
    only its flags with their values, is decoded from the flag table and
    builds no parser.  Any other line of a known command goes to that
    command's own parser; only words it leaves over go through the whole
    parser, which reports them as unrecognized with its usage line.  -h
    and unknown commands get the parser of every command.  So argparse
    alone writes help, usage and error text."""
    if argv[:1] and argv[0] in _COMMANDS:
        args = _decode_plain(argv[0], argv[1:])
        if args is not None:
            return args
    if argv[:1] and argv[0] in _EVERY:
        parser = _build_parser((argv[0],))
        args, rest = parser.commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(cmd=argv[0]))
        if not rest:
            return args
    else:
        parser = _build_parser()
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.cmd == "batch":
        return _run_batch(args.file)
    try:
        cfg = _effective(args)
        report, failed, csv_rows = _COMMANDS[args.cmd].handler(cfg)
        emit_report(report, cfg["format"], cfg.get("out"), csv_rows)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError, json.JSONDecodeError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
