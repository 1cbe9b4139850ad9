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
OPENBLAS_NUM_THREADS variables and does not affect report contents, except
that ``gram --method montecarlo`` sums its samples with BLAS matrix
products, so its entries can change in the last digit with the thread
count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import jsonio
from .core import (
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
from .hartogs import (
    ClosedFormFamily,
    HartogsDomain,
    ball_kernel,
    frc_eval_pairs,
    frc_restriction_check,
)
from .automorphisms import (
    jacobian_base_slice,
    jacobian_fd_matrix,
    map_from_json,
    make_fbh_map,
    thullen_mobius,
    transform_residual,
)
from .characterize import (
    boundary_inequality_check,
    characterize_ch,
    characterize_fbh,
    family_condition_check,
    moment_mismatch,
    moment_table,
    recover_weight,
)


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration schema

_SCHEMA: dict[str, type] = {
    "command": str, "domain": str, "weight": str, "weight2": str,
    "kernel": str, "map": str, "family": str, "basis": str, "method": str,
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
    if key == "tolerance" and value <= 0:
        raise ConfigError("key 'tolerance' must be positive")
    if key in ("samples", "pairs", "points", "grid", "npts", "max_terms",
               "m", "n") and value < 1:
        raise ConfigError(f"key {key!r} must be >= 1")
    if key == "format" and value not in ("json", "csv"):
        raise ConfigError("key 'format' must be 'json' or 'csv'")
    if key in ("ridge", "step", "mu", "radius", "rmax") and value < 0:
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
    """Merge file config and CLI flags; explicit flags win."""
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        file_cfg = load_config(args.config)
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
    if s == "disk":
        return unit_disk()
    if s.startswith("ball:"):
        return unit_ball(int(s.split(":", 1)[1]))
    if s.startswith("typei:"):
        p, q = s.split(":", 1)[1].split("x")
        return matrix_ball(int(p), int(q))
    if s.startswith("cn:"):
        return full_space(int(s.split(":", 1)[1]))
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
    points = obj[key]
    if not isinstance(points, list):
        raise ConfigError(f"{path}: {key!r} must hold a list of points, "
                          f"not {type(points).__name__}")
    return [jsonio.as_cpoint(p) for p in points]


def _load_json_arg(text: str) -> dict:
    """Inline JSON object or a path to one."""
    t = text.strip()
    if t.startswith("{"):
        return json.loads(t)
    return _json_object(json.loads(Path(t).read_text()), t)


def _decode(parse, text: str, *args):
    """Build a kernel or map from a JSON argument; a field of the wrong JSON
    type is a configuration error, not a traceback."""
    obj = _load_json_arg(text)
    try:
        return parse(obj, *args)
    except TypeError as exc:
        raise ConfigError(f"malformed JSON argument: {exc}") from exc


def _domain_of(cfg: dict, default: str | None = None) -> DomainSpec:
    spec = cfg.get("domain", default)
    if spec is None:
        raise ConfigError("this command needs --domain")
    return parse_domain(spec)


def _matrix_rows(matrix: np.ndarray):
    """CSV rows (i, j, re, im) of a complex matrix, as plain numbers; made
    only when a CSV report consumes them."""
    yield ("i", "j", "re", "im")
    for i, row in enumerate(matrix.tolist()):
        for j, z in enumerate(row):
            yield (i, j, repr(z.real), repr(z.imag))


def _weight_of(cfg: dict, domain: DomainSpec, key: str = "weight") -> Weight:
    if key not in cfg:
        raise ConfigError(f"this command needs --{key.replace('_', '-')}")
    return parse_weight(cfg[key], domain)


# ---------------------------------------------------------------------------
# commands; each returns (report dict, failed flag, payload for csv)

def _cmd_gram(cfg: dict):
    domain = _domain_of(cfg)
    weight = _weight_of(cfg, domain)
    if cfg.get("m", 1) > 1:
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
    report = gram_to_json(gram)
    report["command"] = "gram"
    report["diagnostics"] = gram_validate(gram).as_dict()
    return report, False, _matrix_rows(gram.entries)


def _cmd_kernel_eval(cfg: dict):
    if "kernel" in cfg:
        model = _decode(kernel_from_json, cfg["kernel"])
    else:
        domain = _domain_of(cfg)
        weight = _weight_of(cfg, domain)
        if cfg.get("m", 1) > 1:
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
    else:
        if n != 1:
            raise ConfigError("--grid synthesis needs a one-dimensional base; "
                              "use --points-file")
        count = cfg.get("grid", 10)
        radius = cfg.get("radius", 0.5)
        zs = ws = np.linspace(-radius, radius, count).reshape(count, 1)
    zs = as_points(zs, n)
    ws = as_points(ws, n)
    grid = model.eval_grid(zs, ws).tolist()

    rows = [("re(z)", "im(z)", "re(w)", "im(w)", "re(K)", "im(K)")]
    values = []
    for z, krow in zip(zs.tolist(), grid):
        for w, k in zip(ws.tolist(), krow):
            values.append({"z": jsonio.cpoint(z), "w": jsonio.cpoint(w),
                           "K": jsonio.cnum(k)})
            if n == 1:
                rows.append((repr(z[0].real), repr(z[0].imag),
                             repr(w[0].real), repr(w[0].imag),
                             repr(k.real), repr(k.imag)))
    report = {"command": "kernel-eval", "kernel": kernel_to_json(model),
              "values": values}
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
    in closed form; the series must reproduce it pair by pair.  All pairs
    are summed in one batched call and checked against the oracle at once.
    """
    m = cfg["m"]
    tol = cfg["tolerance"]
    domain = HartogsDomain(unit_disk(), generic_norm_weight(unit_disk(), 1.0), m)
    family = ClosedFormFamily(domain)
    oracle = ball_kernel(1 + m)
    rng = np.random.default_rng(cfg["seed"])
    pairs = cfg.get("pairs", 100)

    # (z, zeta, z2, zeta2) per pair, drawn in the order of the generator
    drawn = []
    for _ in range(pairs):
        z, z2 = (complex(p[0]) for p in sample_ball(rng, 1, 0.9, 2))
        pz = 1.0 - abs(z) ** 2
        pz2 = 1.0 - abs(z2) ** 2
        ratio = 0.7 * rng.random(2)
        phase = np.exp(2j * np.pi * rng.random(2 * m))
        drawn.append(([z], ratio[0] * math.sqrt(pz) * phase[:m] / math.sqrt(m),
                      [z2], ratio[1] * math.sqrt(pz2) * phase[m:] / math.sqrt(m)))
    Z, ZETA, Z2, ZETA2 = (np.array(col).reshape(pairs, -1)
                          for col in zip(*drawn))
    res = frc_eval_pairs(domain, (Z, ZETA), (Z2, ZETA2), family,
                         max_terms=cfg.get("max_terms", 200), tol=1e-14)
    all_converged = bool(res.converged.all())
    # the reported pair is the first to need the most terms; the errors
    # all sit at roundoff, where ulp noise would decide an argmax
    first_most = int(np.argmax(res.terms_used))
    terms_max = int(res.terms_used[first_most])
    worst_eval = res.pair(first_most).as_dict()
    ref = oracle(np.concatenate([Z, ZETA], axis=1),
                 np.concatenate([Z2, ZETA2], axis=1))
    worst = float(np.max(np.abs(res.value - ref) / np.abs(ref)))

    # zero-fiber restriction against the closed kernel of (1 - |z|^2)^m,
    # (m+1)/pi (1 - z conj(z'))^-(m+2), its constant written out rather than
    # taken from the Hua normalization the family's k = 0 term uses
    reference = PowerKernel(domain.base, float(m), (m + 1) / math.pi)
    rest = np.array(sample_ball(rng, 1, 0.5, 2 * 20)).reshape(20, 2)
    worst_rest = float(np.max(frc_restriction_check(
        domain, rest[:, :1], rest[:, 1:],
        lambda a, b: frc_eval_pairs(domain, a, b, family).value,
        reference=reference)))

    passed = worst <= tol and worst_rest <= tol and all_converged
    report = {"command": "frc-check", "fiber_dim": m, "pairs": pairs,
              "seed": cfg["seed"], "max_rel_error": worst,
              "max_restriction_residual": worst_rest,
              "max_terms_used": terms_max, "converged": bool(all_converged),
              "worst_pair_evaluation": worst_eval,
              "tolerance": tol, "passed": bool(passed)}
    return report, not passed, None


def _hartogs_of(cfg: dict) -> HartogsDomain:
    domain = _domain_of(cfg)
    weight = _weight_of(cfg, domain)
    return HartogsDomain(domain, weight, cfg["m"])


def _slice_kernel_of(cfg: dict, H: HartogsDomain):
    w = H.weight.pow(H.fiber_dim)
    if cfg.get("closed_form", True):
        try:
            return weighted_kernel_closed_form(w)
        except ValueError:
            pass
    return kernel_from_gram(gram_auto(w, cfg["degree"]))


def _map_of(cfg: dict, H: HartogsDomain):
    if "map" not in cfg:
        raise ConfigError("this command needs --map")
    return _decode(map_from_json, cfg["map"], H)


@_ARITHMETIC_RAISES
def _cmd_transform_check(cfg: dict):
    H = _hartogs_of(cfg)
    aut = _map_of(cfg, H)
    slice_kernel = _slice_kernel_of(cfg, H)
    rng = np.random.default_rng(cfg["seed"])
    count = cfg.get("points", 8)
    radius = cfg.get("radius", 0.6 if H.base.bounded else 1.0)
    pts = sample_ball(rng, 1, radius, count) if H.base.dim == 1 else \
        [(rng.uniform(-radius, radius, H.base.dim)
          + 1j * rng.uniform(-radius, radius, H.base.dim)) / math.sqrt(H.base.dim)
         for _ in range(count)]
    worst = transform_residual(aut, slice_kernel, pts)
    tol = cfg["tolerance"]
    report = {"command": "transform-check", "max_rel_residual": worst,
              "points": count, "seed": cfg["seed"], "tolerance": tol,
              "passed": bool(worst <= tol)}
    return report, worst > tol, None


@_ARITHMETIC_RAISES
def _cmd_jacobian_check(cfg: dict):
    H = _hartogs_of(cfg)
    aut = _map_of(cfg, H)
    rng = np.random.default_rng(cfg["seed"])
    count = cfg.get("points", 20)
    h = cfg.get("step", 1e-5)
    radius = cfg.get("radius", 0.6 if H.base.bounded else 1.0)
    tol = cfg["tolerance"]
    n, m = H.base.dim, H.fiber_dim
    # per point the real parts, then the imaginary parts
    draws = rng.uniform(-radius, radius, (count, 2, n))
    Z = (draws[:, 0] + 1j * draws[:, 1]) / math.sqrt(n)
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
    return report, mismatched, _matrix_rows(res.difference)


def _cmd_recover_weight(cfg: dict):
    domain = _domain_of(cfg)
    weight = _weight_of(cfg, domain)
    table = moment_table(weight, cfg["degree"])
    basis = cfg.get("basis")
    if basis is not None:
        basis = basis.replace("-", "_")
    rec = recover_weight(table, basis=basis, ridge=cfg.get("ridge", 0.0))
    report = {"command": "recover-weight", "basis": rec.basis,
              "degree": cfg["degree"], "ridge": cfg.get("ridge", 0.0),
              "coefficients": [float(c) for c in rec.coefficients],
              "residual": rec.residual, "condition": rec.condition,
              "weight": describe_weight(rec.weight)}
    return report, False, None


def _cmd_characterize_fbh(cfg: dict):
    domain = full_space(cfg["n"])
    weight = _weight_of(cfg, domain)
    kwargs = {}
    if "rmax" in cfg:
        kwargs["rmax"] = cfg["rmax"]
    if "npts" in cfg:
        kwargs["npts"] = cfg["npts"]
    rep = characterize_fbh(weight, cfg["m"], cfg["mu"], cfg["degree"],
                           seed=cfg["seed"], **kwargs)
    report = {"command": "characterize-fbh", **rep.as_dict()}
    return report, rep.verdict != "match", None


def _cmd_characterize_ch(cfg: dict):
    domain = _domain_of(cfg, default="disk")
    weight = _weight_of(cfg, domain)
    kwargs = {}
    if "rmax" in cfg:
        kwargs["rmax"] = cfg["rmax"]
    if "npts" in cfg:
        kwargs["npts"] = cfg["npts"]
    rep = characterize_ch(weight, cfg["m"], cfg["mu"], cfg["degree"],
                          seed=cfg["seed"], **kwargs)
    report = {"command": "characterize-ch", **rep.as_dict()}
    return report, rep.verdict != "match", None


def _cmd_boundary_check(cfg: dict):
    domain = full_space(cfg["n"])
    weight = _weight_of(cfg, domain)
    rng = np.random.default_rng(cfg["seed"])
    count = cfg.get("samples", 64)
    radius = cfg.get("radius", 1.5)
    n = domain.dim
    samples = [(rng.uniform(-radius, radius, n)
                + 1j * rng.uniform(-radius, radius, n)) for _ in range(count)]
    rep = boundary_inequality_check(weight, cfg["mu"], samples,
                                    tol=cfg.get("tolerance", 1e-10))
    report = {"command": "boundary-check", **rep.as_dict(),
              "samples": count, "seed": cfg["seed"]}
    return report, rep.verdict != "equality", None


def _cmd_family_check(cfg: dict):
    family = cfg.get("family", "fbh")
    rng = np.random.default_rng(cfg["seed"])
    count = cfg.get("points", 6)
    if family == "fbh":
        domain = HartogsDomain(full_space(cfg["n"]),
                               gaussian_weight(cfg["n"], cfg["mu"]), cfg["m"])
        maps = [make_fbh_map(domain, "base_unitary",
                             matrix=np.eye(cfg["n"], dtype=complex))]
        for _ in range(count):
            v = (rng.uniform(-0.8, 0.8, cfg["n"])
                 + 1j * rng.uniform(-0.8, 0.8, cfg["n"])) / math.sqrt(cfg["n"])
            maps.append(make_fbh_map(domain, "translation", v=v))
    elif family == "thullen":
        domain = HartogsDomain(unit_disk(),
                               generic_norm_weight(unit_disk(), cfg["mu"]), 1)
        maps = [thullen_mobius(domain, z[0])
                for z in sample_ball(rng, 1, 0.6, count)]
    else:
        raise ConfigError(f"unknown family {family!r}; use fbh or thullen")
    rep = family_condition_check(domain, maps, cfg["degree"],
                                 tol=cfg.get("tolerance", 1e-9))
    report = {"command": "family-check", "family": family, **rep.as_dict()}
    return report, not rep.passed, None


_COMMANDS = {
    "gram": _cmd_gram,
    "kernel-eval": _cmd_kernel_eval,
    "frc-check": _cmd_frc_check,
    "transform-check": _cmd_transform_check,
    "jacobian-check": _cmd_jacobian_check,
    "moment-mismatch": _cmd_moment_mismatch,
    "recover-weight": _cmd_recover_weight,
    "characterize-fbh": _cmd_characterize_fbh,
    "characterize-ch": _cmd_characterize_ch,
    "boundary-check": _cmd_boundary_check,
    "family-check": _cmd_family_check,
}


# ---------------------------------------------------------------------------
# emission

def emit_report(report: dict, fmt: str, path: str | None,
                csv_rows=None) -> None:
    """Write the report as canonical JSON or CSV to path or stdout."""
    if fmt == "csv":
        if csv_rows is None:
            raise ConfigError("this command has no CSV representation; use json")
        text = "\n".join(",".join(str(c) for c in row) for row in csv_rows) + "\n"
    else:
        text = jsonio.canonical_dumps(report) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file; flags override it")
    shared.add_argument("--out", help="output path (default stdout)")
    shared.add_argument("--format", choices=["json", "csv"])
    shared.add_argument("--degree", type=int)
    shared.add_argument("--tolerance", "--tol", dest="tolerance", type=float)
    shared.add_argument("--seed", type=int)
    shared.add_argument("--domain", help="disk | ball:N | typei:PxQ | cn:N")
    shared.add_argument("--weight",
                        help="gaussian:MU | npower:MU | poly:c0,c1,.. | "
                             "table:PATH | scaled:C:SPEC")
    shared.add_argument("--m", type=int, help="fiber dimension / weight power")
    shared.add_argument("--n", type=int, help="complex dimension of C^n bases")
    shared.add_argument("--mu", type=float)

    p = argparse.ArgumentParser(
        prog="bergmanlab",
        description="Weighted Bergman kernels, Hartogs domain series, "
                    "automorphism checks, and moment-uniqueness verdicts.")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("gram", parents=[shared],
                        help="assemble a Gram matrix of monomials")
    sp.add_argument("--method", choices=["auto", "exact", "quadrature",
                                         "montecarlo"])
    sp.add_argument("--samples", type=int)

    sp = sub.add_parser("kernel-eval", parents=[shared],
                        help="evaluate a kernel model on points or a grid")
    sp.add_argument("--kernel", help="kernel JSON (inline or path)")
    sp.add_argument("--points-file", dest="points_file")
    sp.add_argument("--grid", type=int)
    sp.add_argument("--radius", type=float)
    sp.add_argument("--closed-form", dest="closed_form", action="store_true",
                    default=None)

    sp = sub.add_parser("frc-check", parents=[shared],
                        help="fiber series vs the closed ball-kernel oracle")
    sp.add_argument("--pairs", type=int)
    sp.add_argument("--max-terms", dest="max_terms", type=int)

    sp = sub.add_parser("transform-check", parents=[shared],
                        help="kernel transformation law along a map")
    sp.add_argument("--map", help="map JSON (inline or path)")
    sp.add_argument("--points", type=int)
    sp.add_argument("--radius", type=float)
    sp.add_argument("--closed-form", dest="closed_form", action="store_true",
                    default=None)

    sp = sub.add_parser("jacobian-check", parents=[shared],
                        help="closed-form vs finite-difference Jacobians")
    sp.add_argument("--map", help="map JSON (inline or path)")
    sp.add_argument("--points", type=int)
    sp.add_argument("--step", type=float)
    sp.add_argument("--radius", type=float)

    sp = sub.add_parser("moment-mismatch", parents=[shared],
                        help="difference of two weights' moment tables")
    sp.add_argument("--weight2")
    sp.add_argument("--normalize", action="store_true", default=None,
                    help="rescale both weights to unit mass first")

    sp = sub.add_parser("recover-weight", parents=[shared],
                        help="invert radial moments to a weight profile")
    sp.add_argument("--basis", choices=["shifted-legendre", "laguerre"])
    sp.add_argument("--ridge", type=float)

    sp = sub.add_parser("characterize-fbh", parents=[shared],
                        help="is the weighted kernel a Gaussian model kernel?")
    sp.add_argument("--rmax", type=float)
    sp.add_argument("--npts", type=int)

    sp = sub.add_parser("characterize-ch", parents=[shared],
                        help="is the weighted kernel a generic-norm power?")
    sp.add_argument("--rmax", type=float)
    sp.add_argument("--npts", type=int)

    sp = sub.add_parser("boundary-check", parents=[shared],
                        help="boundary inequality p(z)e^{mu|z|^2} vs p(0)")
    sp.add_argument("--samples", type=int)
    sp.add_argument("--radius", type=float)

    sp = sub.add_parser("family-check", parents=[shared],
                        help="shared-constant Jacobian/kernel family condition")
    sp.add_argument("--family", choices=["fbh", "thullen"])
    sp.add_argument("--points", type=int)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _effective(args)
        report, failed, csv_rows = _COMMANDS[cfg["command"]](cfg)
        emit_report(report, cfg.get("format", "json"), cfg.get("out"),
                    csv_rows)
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
