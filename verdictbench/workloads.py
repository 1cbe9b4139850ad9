"""Seeded generators for the verdict benchmark's workloads.

A workload is one *pass*: a list of CLI verdicts (argv lists for
``bergmanlab.cli.main``), each carrying the exit code the mathematics
predicts.  The pass is built from rounds; every round holds one verdict of
each template of the workload, with the template's parameters drawn from
evenly covered ranges (see ``Draw``), so any prefix of whole rounds has the
same mix and two seeds differ in parameter values, not in the mix.

Expected exit codes are derived, not observed:

* inputs inside the model class (a weight whose kernel *is* the model
  kernel, a map that *is* an automorphism) expect 0;
* inputs outside it (a different weight exponent, a non-power profile, a
  fiber series cut before it can converge) expect 1.

Characterization verdicts are statements at truncation rank d, so an
in-class input only predicts a match where the rank-d truncation tail is
provably below the verdict's tolerance.  ``power_tail_bound`` and
``fock_tail_bound`` bound that tail in closed form; the generator picks the
sample radius (``--rmax``) or degree from them.  This is the truncation
behaviour the program is specified to have, not a defect being avoided.

Inputs that a documented defect breaks keep their mathematical expectation
and carry a ``defect`` tag naming the defect and the exit code it yields.
They are not part of the measured pass: they go to ``Workload.defects``,
which every run checks once, outside the loop, so the defects show in every
result without a failing verdict in the loop (see README.md).  The pass
keeps the template with inputs the defect does not reach.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# tolerance the characterize and family verdicts use, and the margin the
# predicted truncation tail must keep below it
MATCH_TOL = 1e-8
TAIL_MARGIN = 100.0


@dataclass(frozen=True)
class Defect:
    """A documented defect: its name and the exit code it produces."""

    name: str
    exit_code: int
    note: str


# ROADMAP 3a: the alternating shell sum of polynomial-weight moments loses
# digits from (1 - t)^4 on.
CANCELLATION = Defect("poly-moment-cancellation", 1,
                      "closed-form moments of expanded (1-t)^s lose digits "
                      "from s = 4 on")
# gram of gaussian:1 on C^1 by quadrature reports an inf condition number
# from degree 20 on, which canonical JSON refuses (exit 2); CSV is unaffected
INF_CONDITION = Defect("gram-inf-condition", 2,
                       "a JSON gram report of the gaussian:1 quadrature Gram "
                       "of degree >= 20 holds an inf condition number, which "
                       "canonical JSON refuses")
# the same refusal: a fiber series cut while its terms still grow reports an
# inf tail estimate for the worst pair
INF_TAIL = Defect("frc-inf-tail", 2,
                  "frc-check cut by --max-terms while the terms still grow "
                  "reports an inf tail estimate that canonical JSON refuses")


@dataclass(frozen=True)
class Verdict:
    """One CLI invocation and what the gate expects of it."""

    argv: tuple[str, ...]
    expect: int
    template: str
    defect: Defect | None = None
    ref: str = ""        # report key holding a residual against a reference
    out: str = ""        # --out path, or "" when the report goes to stdout

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    verdicts: list[Verdict]       # one measured pass
    setup_argv: tuple[str, ...]   # the workload's cheapest verdict
    defects: list[Verdict]        # inputs a documented defect breaks


# ---------------------------------------------------------------------------
# truncation-tail bounds

def power_tail_bound(e: float, d: int, t: float) -> float:
    """Bound on |K - K_d| / |K| for K(x) = (1 - x)^(-e), |x| <= t < 1.

    K_d keeps the terms of degree <= d of sum_k (e)_k/k! x^k; radial weights
    make the rank-d series kernel exactly that truncation.  The tail is at
    most sum_{k>d} (e)_k/k! t^k and |K(x)| >= (1 + t)^(-e).
    """
    total = 0.0
    k = d + 1
    while True:
        term = math.exp(math.lgamma(e + k) - math.lgamma(e) - math.lgamma(k + 1)
                        + k * math.log(t))
        total += term
        if term < 1e-20 * total and k > d + 20:
            break
        k += 1
    return total * (1.0 + t) ** e


def fock_tail_bound(c: float, d: int, t: float) -> float:
    """Bound on |K - K_d| / |K| for K(x) = exp(c x), |x| <= t."""
    total = 0.0
    k = d + 1
    while True:
        term = math.exp(k * math.log(c * t) - math.lgamma(k + 1))
        total += term
        if term < 1e-20 * total and k > d + 20:
            break
        k += 1
    return total * math.exp(c * t)


def _tail_ok(bound: float) -> bool:
    return bound * TAIL_MARGIN <= MATCH_TOL


def ch_rmax(exponent: float, degree: int) -> float:
    """Largest sample radius in [0.15, 0.55] whose rank-d tail is provably
    below the match tolerance for the model kernel N^(-exponent)."""
    for hundredths in range(55, 14, -1):
        r = hundredths / 100.0
        if _tail_ok(power_tail_bound(exponent, degree, r * r)):
            return r
    raise ValueError(f"no admissible radius for exponent {exponent} at "
                     f"degree {degree}")


def min_power_degree(exponent: float, t: float) -> int:
    d = 1
    while not _tail_ok(power_tail_bound(exponent, d, t)):
        d += 1
    return d


def min_fock_degree(c: float, t: float) -> int:
    d = 1
    while not _tail_ok(fock_tail_bound(c, d, t)):
        d += 1
    return d


# ---------------------------------------------------------------------------
# stratified draws

class Draw:
    """Per-template parameter streams over the rounds of a pass.

    Integer parameters (degrees, exponents, pair counts) set the cost of a
    verdict, so every seed gets the same evenly spaced values over the full
    range, in its own order; float parameters are stratified at random.
    The cost mix of a pass then hardly depends on the seed, while the
    inputs themselves do.
    """

    def __init__(self, rng: random.Random, rounds: int):
        self.rng = rng
        self.rounds = rounds

    def ints(self, lo: int, hi: int) -> list[int]:
        """One integer per round, evenly spaced over [lo, hi], shuffled."""
        steps = max(1, self.rounds - 1)
        vals = [lo + round(i * (hi - lo) / steps) for i in range(self.rounds)]
        self.rng.shuffle(vals)
        return vals

    def paired(self, lo: int, hi: int, labels) -> list[tuple[int, str]]:
        """``ints(lo, hi)`` sorted and zipped with ``labels`` in turn, then
        shuffled: every seed gives each label the same integers, so an
        alternation that changes the cost (a format, a domain) does not
        change the mix."""
        pairs = list(zip(sorted(self.ints(lo, hi)),
                         [labels[i % len(labels)] for i in range(self.rounds)]))
        self.rng.shuffle(pairs)
        return pairs

    def floats(self, lo: float, hi: float, digits: int = 3) -> list[float]:
        """One float per round, one from each of ``rounds`` equal strata."""
        vals = [round(lo + (i + self.rng.random()) * (hi - lo) / self.rounds,
                      digits)
                for i in range(self.rounds)]
        self.rng.shuffle(vals)
        return vals

    def point(self, n: int, radius: float) -> list[list[float]]:
        """A point of C^n with |z| <= radius, as [[re, im], ...]."""
        while True:
            z = [[self.rng.uniform(-radius, radius),
                  self.rng.uniform(-radius, radius)] for _ in range(n)]
            if math.sqrt(sum(a * a + b * b for a, b in z)) <= radius:
                return [[round(a, 6), round(b, 6)] for a, b in z]


def _fmt(x: float) -> str:
    return repr(float(x))


def _poly_power_coeffs(s: int) -> list[int]:
    """Coefficients of (1 - t)^s, lowest degree first."""
    return [(-1) ** k * math.comb(s, k) for k in range(s + 1)]


def _poly_desc(coeffs) -> str:
    return "poly:" + ",".join(str(c) for c in coeffs)


def _map_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _assemble(rounds: list[list[Verdict]], rng: random.Random) -> list[Verdict]:
    out: list[Verdict] = []
    for r in rounds:
        r = list(r)
        rng.shuffle(r)
        out.extend(r)
    return out


# ---------------------------------------------------------------------------
# series-verdicts

SERIES_ROUNDS = 12


def series_verdicts(seed: int, workdir: Path) -> Workload:
    """characterize-ch / characterize-fbh / family-check.

    Every Gram comes from the closed-form route; time goes to scalar series
    kernel evaluation inside the characterize verdict loops.
    """
    rng = random.Random(f"series-verdicts:{seed}")
    R = SERIES_ROUNDS
    dr = Draw(rng, R)
    deg_disk, deg_ball = dr.ints(16, 30), dr.ints(16, 30)
    deg_mis = dr.ints(16, 30)
    poly = dr.paired(16, 30, ("disk", "ball:2"))
    mu_disk, mu_ball = dr.floats(0.5, 3.0), dr.floats(0.5, 2.0)
    # (1 - t)^M with M >= 4 meets the cancellation defect: those inputs are
    # checked outside the pass, and the pass keeps M = 1..3
    poly_m, cancel_m = dr.ints(1, 3), dr.ints(4, 12)
    mis_s, mis_c = dr.floats(0.5, 2.5), dr.floats(0.3, 0.7)
    fbh1_deg, fbh2_deg = dr.ints(16, 30), dr.ints(12, 20)
    fbhm_deg = dr.ints(16, 24)
    fbh1_mu, fbh2_mu, fbhm_mu = (dr.floats(0.5, 2.0), dr.floats(0.5, 2.0),
                                 dr.floats(0.5, 2.0))
    fbh_m = dr.ints(1, 3)
    fam_mu, thu_mu = dr.floats(0.5, 1.0), dr.floats(0.5, 2.0)
    fam_m = dr.ints(1, 2)
    fam_off, thu_off = dr.ints(0, 8), dr.ints(0, 8)

    rounds, defects = [], []
    for i in range(R):
        seed_i = rng.randrange(1000)
        vs = []

        def ch(template, domain, weight, m, mu, degree, expect, defect=None):
            n = 1 if domain == "disk" else int(domain.split(":")[1])
            rmax = ch_rmax(m * mu + n + 1, degree)
            return Verdict(
                ("characterize-ch", "--domain", domain, "--weight", weight,
                 "--m", str(m), "--mu", _fmt(mu), "--degree", str(degree),
                 "--rmax", _fmt(rmax), "--seed", str(seed_i)),
                expect, template, defect,
                ref="max_deviation" if expect == 0 else "")

        vs.append(ch("ch-disk", "disk", f"npower:{mu_disk[i]}", 1, mu_disk[i],
                     deg_disk[i], 0))
        vs.append(ch("ch-ball", "ball:2", f"npower:{mu_ball[i]}", 1,
                     mu_ball[i], deg_ball[i], 0))
        # (1 - t)^M through --m is the npower:M weight: a match
        degree, domain = poly[i]
        vs.append(ch("ch-poly", domain, "poly:1,-1", poly_m[i], 1.0, degree,
                     0))
        defects.append(ch("ch-poly", domain, "poly:1,-1", cancel_m[i], 1.0,
                          degree, 0, CANCELLATION))
        if i % 2 == 0:
            # a different exponent than the model's: a mismatch
            vs.append(ch("ch-mismatch", "disk", f"npower:{mis_s[i]}", 1,
                         round(mis_s[i] + 1.0, 3), deg_mis[i], 1))
        else:
            # 1 - c t is no power of 1 - t: a mismatch
            vs.append(ch("ch-mismatch", "disk", _poly_desc([1, -mis_c[i]]), 1,
                         1.0, deg_mis[i], 1))

        def fbh(template, n, weight_mu, m, mu, degree, expect):
            vs.append(Verdict(
                ("characterize-fbh", "--n", str(n),
                 "--weight", f"gaussian:{weight_mu}", "--m", str(m),
                 "--mu", _fmt(mu), "--degree", str(degree),
                 "--seed", str(seed_i)),
                expect, template, ref="max_deviation" if expect == 0 else ""))

        fbh("fbh-cn1", 1, fbh1_mu[i], fbh_m[i], fbh1_mu[i], fbh1_deg[i], 0)
        fbh("fbh-cn2", 2, fbh2_mu[i], 1, fbh2_mu[i], fbh2_deg[i], 0)
        fbh("fbh-mismatch", 1, fbhm_mu[i], 1, round(fbhm_mu[i] * 1.5, 3),
            fbhm_deg[i], 1)

        # family-check samples translations with |v|^2 <= 1.28 and Moebius
        # centers with |z0| <= 0.6; the degree keeps the diagonal tail there
        # below tolerance
        m, mu = fam_m[i], fam_mu[i]
        deg = max(16, min_fock_degree(m * mu, 1.28)) + fam_off[i]
        vs.append(Verdict(
            ("family-check", "--family", "fbh", "--n", "2", "--m", str(m),
             "--mu", _fmt(mu), "--degree", str(deg), "--seed", str(seed_i)),
            0, "family-fbh"))
        mu = thu_mu[i]
        deg = min(64, max(16, min_power_degree(mu + 2, 0.36)) + thu_off[i])
        vs.append(Verdict(
            ("family-check", "--family", "thullen", "--mu", _fmt(mu),
             "--degree", str(deg), "--seed", str(seed_i)),
            0, "family-thullen"))
        rounds.append(vs)

    verdicts = _assemble(rounds, rng)
    setup = ("characterize-ch", "--domain", "disk", "--weight", "npower:1",
             "--degree", "16", "--rmax", _fmt(ch_rmax(3.0, 16)))
    return Workload(verdicts, setup, defects)


# ---------------------------------------------------------------------------
# moment-assembly

MOMENT_ROUNDS = 10


def _write_table(path: Path, ts, fn) -> None:
    lines = ["t,value"] + [f"{t!r},{fn(t)!r}" for t in ts]
    path.write_text("\n".join(lines) + "\n")


def moment_assembly(seed: int, workdir: Path) -> Workload:
    """gram by quadrature and Monte Carlo, moment-mismatch, and the
    tabulated-profile verdicts, with reports written to --out files."""
    rng = random.Random(f"moment-assembly:{seed}")
    R = MOMENT_ROUNDS
    dr = Draw(rng, R)
    # reports alternate between JSON and CSV; emission cost differs, and
    # canonical JSON refuses the inf condition number of cn:1 degrees >= 20
    # while CSV carries no diagnostics, so formats are paired with degrees
    formats = ("json", "csv")
    disk, ball2 = dr.paired(10, 40, formats), dr.paired(6, 16, formats)
    ball3, cn1 = dr.paired(2, 4, formats), dr.paired(10, 30, formats)
    cn2, mmx = dr.paired(4, 10, formats), dr.paired(2, 12, formats)
    # the largest Monte Carlo Gram sets the workload's peak memory, so its
    # (domain, degree, samples) triples are the same for every seed: sample
    # count grows with degree, and ball:2 gets the larger of each pair
    mc = list(zip(["disk", "ball:2"] * (R // 2), sorted(dr.ints(4, 8)),
                  sorted(dr.ints(20, 50))))
    rng.shuffle(mc)
    mu_disk, mu_b2, mu_b3 = (dr.floats(0.5, 3.0), dr.floats(0.5, 3.0),
                             dr.floats(0.5, 2.0))
    mu_cn2, mu_mc = dr.floats(0.5, 2.5), dr.floats(0.5, 2.0)
    # expanded (1 - t)^s with s >= 4 meets the cancellation defect: those
    # inputs are checked outside the pass, and the pass keeps s = 2, 3
    mm_s, cancel_s = dr.ints(2, 3), dr.ints(4, 12)
    mm_deg, mmx_deg = dr.ints(6, 12), dr.ints(6, 12)
    fbh_mu, fbh_eps, fbh_deg = (dr.floats(0.5, 2.0), dr.floats(0.2, 0.5),
                                dr.ints(12, 20))
    rec_a, rec_eps, rec_deg = (dr.floats(1.0, 3.0), dr.floats(0.2, 0.8),
                               dr.ints(4, 8))

    counter = itertools.count()

    def out_args(fmt: str) -> tuple[tuple[str, ...], str]:
        path = str(workdir / f"report-{next(counter):04d}.{fmt}")
        return ("--format", fmt, "--out", path), path

    rounds, defects = [], []
    for i in range(R):
        seed_i = rng.randrange(1000)
        vs = []

        def gram(template, domain, weight, paired, method, extra=(),
                 defect=None):
            degree, fmt = paired
            args, path = out_args(fmt)
            return Verdict(
                ("gram", "--domain", domain, "--weight", weight,
                 "--degree", str(degree), "--method", method, *extra,
                 "--seed", str(seed_i), *args),
                0, template, defect, out=path)

        vs.append(gram("gram-disk", "disk", f"npower:{mu_disk[i]}", disk[i],
                       "quadrature"))
        vs.append(gram("gram-ball2", "ball:2", f"npower:{mu_b2[i]}", ball2[i],
                       "quadrature"))
        vs.append(gram("gram-ball3", "ball:3", f"npower:{mu_b3[i]}", ball3[i],
                       "quadrature"))
        degree, fmt = cn1[i]
        if degree >= 20 and fmt == "json":
            # the JSON report is checked outside the pass; the pass writes
            # the same Gram as CSV
            defects.append(gram("gram-cn1", "cn:1", "gaussian:1", cn1[i],
                                "quadrature", defect=INF_CONDITION))
            fmt = "csv"
        vs.append(gram("gram-cn1", "cn:1", "gaussian:1", (degree, fmt),
                       "quadrature"))
        vs.append(gram("gram-cn2", "cn:2", f"gaussian:{mu_cn2[i]}", cn2[i],
                       "quadrature"))
        domain, degree, samples = mc[i]
        vs.append(gram("gram-montecarlo", domain, f"npower:{mu_mc[i]}",
                       (degree, "csv" if domain == "disk" else "json"),
                       "montecarlo", ("--samples", str(samples * 1000))))

        # expanded (1 - t)^s against npower:s: identical weights; JSON, as
        # the gate reads the mismatch norm from the report
        def identical(s, defect=None):
            args, path = out_args("json")
            return Verdict(
                ("moment-mismatch", "--domain", "disk",
                 "--weight", _poly_desc(_poly_power_coeffs(s)),
                 "--weight2", f"npower:{s}", "--degree", str(mm_deg[i]),
                 "--normalize", *args),
                0, "mismatch-identical", defect, ref="frobenius_norm",
                out=path)

        vs.append(identical(mm_s[i]))
        defects.append(identical(cancel_s[i], CANCELLATION))
        # expanded (1 - t)^s against npower:(s+1): different weights
        s, fmt = mmx[i]
        args, path = out_args(fmt)
        vs.append(Verdict(
            ("moment-mismatch", "--domain", "disk",
             "--weight", _poly_desc(_poly_power_coeffs(s)),
             "--weight2", f"npower:{s + 1}", "--degree", str(mmx_deg[i]),
             "--normalize", *args),
            1, "mismatch-distinct", out=path))

        # a Gaussian perturbed by a non-exponential factor is no Gaussian
        # power: the Gaussian-model characterization must not match
        mu, eps = fbh_mu[i], fbh_eps[i]
        table = workdir / f"fbh-{i:02d}.csv"
        # far enough out that the table's tail beyond its last knot passes
        # the full-space truncation test at degree 20
        cutoff = 100.0 / mu
        _write_table(table, [cutoff * (k / 239) ** 1.5 for k in range(240)],
                     lambda t: math.exp(-mu * t) * (1.0 + eps * t / (1.0 + t)))
        args, path = out_args("json")
        vs.append(Verdict(
            ("characterize-fbh", "--n", "1", "--weight", f"table:{table}",
             "--mu", _fmt(mu), "--degree", str(fbh_deg[i]),
             "--seed", str(seed_i), *args),
            1, "fbh-table", out=path))

        a, eps = rec_a[i], rec_eps[i]
        table = workdir / f"recover-{i:02d}.csv"
        _write_table(table, [k / 100 for k in range(101)],
                     lambda t: (1.0 - t) ** a * (1.0 + eps * t))
        args, path = out_args("json")
        vs.append(Verdict(
            ("recover-weight", "--domain", "disk", "--weight", f"table:{table}",
             "--degree", str(rec_deg[i]), *args),
            0, "recover-table", out=path))
        rounds.append(vs)

    # the cheapest verdict that still loads a tabulated profile (PCHIP)
    setup = ("recover-weight", "--domain", "disk",
             "--weight", f"table:{workdir / 'recover-00.csv'}", "--degree", "4")
    return Workload(_assemble(rounds, rng), setup, defects)


# ---------------------------------------------------------------------------
# fiber-automorphism

FIBER_ROUNDS = 12


def fiber_automorphism(seed: int, workdir: Path) -> Workload:
    """frc-check, transform-check and jacobian-check on closed-form kernels."""
    rng = random.Random(f"fiber-automorphism:{seed}")
    R = FIBER_ROUNDS
    dr = Draw(rng, R)
    pairs = [dr.ints(50, 200) for _ in range(3)]
    cut_m, cut_terms, cut_pairs = dr.ints(1, 3), dr.ints(2, 4), dr.ints(20, 50)
    tr_mu, tr_m = dr.floats(0.5, 2.0), dr.ints(1, 3)
    mo_mu, mo_m = dr.floats(0.5, 2.5), dr.ints(1, 3)
    jac_mu, jac_m = dr.floats(0.5, 2.5), dr.ints(1, 3)

    rounds, defects = [], []
    for i in range(R):
        seed_i = rng.randrange(1000)
        vs = []
        for m in (1, 2, 3):
            vs.append(Verdict(
                ("frc-check", "--m", str(m), "--pairs", str(pairs[m - 1][i]),
                 "--seed", str(seed_i)),
                0, f"frc-m{m}", ref="max_rel_error"))
        # five small consecutive terms are needed to stop; fewer terms than
        # that can never converge, so the check must fail.  Where the terms
        # still grow the report meets the inf-tail defect, so these inputs
        # are checked outside the pass
        defects.append(Verdict(
            ("frc-check", "--m", str(cut_m[i]), "--pairs", str(cut_pairs[i]),
             "--max-terms", str(cut_terms[i]), "--seed", str(seed_i)),
            1, "frc-truncated", INF_TAIL))

        def check(cmd, template, domain, weight, m, aut):
            vs.append(Verdict(
                (cmd, "--domain", domain, "--weight", weight, "--m", str(m),
                 "--map", _map_json(aut), "--seed", str(seed_i)),
                0, template,
                ref="max_rel_residual" if cmd == "transform-check"
                else "max_det_difference"))

        n = 1 + i % 2
        check("transform-check", "transform-translation", f"cn:{n}",
              f"gaussian:{tr_mu[i]}", tr_m[i],
              {"kind": "translation", "v": dr.point(n, 0.8)})
        check("transform-check", "transform-mobius-disk", "disk",
              f"npower:{mo_mu[i]}", mo_m[i],
              {"kind": "mobius", "a": dr.point(1, 0.6)})
        check("transform-check", "transform-mobius-ball", "ball:2",
              f"npower:{mo_mu[i]}", mo_m[i],
              {"kind": "mobius", "a": dr.point(2, 0.6)})
        check("transform-check", "transform-composite", "disk",
              f"npower:{jac_mu[i]}", jac_m[i],
              {"kind": "composite",
               "parts": [{"kind": "mobius", "a": dr.point(1, 0.5)},
                         {"kind": "mobius", "a": dr.point(1, 0.5)}]})
        check("jacobian-check", "jacobian-mobius",
              "disk" if i % 2 else "ball:2", f"npower:{jac_mu[i]}", jac_m[i],
              {"kind": "mobius", "a": dr.point(1 if i % 2 else 2, 0.5)})
        check("jacobian-check", "jacobian-translation", f"cn:{n}",
              f"gaussian:{tr_mu[i]}", jac_m[i],
              {"kind": "translation", "v": dr.point(n, 0.8)})
        check("jacobian-check", "jacobian-composite", "disk",
              f"npower:{mo_mu[i]}", tr_m[i],
              {"kind": "composite",
               "parts": [{"kind": "mobius", "a": dr.point(1, 0.5)},
                         {"kind": "mobius", "a": dr.point(1, 0.5)}]})
        rounds.append(vs)

    verdicts = _assemble(rounds, rng)
    setup = ("frc-check", "--m", "1", "--pairs", "50")
    return Workload(verdicts, setup, defects)


WORKLOADS = {
    "series-verdicts": series_verdicts,
    "moment-assembly": moment_assembly,
    "fiber-automorphism": fiber_automorphism,
}


def generate(name: str, seed: int, workdir: Path) -> Workload:
    """Build one pass of the named workload; tabulated weights are written
    into ``workdir``, which must exist."""
    return WORKLOADS[name](seed, Path(workdir))
