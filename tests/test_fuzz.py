"""Exit-code fuzzing of the command line.

Whatever the arguments -- malformed descriptors, zero, subnormal, huge and
non-finite numbers, inline map and kernel JSON, points files -- ``main``
returns 0 (verdict passed), 1 (verdict failed) or 2 (usage, configuration
or arithmetic error) and never raises.  Most draws are well formed, so the
search reaches the numerics and not only the argument checks.  It is
derandomized and bounded (degrees <= 8, at most 3 pairs or points), so it
is deterministic and takes seconds.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bergmanlab.cli import main

from test_cli import ARITHMETIC_FAILURES, BAD_KERNEL_SCALES, SERIES_1500

# the edge values next to ordinary ones
EDGES = ["0", "1e-320", "1e308", "inf", "nan", "-1"]
number = st.sampled_from(["0.3", "1", "1.5", "2", "7"] * 2 + EDGES)
# numbers, edge values, and values of the wrong JSON type
json_number = st.sampled_from([0.1, -0.2, 0.3, 0.1, -0.2, 0.3, 0.0, 1e-320,
                               1e308, float("inf"), float("nan"), None, [1],
                               "x"])
cpair = st.lists(json_number, min_size=2, max_size=2)
point = st.one_of(st.lists(cpair, min_size=1, max_size=3), cpair,
                  st.sampled_from(["x", 1, []]))
count = st.sampled_from(["1", "2", "3"] * 3 + ["0", "-1"])
degree = st.sampled_from([str(d) for d in range(9)] * 2 + ["-1"])

BOUNDED = ["disk", "ball:2", "ball:3", "typei:2x2", "typei:1x2"]
FULL = ["cn:1", "cn:2", "cn:3"]
MALFORMED = ["ball:0", "cn:0", "typei:0x2", "typei:2", "ball:x", "cube", ""]


@st.composite
def weights(draw, full_space, depth=0):
    """A weight descriptor, of the kind the base carries more often than
    not."""
    native = "gaussian" if full_space else "npower"
    foreign = "npower" if full_space else "gaussian"
    kind = draw(st.sampled_from([native, native, "poly", "scaled", foreign,
                                 "table", "martian"]))
    if kind == "poly":
        return "poly:" + ",".join(draw(st.lists(number, max_size=3)))
    if kind == "scaled":
        inner = draw(weights(full_space, depth + 1)) if depth < 1 else "poly:1"
        return f"scaled:{draw(number)}:{inner}"
    if kind == "table":
        return "table:missing.csv"
    return f"{kind}:{draw(number)}"


def maps(depth=0):
    options = [
        st.fixed_dictionaries({"kind": st.just("translation"), "v": point}),
        st.fixed_dictionaries({"kind": st.just("mobius"), "a": point}),
        st.fixed_dictionaries({
            "kind": st.sampled_from(["base_unitary", "fiber_unitary"]),
            "matrix": st.one_of(st.lists(cpair, max_size=4),
                                st.sampled_from([[1], 7]))}),
        st.sampled_from([{}, {"kind": "spiral"}, [1]]),
    ]
    if depth < 1:
        options.append(st.fixed_dictionaries({
            "kind": st.just("composite"),
            "parts": st.lists(maps(depth + 1), max_size=2)}))
    return st.one_of(*options)


domain_json = st.sampled_from([
    {"kind": "disk", "dim": 1}, {"kind": "ball", "dim": 2},
    {"kind": "typeI", "dim": 4, "shape": [2, 2]},
    {"kind": "fullspace", "dim": 1}, {"kind": "ball", "dim": 0},
    {"kind": "ball", "dim": [2]}, {"kind": "typeI", "shape": 5},
    {"kind": "moon"}, [1]])


kernels = st.one_of(
    st.fixed_dictionaries({"form": st.just("fock"), "mu": json_number,
                           "n": st.sampled_from([0, 1, 2, None]),
                           "scale": json_number}),
    st.fixed_dictionaries({"form": st.just("power"),
                           "domain": domain_json, "mu": json_number,
                           "scale": json_number}),
    st.fixed_dictionaries({"form": st.just("series"),
                           "domain": domain_json,
                           "degree": st.integers(-1, 2),
                           "rank": st.integers(0, 3),
                           "coeff": st.lists(cpair, max_size=6)}),
    st.fixed_dictionaries({"form": st.just("radial"),
                           "domain": domain_json,
                           "degree": st.integers(-1, 2),
                           # positive and finite, else anything
                           "c": st.one_of(
                               st.lists(st.sampled_from([0.3, 1.0, 1e-320,
                                                         1e308]),
                                        min_size=1, max_size=3),
                               st.lists(json_number, max_size=4),
                               json_number)}),
    # unknown forms, among them the removed "scaled" wrapper
    st.sampled_from([{}, {"form": "spline"},
                     {"form": "scaled", "scale": 2.0,
                      "inner": {"form": "fock", "mu": 1.0, "n": 1}}]),
)


inline_map = st.one_of(maps().map(json.dumps), st.just("{"))
inline_kernel = st.one_of(kernels.map(json.dumps), st.just("{"))

# value strategies of the options a command may be given or not
OPTIONAL = {
    "--m": st.sampled_from(["1", "2", "3", "0"]),
    "--n": st.sampled_from(["1", "2", "3", "0"]),
    "--mu": number,
    "--tolerance": number,
    "--seed": st.sampled_from(["0", "1", "2"]),
    "--format": st.sampled_from(["json", "csv"]),
    "--rmax": number,
    "--radius": number,
    "--step": number,
    "--ridge": number,
    "--max-terms": count,
    "--method": st.sampled_from(["auto", "exact", "quadrature",
                                 "montecarlo"]),
    "--basis": st.sampled_from(["shifted-legendre", "laguerre"]),
    "--family": st.sampled_from(["fbh", "thullen"]),
    "--kernel": inline_kernel,
    "--closed-form": st.none(),
    "--normalize": st.none(),
}
SHARED = ["--m", "--n", "--mu", "--tolerance", "--seed", "--format"]
# per command: what it always gets (D = --domain, W = --weight, W2 =
# --weight2, M = --map; counts stay <= 3, so no default draws more), and
# the options it may get
COMMANDS = {
    "gram": ("DW", ["--samples"], ["--method"]),
    "kernel-eval": ("DW", ["--grid"], ["--kernel", "--radius",
                                       "--closed-form"]),
    "frc-check": ("", ["--pairs"], ["--max-terms"]),
    "transform-check": ("DWM", ["--points"], ["--radius", "--closed-form"]),
    "jacobian-check": ("DWM", ["--points"], ["--step", "--radius"]),
    "moment-mismatch": ("DWV", [], ["--normalize"]),
    "recover-weight": ("DW", [], ["--basis", "--ridge"]),
    "characterize-fbh": ("W", ["--npts"], ["--rmax"]),
    "characterize-ch": ("DW", ["--npts"], ["--rmax"]),
    "boundary-check": ("W", ["--samples"], ["--radius"]),
    "family-check": ("", ["--points"], ["--family"]),
}


@st.composite
def invocations(draw):
    """(argv, points-file payload or None) for one command."""
    cmd = draw(st.sampled_from(sorted(COMMANDS)))
    always, counts, extra = COMMANDS[cmd]
    domain = draw(st.sampled_from((BOUNDED + FULL) * 2 + MALFORMED))
    full_space = domain.startswith("cn") or cmd in ("characterize-fbh",
                                                    "boundary-check")
    argv = [cmd, "--degree", draw(degree)]
    if "D" in always:
        argv += ["--domain", domain]
    if "W" in always:
        argv += ["--weight", draw(weights(full_space))]
    if "V" in always:
        argv += ["--weight2", draw(weights(full_space))]
    if "M" in always:
        argv += ["--map", draw(inline_map)]
    for opt in counts:
        argv += [opt, draw(count)]
    for opt in draw(st.lists(st.sampled_from(SHARED + extra), unique=True,
                             max_size=4)):
        value = draw(OPTIONAL[opt])
        argv += [opt] if value is None else [opt, value]
    points = None
    if cmd == "kernel-eval" and draw(st.booleans()):
        points = draw(st.one_of(
            st.fixed_dictionaries({"z": st.lists(point, max_size=3),
                                   "w": st.lists(point, max_size=3)}),
            st.sampled_from([[], {"z": 1, "w": []}, {"w": []}])))
    return argv, points


def run(argv, points=None) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        if points is not None:
            path = Path(tmp) / "points.json"
            path.write_text(json.dumps(points))
            argv = argv + ["--points-file", str(path)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return main(argv)


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
@example((ARITHMETIC_FAILURES[0], None))
@example((ARITHMETIC_FAILURES[1], None))
@example((ARITHMETIC_FAILURES[2], None))
@example((ARITHMETIC_FAILURES[3], None))
@example((ARITHMETIC_FAILURES[4], None))
@example((ARITHMETIC_FAILURES[5], None))
@example((ARITHMETIC_FAILURES[6], None))
# degree 64 in three dimensions: radial verdicts read moments, not a basis
@example((["characterize-ch", "--domain", "ball:3", "--weight", "npower:1",
           "--degree", "64"], None))
@example((["characterize-fbh", "--n", "3", "--weight", "gaussian:1",
           "--degree", "64"], None))
@example((["kernel-eval", "--domain", "cn:3", "--weight", "gaussian:1",
           "--degree", "64"],
          {"z": [[[0.1, 0.2], [0.0, -0.3], [0.2, 0.0]]],
           "w": [[[0.3, 0.0], [0.1, 0.1], [0.0, 0.0]]]}))
# many dimensions: shell factors that overflow, moment tables too large
@example((["gram", "--domain", "ball:1500", "--weight", "poly:1,-1",
           "--degree", "1"], None))
@example((["moment-mismatch", "--domain", "ball:1500", "--weight",
           "poly:1,-1", "--weight2", "npower:1", "--degree", "1"], None))
@example((["characterize-ch", "--domain", "ball:20000", "--weight",
           "poly:1,-1", "--degree", "1"], None))
@example((["kernel-eval", "--kernel", SERIES_1500, "--grid", "2"], None))
@example((["kernel-eval", "--kernel", BAD_KERNEL_SCALES[0], "--grid", "2"],
          None))
@example((["kernel-eval", "--kernel", BAD_KERNEL_SCALES[1], "--grid", "2"],
          None))
def test_exit_code_is_a_verdict_or_an_error(invocation):
    argv, points = invocation
    assert run(argv, points) in (0, 1, 2)
