"""Property test: the command line keeps its exit-code contract for any number,
given as a flag or as a config-file value of any JSON type."""

import json
import math
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptscatter.cli import main

NUMBERS = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1e-300, 1e4, 1e300, -1e300, math.nan, math.inf, -math.inf]),
)
# a JSON value of each type, numbers of both JSON kinds
OTHERS = st.sampled_from([True, False, None, "", "0.3", "csv", "json", "xml", [1, 2], {}, 10 ** 400])
VALUES = st.one_of(NUMBERS, st.integers(-3, 3), OTHERS)
# a grid size stays small whatever its type
KCOUNTS = st.one_of(st.integers(-1, 3), NUMBERS, OTHERS)
FLAGS = {
    "square-well": ("v0", "v1", "b"),
    "scarf": ("s", "lambda-re", "lambda-im", "eps"),
    "yamaguchi": ("gamma", "delta", "alpha", "beta", "strength"),
}


@st.composite
def invocations(draw):
    """(argv, config): flags on the command line, or the same keys and any
    JSON values (now and then not an object) in a config file."""
    command = draw(st.sampled_from(["scan", "symmetry", "lattice"]))
    potential = "square-well" if command == "lattice" else draw(st.sampled_from(sorted(FLAGS)))
    argv = [command, "--potential", potential]
    keys = [flag for flag in FLAGS[potential] + ("kmin", "kmax") if draw(st.booleans())]
    if draw(st.booleans()):
        argv += ["--kcount", str(draw(st.integers(1, 3)))]
        argv += [f"--{flag}={draw(NUMBERS)!r}" for flag in keys]
        return argv + ["--out", os.devnull], None
    config = {key.replace("-", "_"): draw(VALUES) for key in keys + ["format"] * draw(st.booleans())}
    config["kcount"] = draw(KCOUNTS)
    if draw(st.integers(0, 9)) == 0:
        config = draw(st.one_of(OTHERS, NUMBERS))
    return argv + ["--out", os.devnull], config


@settings(max_examples=60, deadline=None)
@given(invocations())
# wells whose lattice period or edges overflow are configuration errors
@example((["lattice", "--potential", "square-well", "--a=1e308", "--b=1e308", "--kcount", "2",
           "--out", os.devnull], None))
@example((["scan", "--potential", "multi-well", "--a=1e308", "--b=1e300", "--n", "3",
           "--kcount", "2", "--out", os.devnull], None))
# sweeps with more steps than can be allocated are configuration errors
@example((["compare", "--potential", "square-well", "--kcount", "2", "--step", "1e-12",
           "--out", os.devnull], None))
@example((["compare", "--potential", "scarf", "--cutoff", "1e7", "--out", os.devnull], None))
# tables with more rows than can be allocated or written are configuration errors
@example((["scan", "--potential", "square-well", "--kcount", "100000000000", "--out", os.devnull], None))
@example((["lattice", "--potential", "square-well", "--n-max", "100000000000", "--kcount", "2",
           "--out", os.devnull], None))
# closed forms that leave the float range are solver errors
@example((["scan", "--potential", "scarf", "--kmin", "230", "--kmax", "231", "--kcount", "2",
           "--out", os.devnull], None))
@example((["scan", "--potential", "square-well", "--v1", "1e4", "--b", "10", "--out", os.devnull], None))
@example((["scan", "--potential", "scarf", "--lambda-re", "300", "--out", os.devnull], None))
@example((["symmetry", "--potential", "scarf", "--lambda-re", "300", "--kcount", "3",
           "--out", os.devnull], None))
@example((["lattice", "--v1", "1e4", "--b", "10", "--kcount", "3", "--out", os.devnull], None))
# a finite cell whose determinant overflows at a tiny k
@example((["lattice", "--potential", "square-well", "--kcount", "1", "--b=1.0",
           "--kmin=3.65978365267424e-294", "--out", os.devnull], None))
@example((["scan", "--potential", "yamaguchi", "--alpha", "1e300", "--kcount", "3",
           "--out", os.devnull], None))
def test_exit_code_contract(invocation):
    argv, config = invocation
    if config is None:
        assert main(argv) in (0, 2, 3, 4)
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        assert main(argv + ["--config", path]) in (0, 2, 3, 4)
