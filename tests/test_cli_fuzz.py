"""Property test: the command line keeps its exit-code contract for any number."""

import math
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from ptscatter.cli import main

NUMBERS = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1e-300, 1e4, 1e300, -1e300, math.nan, math.inf, -math.inf]),
)
FLAGS = {
    "square-well": ("v0", "v1", "b"),
    "scarf": ("s", "lambda-re", "lambda-im", "eps"),
    "yamaguchi": ("gamma", "delta", "alpha", "beta", "strength"),
}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["scan", "symmetry", "lattice"]))
    potential = "square-well" if command == "lattice" else draw(st.sampled_from(sorted(FLAGS)))
    argv = [command, "--potential", potential, "--kcount", str(draw(st.integers(1, 3)))]
    for flag in FLAGS[potential] + ("kmin", "kmax"):
        if draw(st.booleans()):
            argv.append(f"--{flag}={draw(NUMBERS)!r}")
    return argv + ["--out", os.devnull]


@settings(max_examples=60, deadline=None)
@given(invocations())
def test_exit_code_contract(argv):
    assert main(argv) in (0, 2, 3, 4)
