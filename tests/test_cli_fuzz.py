"""Property tests: the command line keeps its exit-code contract for any number,
given as a flag or as a config-file value of any JSON type, and a run that
exits 0 writes only finite numbers."""

import csv
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

# wide boxes of each closed form's parameters, mostly inside their domains
POSITIVE = st.one_of(st.floats(1e-3, 10.0), st.floats(1e-3, 1e4))
REAL = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e4, 1e4))
WELL = {"v0": POSITIVE, "v1": REAL, "b": POSITIVE}
LATTICE = {**WELL, "a": POSITIVE}
CLOSED_FORMS = {
    "square-well": WELL,
    "multi-well": LATTICE,
    "scarf": {"s": REAL, "lambda-re": REAL, "lambda-im": REAL, "eps": st.floats(-1.5, 1.5)},
    "centrifugal": {"strength": REAL, "eps": POSITIVE},
    "yamaguchi": {"gamma": POSITIVE, "delta": POSITIVE, "alpha": REAL, "beta": REAL, "strength": REAL},
}
SETTINGS = settings(max_examples=60, deadline=None)


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


@SETTINGS
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


@st.composite
def finite_runs(draw):
    """argv of a scan of a closed form, in CSV or JSON, or of a lattice sweep,
    over wide parameter boxes and k grids."""
    command = draw(st.sampled_from(["scan", "lattice"]))
    potential = "square-well" if command == "lattice" else draw(st.sampled_from(sorted(CLOSED_FORMS)))
    kmin = draw(st.one_of(st.floats(1e-6, 10.0), st.floats(1e-6, 1e4)))
    argv = [command, "--potential", potential, "--format", draw(st.sampled_from(["csv", "json"])),
            f"--kmin={kmin!r}", f"--kmax={kmin + draw(st.floats(1e-3, 1e3))!r}",
            "--kcount", str(draw(st.integers(1, 4)))]
    boxes = LATTICE if command == "lattice" else CLOSED_FORMS[potential]
    argv += [f"--{flag}={draw(box)!r}" for flag, box in boxes.items()]
    if command == "lattice" or potential == "multi-well":
        n = draw(st.integers(1, 600))
        argv += ["--n", str(n), "--n-max", str(n + draw(st.integers(0, 20)))]
    return argv


def numbers(value):
    """Every number of a JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in numbers(item)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


@SETTINGS
@given(finite_runs())
def test_exit_0_writes_only_finite_numbers(argv):
    """No row that is not finite comes back with exit 0, but a lattice row
    flagged as overflowing, which is NaN by design."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        code = main(argv + ["--out", path])
        assert code in (0, 2, 3)
        if code:
            return
        with open(path) as fh:
            text = fh.read()
    if argv[0] == "scan" and "json" in argv:
        values = numbers(json.loads(text))
    else:
        header, *rows = csv.reader(text.splitlines())
        if argv[0] == "lattice":
            rows = [row for row in rows if row[header.index("overflow")] == "0"]
        values = [float(cell) for row in rows for cell in row]
    assert all(map(math.isfinite, values)), argv
