"""The benchmark's per-layer tracer runs every command of the CLI.

``bench/tracing.py`` patches the package from the outside and constructs
some of its records itself, so a rename in ``src/`` can break a traced run
without failing any other test.  This loads the tracer by path, as the
benchmark does, and runs one small call of each command under it.
"""

import importlib.util
import pathlib

import ptscatter
from ptscatter import cli

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

COMMANDS = {
    "scan": ["scan", "--kcount", "3"],
    "compare": ["compare", "--kcount", "3"],
    "symmetry": ["symmetry", "--potential", "yamaguchi", "--kcount", "3"],
    "lattice": ["lattice", "--kcount", "3", "--n-max", "4"],
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_run(tmp_path):
    """Each command exits 0, and the lattice work is one call into
    ``potentials``: ``lattice_rows``, which computes the whole table (the
    other spans there are ``LatticeParams`` reading its own properties)."""
    tracing = _load_tracing()
    tracer = tracing.Tracer(ptscatter)
    tracer.install()
    try:
        for trace_id, (name, argv) in enumerate(COMMANDS.items()):
            tracer.trace_id = trace_id
            assert cli.main([*argv, "--out", str(tmp_path / name)]) == 0, name
    finally:
        tracer.uninstall()
    spans = tracer.columns()
    lattice = (spans["trace"] == list(COMMANDS).index("lattice")) \
        & (spans["layer"] == tracing.LAYERS.index("potentials"))
    names = [tracer.names[i] for i in spans["name"][lattice]]
    assert [n for n in names if not n.startswith("LatticeParams.")] == ["lattice_rows"]
    assert not hasattr(cli.main, "__wrapped__")     # uninstalled
