"""Seeded input generator: one list of CLI invocations per workload.

Every parameter is drawn from ``--seed`` inside a box around the README's
defaults and examples, so the same seed always gives the same inputs.  The
program sees only what is written here: the argument list, one ``--config``
JSON file per invocation with the potential parameters, and for the
tabulated profile a samples CSV.  A draw that makes the program fail is
counted as a failure by the checker; it is never redrawn.

Grid sizes are fixed per invocation (not drawn), so the work per run does
not depend on the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("numeric-route", "closed-form-scan", "lattice-sweep")

# tabulated profile: V = -s(s+1)/cosh^2 x sampled on [-SAMPLE_HALF_WIDTH, SAMPLE_HALF_WIDTH]
SAMPLE_HALF_WIDTH = 9.0
SAMPLE_SPACING = 0.004
# lattice sweep size, fixed so that every seed does the same work: n = 1..400
# over 30 k for the mild well, and over 15 k for each of two strong wells
LATTICE_N_MAX = 400
LATTICE_KCOUNT = 30


@dataclass
class Invocation:
    """One CLI call: argv after the program name, its config file and the
    facts the checker needs (``spec``)."""

    name: str
    argv: list
    config: dict
    spec: dict
    samples: np.ndarray | None = None
    out: Path | None = None

    def write_inputs(self, workdir: Path):
        """Write the config (and samples) files and fill in the final argv."""
        cfg_path = workdir / f"{self.name}.config.json"
        cfg_path.write_text(json.dumps(self.config, indent=1, sort_keys=True) + "\n")
        self.out = workdir / f"{self.name}.{self.spec.get('format', 'csv')}"
        extra = ["--config", str(cfg_path), "--out", str(self.out)]
        if self.samples is not None:
            samples_path = workdir / f"{self.name}.samples.csv"
            np.savetxt(samples_path, self.samples, delimiter=",", fmt="%.17g")
            extra += ["--samples-file", str(samples_path)]
        self.argv = self.argv + extra

    def resolved(self) -> dict:
        """Provenance record: everything that defines this call."""
        rec = {"name": self.name, "argv": self.argv, "config": self.config, "spec": self.spec}
        if self.samples is not None:
            rec["samples"] = {"rows": int(self.samples.shape[0]),
                              "x_range": [float(self.samples[0, 0]), float(self.samples[-1, 0])]}
        return rec


class _Draw:
    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def uniform(self, lo: float, hi: float, digits: int = 4) -> float:
        return round(float(self.rng.uniform(lo, hi)), digits)

    def integer(self, lo: int, hi: int) -> int:
        return int(self.rng.integers(lo, hi + 1))

    def indices(self, count: int, size: int) -> list:
        return sorted(int(i) for i in self.rng.choice(count, size=min(size, count), replace=False))


def _grid(d: _Draw, kcount: int, kmin=(0.2, 0.4), kmax=(3.6, 4.4)) -> dict:
    return {"kmin": d.uniform(*kmin), "kmax": d.uniform(*kmax), "kcount": kcount}


def _grid_argv(g: dict) -> list:
    return ["--kmin", repr(g["kmin"]), "--kmax", repr(g["kmax"]), "--kcount", str(g["kcount"])]


def _square_well(d: _Draw) -> dict:
    return {"v0": d.uniform(0.5, 1.5), "v1": d.uniform(0.2, 0.8), "b": d.uniform(0.8, 1.2)}


def _scarf(d: _Draw, lambda_re=0.0, lambda_im=0.0, eps=0.0) -> dict:
    return {"s": d.uniform(0.8, 1.8), "lambda_re": lambda_re, "lambda_im": lambda_im, "eps": eps}


def _yamaguchi(d: _Draw) -> dict:
    return {"gamma": d.uniform(0.8, 1.2), "delta": d.uniform(1.6, 2.4), "alpha": d.uniform(0.1, 0.5),
            "beta": d.uniform(0.5, 0.9), "strength": d.uniform(0.5, 1.5)}


def _call(d: _Draw, name, command, potential, params, grid, fmt="csv", refs=3, **spec) -> Invocation:
    argv = [command, "--potential", potential] + _grid_argv(grid)
    if command == "scan":
        argv += ["--format", fmt]
    spec = {"command": command, "potential": potential, "params": params, "grid": grid,
            "format": fmt, "ref_rows": d.indices(grid["kcount"], refs), **spec}
    return Invocation(name=name, argv=argv, config=dict(params), spec=spec)


def _numeric_route(d: _Draw) -> list:
    # a narrow box around the README example: its integration error sets correct_digits
    scarf = {"s": d.uniform(1.2, 1.4), "lambda_re": d.uniform(0.6, 0.8), "lambda_im": 0.0,
             "eps": 0.0, "cutoff": 20.0}
    well = {**_square_well(d), "b": 1.0}     # the width sets the integration work: fixed
    s = d.uniform(0.6, 1.8)
    x = np.linspace(-SAMPLE_HALF_WIDTH, SAMPLE_HALF_WIDTH,
                    int(round(2 * SAMPLE_HALF_WIDTH / SAMPLE_SPACING)) + 1)
    samples = np.column_stack([x, -s * (s + 1) / np.cosh(x) ** 2, np.zeros_like(x)])
    sampled = _call(d, "scan-sampled", "scan", "custom-sampled", {},
                    _grid(d, 1, kmin=(0.5, 2.5)), refs=1,
                    profile={"kind": "poschl-teller", "s": s})
    sampled.samples = samples
    return [
        _call(d, "compare-scarf", "compare", "scarf", scarf, _grid(d, 1, kmin=(2.9, 3.1)),
              fmt="json", refs=1),
        _call(d, "compare-square-well", "compare", "square-well", well, _grid(d, 8),
              fmt="json", refs=3),
        sampled,
    ]


def _closed_form_scan(d: _Draw) -> list:
    return [
        _call(d, "scan-square-well", "scan", "square-well", _square_well(d), _grid(d, 30000)),
        _call(d, "scan-scarf-hermitian", "scan", "scarf", _scarf(d, lambda_re=d.uniform(0.4, 1.0)),
              _grid(d, 16000), fmt="json"),
        _call(d, "scan-scarf-imaginary", "scan", "scarf", _scarf(d, lambda_im=d.uniform(0.3, 1.0)),
              _grid(d, 30000)),
        _call(d, "scan-scarf-shifted", "scan", "scarf",
              _scarf(d, lambda_re=d.uniform(0.4, 1.0), eps=d.uniform(0.1, 0.4)),
              _grid(d, 16000), fmt="json"),
        _call(d, "scan-yamaguchi", "scan", "yamaguchi", _yamaguchi(d), _grid(d, 24000), refs=2),
        _call(d, "scan-centrifugal", "scan", "centrifugal",
              {"strength": d.uniform(0.5, 2.0), "eps": d.uniform(0.05, 0.2)},
              _grid(d, 30000), fmt="json"),
        _call(d, "symmetry-square-well", "symmetry", "square-well", _square_well(d),
              _grid(d, 8000), fmt="json"),
        _call(d, "symmetry-yamaguchi", "symmetry", "yamaguchi", _yamaguchi(d), _grid(d, 8000),
              fmt="json", refs=2),
    ]


def _lattice(d: _Draw, name: str, v1: tuple, kcount: int) -> Invocation:
    params = {"v0": d.uniform(0.5, 1.5), "v1": d.uniform(*v1), "b": d.uniform(0.4, 0.6),
              "a": d.uniform(0.4, 0.6), "n": 1, "n_max": LATTICE_N_MAX}
    grid = _grid(d, kcount, kmin=(0.4, 0.6), kmax=(2.8, 3.2))
    inv = _call(d, name, "lattice", "multi-well", params, grid, refs=2)
    inv.argv = [a for a in inv.argv if a not in ("--potential", "multi-well")]
    return inv


def _lattice_sweep(d: _Draw) -> list:
    # The strong well's accuracy (correct_digits) depends on the drawn well, so
    # two draws of half the size each make the worst case less seed-dependent.
    strong = (27.0, 33.0)
    return [_lattice(d, "lattice-mild", (0.1, 0.5), LATTICE_KCOUNT),
            _lattice(d, "lattice-strong-a", strong, LATTICE_KCOUNT // 2),
            _lattice(d, "lattice-strong-b", strong, LATTICE_KCOUNT // 2)]


_BUILDERS = {"numeric-route": _numeric_route, "closed-form-scan": _closed_form_scan,
             "lattice-sweep": _lattice_sweep}


def generate(workload: str, seed: int, workdir: Path) -> list:
    """The workload's invocations for this seed, with their input files written."""
    invocations = _BUILDERS[workload](_Draw(seed))
    for inv in invocations:
        inv.write_inputs(workdir)
    return invocations
