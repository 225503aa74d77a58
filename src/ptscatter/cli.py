"""Command-line front end: k-grid scans, analytic-vs-numeric comparison,
symmetry reports and lattice sweeps, emitted as CSV or JSON.

Exit codes: 0 ok, 2 configuration error, 3 solver error (named with the
failing k when one k is at fault), 4 comparison threshold exceeded.  CSV
cells carry 17 significant digits with Unix newlines so outputs are
bit-stable.  ``--parallel`` is accepted and ignored: every k grid is
evaluated serially, in order.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import potentials, separable, symmetry
from .core import coefficients_from_amplitudes, smatrix_from_transfer
from .errors import ScatteringError, TransferOverflow
from .numeric import IntegrationConfig, integrate_batch, sampled_potential

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_THRESHOLD = 4

POTENTIAL_KINDS = ("square-well", "multi-well", "scarf", "centrifugal",
                   "yamaguchi", "custom-sampled")


class ConfigError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_text(path: str | None, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) if isinstance(c, float) else str(c) for c in row))
    return "\n".join(lines) + "\n"


# -- evaluation over the k grid -----------------------------------------------

def _blame(exc, k):
    """Name k as the failing wave number unless the error names one already."""
    if getattr(exc, "k", None) is None:
        exc.k = k


def _over_k(fn, ks, *columns) -> list:
    """fn(k, *row) for each k in order, with row taken from the columns in
    step; a solver or arithmetic error names its k."""
    out = []
    for k, *row in zip(ks, *columns):
        try:
            out.append(fn(k, *row))
        except (ScatteringError, ArithmeticError) as exc:
            _blame(exc, k)
            raise
    return out


def _each_k(closed_form):
    return lambda ks: _over_k(closed_form, ks)


def _integrated(potential, cfg):
    """Coefficients over the grid from one ``integrate_batch`` sweep."""
    def sweep(ks):
        try:
            amps = integrate_batch(potential, ks, cfg)
        except (ScatteringError, ArithmeticError) as exc:
            _blame(exc, ks[0])
            raise
        return _over_k(lambda k, a: coefficients_from_amplitudes(a), ks, amps)
    return sweep


# -- potential construction ---------------------------------------------------

@dataclass
class Problem:
    kind: str
    label: dict
    coefficients: object            # k grid -> [ScatteringCoefficients]
    local: bool
    potential: object = None        # LocalPotential when one exists
    kernel: object = None


def build_problem(args) -> Problem:
    kind = args.potential
    if kind not in POTENTIAL_KINDS:
        raise ConfigError(f"unknown potential kind {kind!r}; choose from {POTENTIAL_KINDS}")
    if kind == "square-well":
        p = potentials.SquareWellParams(v0=args.v0, v1=args.v1, b=args.b)
        return Problem(kind=kind, label={"kind": kind, "v0": args.v0, "v1": args.v1, "b": args.b},
                       coefficients=_each_k(lambda k: potentials.square_well_coefficients(p, k)),
                       local=True, potential=potentials.square_well_potential(p))
    if kind == "multi-well":
        p = potentials.LatticeParams(well=potentials.SquareWellParams(args.v0, args.v1, args.b),
                                     a=args.a, n=args.n)
        return Problem(kind=kind,
                       label={"kind": kind, "v0": args.v0, "v1": args.v1, "b": args.b,
                              "a": args.a, "n": args.n},
                       coefficients=_each_k(lambda k: smatrix_from_transfer(
                           potentials.multi_well_transfer(p, k))),
                       local=True, potential=potentials.lattice_potential(p))
    if kind == "scarf":
        lam = complex(args.lambda_re, args.lambda_im)
        eps = 0.0 if args.eps is None else args.eps
        p = potentials.ScarfParams(s=args.s, lam=lam, eps=eps)
        return Problem(kind=kind,
                       label={"kind": kind, "s": args.s, "lambda_re": args.lambda_re,
                              "lambda_im": args.lambda_im, "eps": eps},
                       coefficients=_each_k(lambda k: potentials.scarf_coefficients(p, k)),
                       local=True, potential=potentials.scarf_potential(p, cutoff=args.cutoff))
    if kind == "centrifugal":
        eps = 0.1 if args.eps is None else args.eps
        p = potentials.CentrifugalParams(alpha_strength=args.strength, eps=eps)
        return Problem(kind=kind, label={"kind": kind, "strength": args.strength, "eps": eps},
                       coefficients=_each_k(lambda k: potentials.centrifugal_coefficients(p, k)),
                       local=True,
                       potential=potentials.centrifugal_potential(p, cutoff=args.cutoff))
    if kind == "yamaguchi":
        kernel = separable.SeparableKernel.yamaguchi(
            gamma=args.gamma, delta=args.delta, alpha=args.alpha, beta=args.beta,
            lam=args.strength)
        return Problem(kind=kind,
                       label={"kind": kind, "gamma": args.gamma, "delta": args.delta,
                              "alpha": args.alpha, "beta": args.beta, "strength": args.strength},
                       coefficients=_each_k(lambda k: separable.nonlocal_coefficients(kernel, k)),
                       local=False, kernel=kernel)
    # custom-sampled
    if not args.samples_file:
        raise ConfigError("custom-sampled potential requires --samples-file")
    data = np.loadtxt(args.samples_file, delimiter=",", ndmin=2)
    if data.shape[1] < 3:
        raise ConfigError("samples file needs columns x, re(V), im(V)")
    pot = sampled_potential(data[:, 0], data[:, 1] + 1j * data[:, 2])
    return Problem(kind=kind, label={"kind": kind, "samples_file": args.samples_file},
                   coefficients=_integrated(pot, IntegrationConfig(step=args.step)),
                   local=True, potential=pot)


def _k_grid(args) -> list:
    if args.kmin <= 0:
        raise ConfigError(f"kmin must be > 0, got {args.kmin}")
    if args.kcount < 1:
        raise ConfigError(f"kcount must be >= 1, got {args.kcount}")
    if args.kcount == 1:
        return [float(args.kmin)]
    if args.kmax <= args.kmin:
        raise ConfigError("kmax must be > kmin")
    return np.linspace(args.kmin, args.kmax, args.kcount).tolist()


# -- subcommands --------------------------------------------------------------

SCAN_HEADER = ["k", "t_lr_re", "t_lr_im", "r_lr_re", "r_lr_im", "t_rl_re", "t_rl_im",
               "r_rl_re", "r_rl_im", "abs_t_lr_sq", "abs_r_lr_sq", "abs_det_s",
               "unitarity_defect"]


def _scan_row(k: float, c) -> list:
    return [k, c.t_lr.real, c.t_lr.imag, c.r_lr.real, c.r_lr.imag,
            c.t_rl.real, c.t_rl.imag, c.r_rl.real, c.r_rl.imag,
            abs(c.t_lr) ** 2, abs(c.r_lr) ** 2, abs(c.det),
            abs(c.t_lr) ** 2 + abs(c.r_lr) ** 2 - 1.0]


def cmd_scan(args) -> int:
    problem = build_problem(args)
    ks = _k_grid(args)
    rows = _over_k(_scan_row, ks, problem.coefficients(ks))
    if args.format == "csv":
        _write_text(args.out, _csv(SCAN_HEADER, rows))
    else:
        payload = {"potential": problem.label,
                   "rows": [dict(zip(SCAN_HEADER, r)) for r in rows]}
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_compare(args) -> int:
    problem = build_problem(args)
    if problem.potential is None or problem.kind in ("custom-sampled",):
        raise ConfigError(f"potential kind {problem.kind!r} has no analytic/numeric route pair")
    ks = _k_grid(args)
    routes, failed = [], []
    for route in (problem.coefficients, _integrated(problem.potential,
                                                    IntegrationConfig(step=args.step))):
        try:
            routes.append(route(ks))
        except (ScatteringError, ArithmeticError) as exc:
            failed.append(exc)
    if failed:
        raise min(failed, key=lambda exc: exc.k)

    names = ("t_lr", "r_lr", "t_rl", "r_rl")
    rows, rels = [], []
    for k, ca, cn in zip(ks, *routes):
        entry = {"k": k}
        for name in names:
            a, n = getattr(ca, name), getattr(cn, name)
            scale = max(abs(a), abs(n), 1.0)
            rel = abs(a - n) / scale
            rels.append(rel)
            entry[name] = {"analytic": [a.real, a.imag], "numeric": [n.real, n.imag],
                           "abs_diff": abs(a - n), "rel_diff": rel}
        rows.append(entry)
    summary = {"max_rel_diff": max(rels), "median_rel_diff": float(np.median(rels)),
               "threshold": args.threshold, "threshold_exceeded": max(rels) > args.threshold}
    payload = {"potential": problem.label, "integration_step": args.step,
               "rows": rows, "summary": summary}
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    if summary["threshold_exceeded"]:
        print(f"comparison threshold exceeded: max rel diff {max(rels):.3e} > {args.threshold}",
              file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_symmetry(args) -> int:
    problem = build_problem(args)
    ks = _k_grid(args)
    if problem.kernel is not None:
        cls = separable.kernel_symmetry_class(problem.kernel)
        extra = ("symmetric_xy", "reality")
    else:
        cls = symmetry.classify_local_potential(problem.potential)
        extra = ("parity_generalized", "x0")
    cls_payload = {name: getattr(cls, name)
                   for name in ("hermitian", "parity", "time_reversal", "pt", *extra)}

    relations, exact = [], []
    suite_hold: dict = {}

    def report(k, s):
        for r in symmetry.check_s_relations(s, cls, local=problem.local, k=k):
            relations.append({"k": k, "name": r.name, "anchor": r.anchor,
                              "residual": None if math.isnan(r.residual) else r.residual,
                              "tolerance": r.tolerance, "holds": r.holds,
                              "applicable": r.applicable})
            if r.applicable:
                suite_hold[r.suite] = suite_hold.get(r.suite, True) and r.holds
        ex = symmetry.exact_asymptotic_pt_check(s)
        exact.append({"k": k, "is_exact": ex.is_exact,
                      "theta_lr": ex.theta_lr, "theta_rl": ex.theta_rl})

    _over_k(report, ks, problem.coefficients(ks))
    suites = {suite: ("holds" if suite_hold[suite] else "violated") if suite in suite_hold
              else "not-applicable" for suite in symmetry.SUITES}
    payload = {"potential": problem.label, "class": cls_payload, "suites": suites,
               "relations": relations, "exact_asymptotic_pt": exact}
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


LATTICE_HEADER = ["n", "k", "abs_t_lr", "abs_r_lr", "abs_t_rl", "abs_r_rl",
                  "det_m_re", "det_m_im", "overflow"]


def cmd_lattice(args) -> int:
    well = potentials.SquareWellParams(v0=args.v0, v1=args.v1, b=args.b)
    ks = _k_grid(args)
    n_values = list(range(args.n, (args.n_max or args.n) + 1))

    def one(n, k):
        p = potentials.LatticeParams(well=well, a=args.a, n=n)
        try:
            m = potentials.multi_well_transfer(p, k)
        except TransferOverflow:
            nan = float("nan")
            return [n, k, nan, nan, nan, nan, nan, nan, 1]
        c = smatrix_from_transfer(m)
        det, abs_t_rl = m.det, abs(c.t_rl)
        if not cmath.isfinite(det):
            # the elementwise det overflows once |M| > ~1e154; the edge
            # phases have unit det, so det M = det(T)^n, and T_rl = det M T_lr
            det = potentials.lattice_tmatrix(p, k).det ** n
            abs_t_rl = abs(det * c.t_lr)
        return [n, k, abs(c.t_lr), abs(c.r_lr), abs_t_rl, abs(c.r_rl), det.real, det.imag, 0]

    rows = [row for n in n_values for row in _over_k(lambda k, n=n: one(n, k), ks)]
    _write_text(args.out, _csv(LATTICE_HEADER, rows))
    return EXIT_OK


# -- argument plumbing --------------------------------------------------------

_DEFAULTS = {
    "v0": 1.0, "v1": 0.5, "b": 1.0, "a": 0.5, "n": 1, "n_max": None,
    "s": 1.3, "lambda_re": 0.7, "lambda_im": 0.0, "eps": None,
    "alpha": 0.0, "beta": 0.0, "gamma": 1.0, "delta": 1.0, "strength": 1.0,
    "kmin": 0.2, "kmax": 4.0, "kcount": 50,
    "out": None, "format": "csv", "parallel": False,
    "step": 1e-3, "cutoff": 20.0, "threshold": 1e-5,
    "potential": "square-well", "samples_file": None, "config": None,
}


def _add_common(sub):
    sub.add_argument("--potential", choices=POTENTIAL_KINDS)
    sub.add_argument("--v0", type=float)
    sub.add_argument("--v1", type=float)
    sub.add_argument("--b", type=float)
    sub.add_argument("--a", type=float)
    sub.add_argument("--n", type=int)
    sub.add_argument("--n-max", dest="n_max", type=int)
    sub.add_argument("--s", type=float)
    sub.add_argument("--lambda-re", dest="lambda_re", type=float)
    sub.add_argument("--lambda-im", dest="lambda_im", type=float)
    sub.add_argument("--eps", type=float)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--beta", type=float)
    sub.add_argument("--gamma", type=float)
    sub.add_argument("--delta", type=float)
    sub.add_argument("--strength", type=float)
    sub.add_argument("--kmin", type=float)
    sub.add_argument("--kmax", type=float)
    sub.add_argument("--kcount", type=int)
    sub.add_argument("--out")
    sub.add_argument("--format", choices=("csv", "json"))
    sub.add_argument("--parallel", action="store_true", default=None)
    sub.add_argument("--step", type=float)
    sub.add_argument("--cutoff", type=float)
    sub.add_argument("--threshold", type=float)
    sub.add_argument("--samples-file", dest="samples_file")
    sub.add_argument("--config", help="JSON file with defaults; explicit flags win")


def _merge_config(args) -> argparse.Namespace:
    merged = dict(_DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        unknown = set(file_values) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_values)
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    merged["command"] = args.command
    return argparse.Namespace(**merged)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ptscatter",
        description="transmission/reflection scans for complex local and separable non-local potentials")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("scan", "coefficient scan over a k grid"),
                           ("compare", "analytic vs direct-integration comparison"),
                           ("symmetry", "symmetry classification and relation residuals"),
                           ("lattice", "multi-well lattice scan")):
        _add_common(subs.add_parser(name, help=helptext))
    args = parser.parse_args(argv)
    try:
        merged = _merge_config(args)
        if merged.command == "scan":
            return cmd_scan(merged)
        if merged.command == "compare":
            return cmd_compare(merged)
        if merged.command == "symmetry":
            return cmd_symmetry(merged)
        return cmd_lattice(merged)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ScatteringError, ArithmeticError) as exc:
        at = "" if getattr(exc, "k", None) is None else f" at k = {exc.k}"
        print(f"solver error{at}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
