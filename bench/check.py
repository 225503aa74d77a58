"""Independent output checker.

It never trusts the program's own verdicts (``compare``'s summary, the
``holds`` flags of ``symmetry``): every number it accepts is recomputed from
the raw rows and compared with an mpmath reference (``reference.py``) or an
exact identity.

Two kinds of problem are told apart:

* a *failed* invocation: an exit code other than 0, a traceback, a missing
  or unreadable output, or a row with a NaN/inf value that the program did
  not flag as overflowed.  Failures are counted, not fatal.
* an *error*: a finite value that disagrees with its reference or breaks an
  identity beyond tolerance.  Any error makes the run incorrect.

``worst`` is the largest relative error against a reference; the benchmark
reports -log10 of it as ``correct_digits``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

import reference

CONTRACT_EXITS = (0, 2, 3, 4)

# relative-error tolerances
TOL_CLOSED_FORM = 1e-9        # closed form vs mpmath, normwise over the row's coefficients
TOL_IDENTITY = 1e-10          # exact identities evaluated on closed-form rows
TOL_NUMERIC_IDENTITY = 1e-8   # identities evaluated on integrated rows
TOL_SAMPLED_REF = 1e-3        # integrated tabulated profile vs the closed form it samples
TOL_DERIVED = 1e-12           # derived CSV columns vs the coefficients in the same row
TOL_LATTICE = 1e-7            # lattice |T_lr| and |R| vs the mpmath running product; repeated
                              # squaring of a strongly non-normal cell matrix loses ~6 digits
                              # in narrow pass bands at n ~ 400
TOL_LATTICE_DET = 1e-8        # lattice det M = 1 and |T_rl| = |T_lr|, relative to max|M_ij|^2
OVERFLOW_LIMIT = 1e300

SCAN_COLUMNS = ["k", "t_lr_re", "t_lr_im", "r_lr_re", "r_lr_im", "t_rl_re", "t_rl_im",
                "r_rl_re", "r_rl_im", "abs_t_lr_sq", "abs_r_lr_sq", "abs_det_s",
                "unitarity_defect"]
LATTICE_COLUMNS = ["n", "k", "abs_t_lr", "abs_r_lr", "abs_t_rl", "abs_r_rl",
                   "det_m_re", "det_m_im", "overflow"]
COEFFS = ("t_lr", "r_lr", "t_rl", "r_rl")


@dataclass
class Result:
    """Verdict on one invocation."""

    name: str
    failed: list = field(default_factory=list)   # reasons the invocation failed
    errors: list = field(default_factory=list)   # wrong values
    worst: float = 0.0                           # worst relative error vs a reference
    stats: dict = field(default_factory=dict)

    def fail(self, reason: str):
        self.failed.append(reason)

    def error(self, what: str):
        self.errors.append(what)

    def against_reference(self, err: float, tol: float, what: str, digits: bool = True):
        if not err <= tol:
            self.error(f"{what}: relative error {err:.3e} > {tol:.0e}")
        if digits:
            self.worst = max(self.worst, float(err))

    def within(self, residual: float, tol: float, what: str):
        if not residual <= tol:
            self.error(f"{what}: residual {residual:.3e} > {tol:.3e}")


def _normwise(got, ref) -> float:
    """max |got - ref| over max |ref|, for the coefficients of one row."""
    got, ref = np.asarray(got), np.asarray(ref)
    return float(np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300))


def expected_k(grid: dict) -> np.ndarray:
    if grid["kcount"] == 1:
        return np.array([grid["kmin"]])
    return np.linspace(grid["kmin"], grid["kmax"], grid["kcount"])


def reference_coefficients(spec: dict, k: float):
    """mpmath (T_lr, R_lr, T_rl, R_rl) for the potential of a scan/compare/symmetry call."""
    p, kind = spec["params"], spec["potential"]
    if kind == "square-well":
        return reference.square_well(p["v0"], p["v1"], p["b"], k)
    if kind == "scarf":
        return reference.scarf(p["s"], complex(p["lambda_re"], p["lambda_im"]), p["eps"], k)
    if kind == "yamaguchi":
        return reference.yamaguchi(p["gamma"], p["delta"], p["alpha"], p["beta"],
                                   p["strength"], k)
    if kind == "centrifugal":
        return (1.0, 0.0, 1.0, 0.0)
    if kind == "custom-sampled":
        return reference.scarf(spec["profile"]["s"], 0.0, 0.0, k)
    raise ValueError(f"no reference for {kind!r}")


def reference_table(spec: dict) -> dict:
    """References at the call's seeded subset of the k grid (computed once per run)."""
    ks = expected_k(spec["grid"])
    if spec["command"] == "lattice":
        p = spec["params"]
        return {int(i): reference.lattice(p["v0"], p["v1"], p["b"], p["a"], p["n_max"], ks[i])
                for i in spec["ref_rows"]}
    return {int(i): reference_coefficients(spec, ks[i]) for i in spec["ref_rows"]}


def _is_local(spec) -> bool:
    return spec["potential"] != "yamaguchi"


def _is_hermitian(spec) -> bool:
    p = spec["params"]
    if spec["potential"] == "custom-sampled":
        return True
    return spec["potential"] == "scarf" and p["lambda_im"] == 0.0 and p["eps"] == 0.0


def _is_pt(spec) -> bool:
    p = spec["params"]
    return (spec["potential"] == "square-well"
            or (spec["potential"] == "scarf" and p["lambda_re"] == 0.0 and p["eps"] == 0.0))


def _check_grid(res: Result, spec: dict, ks: np.ndarray) -> bool:
    want = expected_k(spec["grid"])
    if ks.shape != want.shape:
        res.error(f"{len(ks)} rows, expected {len(want)}")
        return False
    if not np.allclose(ks, want, rtol=1e-14, atol=0.0):
        res.error("k column differs from the requested grid")
        return False
    return True


def _check_coefficient_rows(res: Result, spec: dict, ks, c: dict, refs: dict, numeric: bool):
    """Identities on every row and references on the seeded subset."""
    t_lr, r_lr, t_rl, r_rl = (c[n] for n in COEFFS)
    finite = np.all([np.isfinite(v) for v in (t_lr, r_lr, t_rl, r_rl)], axis=0)
    if not finite.all():
        res.fail(f"{int((~finite).sum())} rows with NaN/inf coefficients")
        res.stats["nan_rows"] = int((~finite).sum())
        return
    ident_tol = TOL_NUMERIC_IDENTITY if numeric else TOL_IDENTITY
    scale = np.maximum.reduce([np.abs(t_lr), np.abs(r_lr), np.abs(t_rl), np.abs(r_rl),
                               np.ones_like(ks)])
    if _is_local(spec):
        res.within(float(np.max(np.abs(t_lr - t_rl) / scale)), ident_tol, "T_lr = T_rl (det M = 1)")
    if _is_hermitian(spec):
        for t, r, side in ((t_lr, r_lr, "left"), (t_rl, r_rl, "right")):
            res.within(float(np.max(np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1))), ident_tol,
                       f"|T|^2 + |R|^2 = 1 ({side} incidence)")
    if _is_pt(spec):
        det = t_lr * t_rl - r_lr * r_rl
        res.within(float(np.max(np.abs(np.abs(det) - 1) / scale ** 2)), ident_tol, "|det S| = 1")
    if spec["potential"] == "centrifugal":
        res.within(float(max(np.max(np.abs(t_lr - 1)), np.max(np.abs(t_rl - 1)),
                             np.max(np.abs(r_lr)), np.max(np.abs(r_rl)))),
                   1e-12, "T = 1 and R = 0")
    sampled = spec["potential"] == "custom-sampled"
    tol = TOL_SAMPLED_REF if sampled else (spec.get("threshold", 1e-5) if numeric else TOL_CLOSED_FORM)
    for i, ref in refs.items():
        got = (t_lr[i], r_lr[i], t_rl[i], r_rl[i])
        res.against_reference(_normwise(got, ref), tol,
                              f"{'numeric' if numeric else 'closed form'} at k = {float(ks[i])!r}",
                              digits=not sampled)


def _read_scan(path, fmt: str):
    if fmt == "csv":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        if header != SCAN_COLUMNS:
            raise ValueError(f"unexpected header {header}")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        cols = {name: data[:, j] for j, name in enumerate(SCAN_COLUMNS)}
    else:
        with open(path) as fh:
            rows = json.load(fh)["rows"]
        cols = {name: np.array([float(r[name]) for r in rows]) for name in SCAN_COLUMNS}
    return cols


def check_scan(res: Result, spec: dict, path, refs: dict):
    cols = _read_scan(path, spec["format"])
    ks = cols["k"]
    if not _check_grid(res, spec, ks):
        return
    c = {n: cols[f"{n}_re"] + 1j * cols[f"{n}_im"] for n in COEFFS}
    _check_coefficient_rows(res, spec, ks, c, refs, numeric=spec["potential"] == "custom-sampled")
    if res.failed:
        return
    derived = {
        "abs_t_lr_sq": np.abs(c["t_lr"]) ** 2,
        "abs_r_lr_sq": np.abs(c["r_lr"]) ** 2,
        "abs_det_s": np.abs(c["t_lr"] * c["t_rl"] - c["r_lr"] * c["r_rl"]),
        "unitarity_defect": np.abs(c["t_lr"]) ** 2 + np.abs(c["r_lr"]) ** 2 - 1.0,
    }
    for name, want in derived.items():
        scale = np.maximum(np.abs(want), 1.0)
        res.within(float(np.max(np.abs(cols[name] - want) / scale)), TOL_DERIVED, f"column {name}")


def check_compare(res: Result, spec: dict, path, refs: dict):
    with open(path) as fh:
        rows = json.load(fh)["rows"]
    ks = np.array([float(r["k"]) for r in rows])
    if not _check_grid(res, spec, ks):
        return
    for route in ("analytic", "numeric"):
        c = {n: np.array([complex(*r[n][route]) for r in rows]) for n in COEFFS}
        _check_coefficient_rows(res, spec, ks, c, refs, numeric=route == "numeric")


def _wrapped_angle(a, b) -> float:
    return abs((a - b + math.pi) % (2 * math.pi) - math.pi)


def expected_symmetry(spec: dict):
    """(class flags, suite verdicts, relation names per k) for the generated inputs."""
    if spec["potential"] == "square-well":    # v1 != 0: combined symmetry only
        flags = {"hermitian": False, "parity": False, "time_reversal": False, "pt": True,
                 "parity_generalized": False}
        suites = {"local": "holds", "pt": "holds"}
        names = {"local_equal_transmission", "pt_inverse_conjugate", "pt_unimodular_det",
                 "pt_transmission_moduli", "pt_reflection_product_real",
                 "pt_local_equal_transmission", "pt_local_lr_phase_lock", "pt_local_rl_phase_lock"}
    else:                                     # asymmetric Yamaguchi kernel with phases
        flags = {"hermitian": False, "parity": False, "time_reversal": False, "pt": True,
                 "symmetric_xy": False, "reality": False}
        suites = {"pt": "holds"}
        names = {"pt_inverse_conjugate", "pt_unimodular_det", "pt_transmission_moduli",
                 "pt_reflection_product_real"}
    all_suites = {s: suites.get(s, "not-applicable")
                  for s in ("local", "p", "p_generalized", "t", "hermitian_t", "pt")}
    return flags, all_suites, names


def check_symmetry(res: Result, spec: dict, path, refs: dict):
    with open(path) as fh:
        payload = json.load(fh)
    flags, suites, names = expected_symmetry(spec)
    for key, want in flags.items():
        if payload["class"].get(key) != want:
            res.error(f"class flag {key} = {payload['class'].get(key)}, expected {want}")
    if payload["suites"] != suites:
        res.error(f"suites {payload['suites']}, expected {suites}")
    exact = payload["exact_asymptotic_pt"]
    ks = np.array([float(e["k"]) for e in exact])
    if not _check_grid(res, spec, ks):
        return
    per_k: dict = {}
    for r in payload["relations"]:
        per_k.setdefault(r["k"], set()).add(r["name"])
        if r["applicable"] and (r["residual"] is None or not 0.0 <= r["residual"] <= r["tolerance"]):
            res.error(f"relation {r['name']} at k = {r['k']}: residual {r['residual']}")
    if len(per_k) != len(ks) or any(v != names for v in per_k.values()):
        res.error("relation set per k differs from the expected suite")
    res.stats["relations"] = len(payload["relations"])
    for i, (t_lr, r_lr, t_rl, r_rl) in refs.items():
        e = exact[i]
        reflectionless = max(abs(r_lr), abs(r_rl)) < 1e-10 and abs(abs(t_lr) - 1) < 1e-10
        if e["is_exact"] != reflectionless:
            res.error(f"exact-symmetry flag at k = {float(ks[i])!r}")
        err = max(_wrapped_angle(e["theta_lr"], -np.angle(t_lr)),
                  _wrapped_angle(e["theta_rl"], -np.angle(t_rl)))
        res.against_reference(err, TOL_CLOSED_FORM, f"transmission phase at k = {float(ks[i])!r}")


def check_lattice(res: Result, spec: dict, path, refs: dict):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    if header != LATTICE_COLUMNS:
        raise ValueError(f"unexpected header {header}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    p = spec["params"]
    ks_grid = expected_k(spec["grid"])
    ns = np.arange(p["n"], p["n_max"] + 1)
    if data.shape[0] != len(ns) * len(ks_grid):
        res.error(f"{data.shape[0]} rows, expected {len(ns) * len(ks_grid)}")
        return
    n_col, k_col = data[:, 0], data[:, 1]
    if not (np.array_equal(n_col, np.repeat(ns, len(ks_grid)))
            and np.allclose(k_col, np.tile(ks_grid, len(ns)), rtol=1e-14, atol=0.0)):
        res.error("n/k columns differ from the requested sweep")
        return
    vals, flag = data[:, 2:8], data[:, 8]
    flagged = flag == 1
    res.stats["rows"] = int(len(flag))
    res.stats["overflow_rows"] = int(flagged.sum())
    if not np.all(np.isnan(vals[flagged])):
        res.error("overflow-flagged rows carry values")
    finite = np.all(np.isfinite(vals), axis=1)
    unflagged_bad = ~flagged & ~finite
    res.stats["nan_rows"] = int(unflagged_bad.sum())
    if unflagged_bad.any():
        first = int(np.argmax(unflagged_bad))
        res.fail(f"{int(unflagged_bad.sum())} rows with NaN/inf but no overflow flag "
                 f"(first: n = {int(n_col[first])}, k = {float(k_col[first])!r})")
    ok = ~flagged & finite
    t_lr, r_lr, t_rl, r_rl = (vals[ok, j] for j in range(4))
    det = vals[ok, 4] + 1j * vals[ok, 5]
    # |M_RR| = 1/|T_lr|, |M_LR| = |R_lr|/|T_lr|, |M_RL| = |R_rl|/|T_lr|.  det M is a
    # difference of products of elements, so double precision resolves it only
    # relative to max|M_ij|^2; amplified rows are held to that, not to 1.
    with np.errstate(over="ignore"):
        scale = np.maximum((np.maximum.reduce([np.ones_like(t_lr), r_lr, r_rl]) / t_lr) ** 2, 1.0)
    res.within(float(np.max(np.abs(det - 1) / scale, initial=0.0)), TOL_LATTICE_DET,
               "det M = 1 (relative to max|M_ij|^2)")
    res.within(float(np.max(np.abs(t_rl - t_lr) / (t_lr * scale), initial=0.0)), TOL_LATTICE_DET,
               "|T_rl| = |T_lr| (relative to max|M_ij|^2)")
    res.stats["det_lossy_rows"] = int(np.sum(np.abs(det - 1) > 1e-6))
    # Besides the seeded k, check the k whose row drifts furthest from det M = 1
    # relative to its scale: rounding accumulates most there, so every run
    # includes the sweep's least accurate point.
    if ok.any():
        drift = np.zeros(len(flag))
        drift[ok] = np.abs(det - 1) / scale
        worst_k = int(np.argmax(drift)) % len(ks_grid)
        if worst_k not in refs:
            refs = {**refs, worst_k: reference.lattice(p["v0"], p["v1"], p["b"], p["a"], p["n_max"],
                                                       ks_grid[worst_k])}
    for i, per_n in refs.items():
        for j, (ref_t, ref_rlr, ref_rrl, ref_max) in enumerate(per_n):
            row = j * len(ks_grid) + i
            where = f"n = {int(n_col[row])}, k = {float(k_col[row])!r}"
            if flagged[row]:
                if ref_max < OVERFLOW_LIMIT * 1e-20:
                    res.error(f"row flagged as overflow but max|M| = {ref_max:.3e} ({where})")
                continue
            if ref_max > OVERFLOW_LIMIT * 1e10:
                res.error(f"max|M| = {ref_max:.3e} but row not flagged ({where})")
            if not finite[row]:
                continue
            got = data[row, 2:8]
            res.against_reference(abs(got[0] - ref_t) / ref_t, TOL_LATTICE, f"|T_lr| at {where}")
            res.against_reference(
                max(abs(got[1] - ref_rlr), abs(got[3] - ref_rrl)) / max(ref_rlr, ref_rrl, ref_t),
                TOL_LATTICE, f"|R| at {where}")


_CHECKS = {"scan": check_scan, "compare": check_compare, "symmetry": check_symmetry,
           "lattice": check_lattice}


def check_invocation(name: str, spec: dict, exit_code: int, stderr: str, out_path, refs: dict) -> Result:
    """Classify one finished invocation and check its output."""
    res = Result(name=name)
    if "Traceback (most recent call last)" in stderr:
        res.fail("traceback on stderr")
    if exit_code not in CONTRACT_EXITS:
        res.fail(f"exit code {exit_code} outside the documented 0/2/3/4")
    elif exit_code != 0:
        res.fail(f"exit code {exit_code}: {stderr.strip()[-200:]}")
    if res.failed:
        return res
    try:
        _CHECKS[spec["command"]](res, spec, out_path, refs)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        res.fail(f"unreadable output: {type(exc).__name__}: {exc}")
    return res
