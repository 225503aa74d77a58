"""Command-line front end: k-grid scans, analytic-vs-numeric comparison,
symmetry reports and lattice sweeps, emitted as CSV or JSON.

Exit codes: 0 ok, 2 configuration error, 3 solver error (named with the
failing k when one k is at fault), 4 comparison threshold exceeded.  CSV
cells carry 17 significant digits with Unix newlines so outputs are
bit-stable.  Closed forms and symmetry relations are evaluated over the
whole k grid at once (one k is a one-element grid), and a failure is the
named ScatteringError at the first failing k.  A command
opens its output only once every value is computed, so a failed run writes
no file, and spells a table in chunks of rows as it writes them.
Table floats are spelled a column at a time by ``spell``, as ``"%.17g" % x``
(CSV) and ``json.dumps`` (JSON) spell them, byte for byte; CPython
still spells each value that ``spell`` cannot round with certainty (within
1e-6 of a tie or an interval edge, in units of the 17th digit) and each
with |x| outside [1e-250, 1e250].

A command loads only the modules it uses: ``potentials`` for the closed
forms of the local potentials (square-well, multi-well, Scarf, centrifugal)
and for ``lattice``, ``numeric`` where it integrates or builds a sampled
profile (``compare`` and ``symmetry`` of a local potential, custom-sampled),
``specfun`` for Scarf, and ``separable`` and ``symmetry`` for Yamaguchi
kernels and the ``symmetry`` command; none loads ``numpy.ma`` or
``gzip``, and only ``numeric`` loads ``dataclasses``.
Importing this module loads numpy's OpenBLAS with one thread, as its BLAS
calls are 2x2 stacks and small panels that a thread pool only slows to
start, unless numpy is already imported or one of ``BLAS_THREADS`` is set
in the environment, which is left as it was.  Run as the process's
own command line (``main()`` without argv, as the console script does),
``main`` first has glibc's malloc keep the memory the command frees rather
than hand it back and fault it in again, unless the environment sets a
malloc threshold (one of ``MALLOC_SETTINGS`` or a ``glibc.malloc.`` tunable
in ``GLIBC_TUNABLES``); it ends by flushing stdout and stderr and ending the
process with its exit code at once, without the interpreter's teardown.
``main(argv)`` returns the code and leaves the allocator as glibc set it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

#: the variables OpenBLAS takes its thread count from
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                "OPENBLAS_DEFAULT_NUM_THREADS")

if "numpy" in sys.modules or any(name in os.environ for name in BLAS_THREADS):
    import numpy as np
else:   # numpy's OpenBLAS starts with one thread, and the environment is left as it was
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import core
from .errors import ScatteringError, TransferOverflow

#: the variables glibc's malloc takes its thresholds from, besides the
#: ``glibc.malloc.`` tunables of GLIBC_TUNABLES
MALLOC_SETTINGS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_",
                   "MALLOC_MMAP_MAX_")
#: (mallopt parameter, value): M_MMAP_THRESHOLD at 32 MiB, glibc's ceiling for
#: its dynamic threshold on 64-bit, and M_TRIM_THRESHOLD at 1 GiB
_MALLOPT = ((-3, 32 << 20), (-1, 1 << 30))

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_THRESHOLD = 4

POTENTIAL_KINDS = ("square-well", "multi-well", "scarf", "centrifugal",
                   "yamaguchi", "custom-sampled")


class ConfigError(Exception):
    pass


# -- output: text and tables of rows, spelled in chunks -------------------------

#: a chunk, spelled at once, holds at most CHUNK_VALUES values, counting each
#: distinct column of a row once (on a 2-vCPU VM a closed-form-scan's eight
#: tables took 0.94 s to write at 8,192, 0.81 s at 32,768 and 1.07 s at
#: 131,072), and at most CHUNK_ROWS rows, which bounds the chunk's bytes when
#: its rows hold long constant text
CHUNK_ROWS, CHUNK_VALUES = 16384, 32768
#: most rows of a table: a larger grid is a configuration error before anything
#: is allocated (a Scarf scan peaks at ~65 MiB for 30,000 k and ~354 MiB for 300,000)
MAX_ROWS = 10 ** 6


class _Column:
    """One value per row, spelled in ``style``: "%.17g" or "json" (a float
    as ``json.dumps`` spells it, null where ``nulls`` is set), "%d" (an int
    or a bool) or "bool" (true/false)."""

    def __init__(self, values: np.ndarray, style: str, nulls: np.ndarray | None = None):
        self.values, self.style, self.nulls = values, style, nulls

    def fields(self, lo: int, hi: int):
        """``spell`` fields of rows lo..hi-1 of an int or bool column; for a
        float column, the text of their one value when all are equal, and
        None else."""
        values = self.values[lo:hi]
        if self.style in ("%d", "bool"):
            from . import spell

            return spell.integers(values) if self.style == "%d" else spell.words(values, ("false", "true"))
        nulls = None if self.nulls is None else self.nulls[lo:hi]
        bits = values.view(np.uint64)
        if np.all(bits == bits[0]) and (nulls is None or np.all(nulls == nulls[0])):
            if nulls is not None and nulls[0]:
                return b"null"
            v = float(values[0])
            return ("%.17g" % v if self.style == "%.17g" else json.dumps(v)).encode("ascii")
        return None


class _Table:
    """Rows given as columns, spelled as ``head``, then each row with ``sep``
    between rows, then ``tail``; ``empty`` stands for a table without rows.
    A row is ``texts[0]``, the first column's value, ``texts[1]``, ... ,
    the last column's value, ``texts[-1]``.

    A chunk of rows is built as one byte array from the constant texts and
    the columns' ``spell`` fields, whose bytes are CPython's, and its NUL
    padding is deleted in one ``bytes.translate`` pass (``replace`` copies
    the bytes between each pair of NULs on its own).  The float columns of
    one style are spelled by one call; a column object that appears more
    than once is spelled once, and a column whose rows in the chunk hold
    one value becomes constant text.
    """

    def __init__(self, columns, texts, head="", sep="", tail="", empty=None):
        self.columns, self.head, self.sep, self.tail = columns, head, sep, tail
        self.texts = [text.encode("ascii") for text in texts]
        self.texts[0] = sep.encode("ascii") + self.texts[0]
        self.empty = head + tail if empty is None else empty
        self.step = max(1, min(CHUNK_ROWS, CHUNK_VALUES // max(1, len(set(map(id, columns))))))

    def spell(self, lo: int, hi: int) -> str:
        """Rows lo..hi-1, led by the separator unless lo is the first row."""
        spelled, floats = {}, {}
        for column in self.columns:
            if id(column) not in spelled:
                spelled[id(column)] = column.fields(lo, hi)
                if spelled[id(column)] is None:
                    floats.setdefault(column.style, []).append(column)
        for style, columns in floats.items():
            from . import spell

            nulls = None
            if any(c.nulls is not None for c in columns):
                nulls = np.concatenate([np.zeros(hi - lo, dtype=bool) if c.nulls is None else c.nulls[lo:hi]
                                        for c in columns])
            fields = spell.floats(np.concatenate([c.values[lo:hi] for c in columns]), style, nulls)
            for i, column in enumerate(columns):         # less the slots its rows leave empty
                field = fields[:, i * (hi - lo):(i + 1) * (hi - lo)]
                spelled[id(column)] = field[np.any(field, axis=1)]
        parts = [self.texts[0]]             # constant texts and field arrays in turn
        for column, text in zip(self.columns, self.texts[1:]):
            field = spelled[id(column)]
            if isinstance(field, bytes):
                parts[-1] += field + text
            else:
                parts += [field, text]
        rows = np.empty((hi - lo, sum(map(len, parts))), dtype=np.uint8)
        at = 0
        for part in parts:
            rows[:, at:at + len(part)] = np.frombuffer(part, np.uint8) if isinstance(part, bytes) else part.T
            at += len(part)
        data = rows.tobytes().translate(None, b"\0")
        return data[len(self.sep) if lo == 0 else 0:].decode("ascii")

    def write(self, fh):
        rows = len(self.columns[0].values) if self.columns else 0
        if not rows:
            fh.write(self.empty)
            return
        fh.write(self.head)
        fh.writelines(self.spell(lo, min(lo + self.step, rows)) for lo in range(0, rows, self.step))
        fh.write(self.tail)


def _csv_table(header, columns) -> _Table:
    """A CSV table with a header line: int and bool columns as "%d", float ones as "%.17g"."""
    columns = [np.asarray(c) for c in columns]
    return _Table([_Column(c, "%d" if c.dtype.kind in "biu" else "%.17g") for c in columns],
                  [""] + [","] * (len(columns) - 1) + ["\n"], head=",".join(header) + "\n")


def _json_column(v: np.ndarray, nan_is_null: bool) -> _Column:
    if v.dtype == bool:
        return _Column(v, "bool")
    if v.dtype.kind in "iu":
        return _Column(v, "%d")
    return _Column(v, "json", np.isnan(v) if nan_is_null else None)


def _json_table(objects, nan_is_null=()) -> _Table:
    """A JSON list, at the top level of a document, of rows of one object per
    dict in ``objects``; a dict maps each key to a column (an array of
    floats, ints or bools) or to a constant.  A NaN in the float column of a
    key in ``nan_is_null`` is spelled null."""
    columns, texts, made = [], [""], {}
    for i, obj in enumerate(objects):
        texts[-1] += (",\n" if i else "") + "    {\n"
        for j, (key, v) in enumerate(obj.items()):
            texts[-1] += (",\n" if j else "") + f"      {json.dumps(key)}: "
            if isinstance(v, np.ndarray):       # one column object per array
                null = key in nan_is_null
                if (id(v), null) not in made:
                    made[id(v), null] = _json_column(v, null)
                columns.append(made[id(v), null])
                texts.append("")
            else:
                texts[-1] += json.dumps(v)
        texts[-1] += "\n    }"
    return _Table(columns, texts, head="[\n", sep=",\n", tail="\n  ]", empty="[]")


def _json_document(doc: dict) -> list:
    """``json.dumps(doc, indent=2)`` and a newline as parts for ``_write``:
    text, and the tables that stand for lists of rows at the top level."""
    parts = []
    for i, (key, v) in enumerate(doc.items()):
        parts.append(("{" if i == 0 else ",") + f"\n  {json.dumps(key)}: ")
        parts.append(v if isinstance(v, _Table) else json.dumps(v, indent=2).replace("\n", "\n  "))
    return parts + ["\n}\n"]


def _write(path: str | None, parts):
    """Write the parts, text and tables, to path (stdout for None or "-")."""
    def write(fh):
        for part in parts:
            part.write(fh) if isinstance(part, _Table) else fh.write(part)
    if path in (None, "-"):
        write(sys.stdout)
    else:
        with open(path, "w", newline="") as fh:
            write(fh)


# -- evaluation over the k grid -----------------------------------------------

def _integrated(potential, step: float):
    """Coefficients over the grid from one ``integrate_batch`` sweep; a
    failure that names no k is put at the grid's first."""
    from .numeric import IntegrationConfig, numeric_coefficients

    cfg = IntegrationConfig(step=step)

    def sweep(ks):
        try:
            return numeric_coefficients(potential, ks, cfg)
        except ScatteringError as exc:
            exc.k = float(ks[0]) if exc.k is None else exc.k
            raise
    return sweep


# -- potential construction ---------------------------------------------------

@core._frozen
class Problem:
    kind: str
    label: dict
    coefficients: object            # k grid -> ScatteringCoefficients of columns
    potential: object = None        # () -> LocalPotential, for the kinds that have one
    kernel: object = None


def build_problem(args) -> Problem:
    kind = args.potential
    if kind not in POTENTIAL_KINDS:
        raise ConfigError(f"unknown potential kind {kind!r}; choose from {POTENTIAL_KINDS}")
    if kind in ("square-well", "multi-well", "scarf", "centrifugal"):
        from . import potentials
    if kind == "square-well":
        p = potentials.SquareWellParams(v0=args.v0, v1=args.v1, b=args.b)
        return Problem(kind=kind, label={"kind": kind, "v0": args.v0, "v1": args.v1, "b": args.b},
                       coefficients=lambda ks: potentials.square_well_coefficients(p, ks),
                       potential=lambda: potentials.square_well_potential(p))
    if kind == "multi-well":
        p = potentials.LatticeParams(well=potentials.SquareWellParams(args.v0, args.v1, args.b),
                                     a=args.a, n=args.n)
        return Problem(kind=kind,
                       label={"kind": kind, "v0": args.v0, "v1": args.v1, "b": args.b,
                              "a": args.a, "n": args.n},
                       coefficients=lambda ks: potentials.multi_well_coefficients(p, ks),
                       potential=lambda: potentials.lattice_potential(p))
    if kind == "scarf":
        lam = complex(args.lambda_re, args.lambda_im)
        eps = 0.0 if args.eps is None else args.eps
        p = potentials.ScarfParams(s=args.s, lam=lam, eps=eps)
        # the tail-matched profile is built only by the commands that use it, but
        # every command rejects a cutoff it could not be built with
        core._require_support(-args.cutoff, args.cutoff)
        return Problem(kind=kind,
                       label={"kind": kind, "s": args.s, "lambda_re": args.lambda_re,
                              "lambda_im": args.lambda_im, "eps": eps},
                       coefficients=lambda ks: potentials.scarf_coefficients(p, ks),
                       potential=lambda: potentials.scarf_potential(p, cutoff=args.cutoff))
    if kind == "centrifugal":
        eps = 0.1 if args.eps is None else args.eps
        p = potentials.CentrifugalParams(alpha_strength=args.strength, eps=eps)
        core._require_support(-args.cutoff, args.cutoff)
        return Problem(kind=kind, label={"kind": kind, "strength": args.strength, "eps": eps},
                       coefficients=lambda ks: potentials.centrifugal_coefficients(p, ks),
                       potential=lambda: potentials.centrifugal_potential(p, cutoff=args.cutoff))
    if kind == "yamaguchi":
        from . import separable

        kernel = separable.SeparableKernel.yamaguchi(
            gamma=args.gamma, delta=args.delta, alpha=args.alpha, beta=args.beta,
            lam=args.strength)
        return Problem(kind=kind,
                       label={"kind": kind, "gamma": args.gamma, "delta": args.delta,
                              "alpha": args.alpha, "beta": args.beta, "strength": args.strength},
                       coefficients=lambda ks: separable.nonlocal_coefficients(kernel, ks),
                       kernel=kernel)
    # custom-sampled
    from .numeric import sampled_potential

    if not args.samples_file:
        raise ConfigError("custom-sampled potential requires --samples-file")
    with open(args.samples_file) as samples:     # a handle: a path would load numpy's gzip reader
        data = np.loadtxt(samples, delimiter=",", ndmin=2)
    if data.shape[1] < 3:
        raise ConfigError("samples file needs columns x, re(V), im(V)")
    v = data[:, 1].astype(complex)
    v.imag = data[:, 2]                 # no 1j * inf = nan + inf j for an infinite Im V
    pot = sampled_potential(data[:, 0], v)
    return Problem(kind=kind, label={"kind": kind, "samples_file": args.samples_file},
                   coefficients=_integrated(pot, args.step), potential=lambda: pot)


def _k_grid(args) -> np.ndarray:
    if not math.isfinite(args.kmin) or (args.kcount > 1 and not math.isfinite(args.kmax)):
        flag = "kmin" if not math.isfinite(args.kmin) else "kmax"
        raise ConfigError(f"{flag} must be finite, got {getattr(args, flag)}")
    if args.kmin <= 0:
        raise ConfigError(f"kmin must be > 0, got {args.kmin}")
    if args.kcount < 1:
        raise ConfigError(f"kcount must be >= 1, got {args.kcount}")
    if args.kcount > MAX_ROWS:
        raise ConfigError(f"kcount must be <= {MAX_ROWS}, got {args.kcount}")
    if args.kcount == 1:
        return np.array([args.kmin])
    if args.kmax <= args.kmin:
        raise ConfigError("kmax must be > kmin")
    return np.linspace(args.kmin, args.kmax, args.kcount)


# -- subcommands --------------------------------------------------------------

SCAN_HEADER = ["k", "t_lr_re", "t_lr_im", "r_lr_re", "r_lr_im", "t_rl_re", "t_rl_im",
               "r_rl_re", "r_rl_im", "abs_t_lr_sq", "abs_r_lr_sq", "abs_det_s",
               "unitarity_defect"]


def _moduli(ks, c) -> np.ndarray:
    """|T_lr|^2, |R_lr|^2 and |det S| over the grid as Python's abs and **
    give them at each k (abs is ``np.hypot``); TransferOverflow names the
    first k where one is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        t, r, d = (np.asarray(z, dtype=complex) for z in (c.t_lr, c.r_lr, c.det))
        out = np.array([core.COLUMN.pow(np.hypot(t.real, t.imag), 2.0),
                        core.COLUMN.pow(np.hypot(r.real, r.imag), 2.0), np.hypot(d.real, d.imag)])
    core._raise_first([(~np.all(np.isfinite(out), axis=0), lambda i: TransferOverflow(
        "|T_lr|^2, |R_lr|^2 or |det S| exceeded the float range"))], ks)
    return out


def cmd_scan(args) -> int:
    problem = build_problem(args)
    ks = _k_grid(args)
    c = problem.coefficients(ks)
    abs_t_sq, abs_r_sq, abs_det = _moduli(ks, c)
    columns = [ks, c.t_lr.real, c.t_lr.imag, c.r_lr.real, c.r_lr.imag, c.t_rl.real, c.t_rl.imag,
               c.r_rl.real, c.r_rl.imag, abs_t_sq, abs_r_sq, abs_det, abs_t_sq + abs_r_sq - 1.0]
    if args.format == "csv":
        _write(args.out, [_csv_table(SCAN_HEADER, columns)])
    else:
        rows = _json_table([dict(zip(SCAN_HEADER, columns))])
        _write(args.out, _json_document({"potential": problem.label, "rows": rows}))
    return EXIT_OK


def _median(values) -> float:
    """The median of a list of floats >= 0 as ``np.median`` takes it, bit
    for bit: the middle value, or half the sum of the middle two."""
    s, m = sorted(values), len(values) // 2
    return s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2


def cmd_compare(args) -> int:
    if not (math.isfinite(args.threshold) and args.threshold >= 0):
        raise ConfigError(f"threshold must be finite and >= 0, got {args.threshold}")
    problem = build_problem(args)
    if problem.kind == "custom-sampled":
        raise ConfigError(f"potential kind {problem.kind!r} has no analytic/numeric route pair")
    k = problem.kernel
    potential = problem.potential() if k is None else None
    ks = _k_grid(args)
    if k is None:
        numeric = _integrated(potential, args.step)
    else:       # the closed form against the causal sum of the same kernel taken as generic
        from . import separable

        generic = separable.SeparableKernel.from_form_factors(k.g, k.h, k.alpha, k.beta, k.lam, k.support)
        numeric = lambda ks: separable.nonlocal_coefficients(generic, ks)
    # both routes over the whole grid; the failure at the lowest k is raised,
    # the closed form's on a tie
    routes, failed = [], []
    for route in (problem.coefficients, numeric):
        try:
            routes.append(route(ks))
        except ScatteringError as exc:
            failed.append(exc)
    if failed:
        raise min(failed, key=lambda exc: exc.k)

    names = ("t_lr", "r_lr", "t_rl", "r_rl")
    values = {name: [getattr(c, name).tolist() for c in routes] for name in names}
    rows, rels = [], []
    for j, k in enumerate(ks.tolist()):
        entry = {"k": k}
        for name in names:
            a, n = values[name][0][j], values[name][1][j]
            scale = max(abs(a), abs(n), 1.0)
            rel = abs(a - n) / scale
            rels.append(rel)
            entry[name] = {"analytic": [a.real, a.imag], "numeric": [n.real, n.imag],
                           "abs_diff": abs(a - n), "rel_diff": rel}
        rows.append(entry)
    summary = {"max_rel_diff": max(rels), "median_rel_diff": _median(rels),
               "threshold": args.threshold, "threshold_exceeded": max(rels) > args.threshold}
    payload = {"potential": problem.label, "integration_step": args.step,
               "rows": rows, "summary": summary}
    _write(args.out, [json.dumps(payload, indent=2) + "\n"])
    if summary["threshold_exceeded"]:
        print(f"comparison threshold exceeded: max rel diff {max(rels):.3e} > {args.threshold}",
              file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_symmetry(args) -> int:
    from . import symmetry

    problem = build_problem(args)
    potential = None if problem.potential is None else problem.potential()
    ks = _k_grid(args)
    s = problem.coefficients(ks)
    if problem.kernel is not None:
        from . import separable

        cls = separable.kernel_symmetry_class(problem.kernel)
        extra = ("symmetric_xy", "reality")
    else:
        cls = symmetry.classify_local_potential(potential)
        extra = ("parity_generalized", "x0")
    cls_payload = {name: getattr(cls, name)
                   for name in ("hermitian", "parity", "time_reversal", "pt", *extra)}

    records = symmetry.check_s_relations(s, cls, local=problem.kernel is None, k=ks).records
    exact = symmetry.exact_asymptotic_pt_check(s)
    suite_hold: dict = {}
    for r in records:
        if np.any(r.applicable):
            holds = bool(np.all(r.holds[r.applicable]))
            suite_hold[r.suite] = suite_hold.get(r.suite, True) and holds
    suites = {suite: ("holds" if suite_hold[suite] else "violated") if suite in suite_hold
              else "not-applicable" for suite in symmetry.SUITES}

    relations = _json_table([
        {"k": ks, "name": r.name, "anchor": r.anchor, "residual": r.residual,
         "tolerance": r.tolerance, "holds": r.holds, "applicable": r.applicable}
        for r in records], nan_is_null={"residual"})
    exact_rows = _json_table([{"k": ks, "is_exact": exact.is_exact, "theta_lr": exact.theta_lr,
                               "theta_rl": exact.theta_rl}])
    payload = {"potential": problem.label, "class": cls_payload, "suites": suites,
               "relations": relations, "exact_asymptotic_pt": exact_rows}
    _write(args.out, _json_document(payload))
    return EXIT_OK


LATTICE_HEADER = ["n", "k", "abs_t_lr", "abs_r_lr", "abs_t_rl", "abs_r_rl",
                  "det_m_re", "det_m_im", "overflow"]


def cmd_lattice(args) -> int:
    from . import potentials

    well = potentials.SquareWellParams(v0=args.v0, v1=args.v1, b=args.b)
    ks = _k_grid(args)
    n_max = args.n if args.n_max is None else args.n_max
    if n_max < args.n:
        raise ConfigError(f"n-max must be >= n = {args.n}, got {n_max}")
    if (n_max - args.n + 1) * len(ks) > MAX_ROWS:
        raise ConfigError(f"n-max {n_max} from n = {args.n} at kcount {len(ks)} gives more than "
                          f"the {MAX_ROWS} rows a table may hold")
    p = potentials.LatticeParams(well=well, a=args.a, n=args.n)
    ns, values, overflow = (np.concatenate(parts, axis=-1)
                            for parts in zip(*potentials.lattice_rows(p, ks, n_max)))
    columns = [np.repeat(ns, len(ks)), np.tile(ks, len(ns)), *values, overflow]
    _write(args.out, [_csv_table(LATTICE_HEADER, columns)])
    return EXIT_OK


# -- argument plumbing --------------------------------------------------------

#: every flag and config key: its default and the type of its value (a tuple
#: lists the strings it may be)
_OPTIONS = {
    "potential": ("square-well", POTENTIAL_KINDS),
    "v0": (1.0, float), "v1": (0.5, float), "b": (1.0, float), "a": (0.5, float),
    "n": (1, int), "n_max": (None, int),
    "s": (1.3, float), "lambda_re": (0.7, float), "lambda_im": (0.0, float), "eps": (None, float),
    "alpha": (0.0, float), "beta": (0.0, float), "gamma": (1.0, float), "delta": (1.0, float),
    "strength": (1.0, float),
    "kmin": (0.2, float), "kmax": (4.0, float), "kcount": (50, int),
    "out": (None, str), "format": ("csv", ("csv", "json")),
    "step": (1e-3, float), "cutoff": (20.0, float), "threshold": (1e-5, float),
    "samples_file": (None, str), "config": (None, str),
}


#: the --help text of the flags that have one
_HELP = {"config": "JSON file with defaults; explicit flags win",
         "format": "output format of scan; the other commands ignore it: lattice writes CSV, "
                   "compare and symmetry JSON"}


def _add_options(parser):
    for key, (_, kind) in _OPTIONS.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(kind, tuple):
            parser.add_argument(flag, dest=key, choices=kind, help=_HELP.get(key))
        else:
            parser.add_argument(flag, dest=key, type=None if kind is str else kind, help=_HELP.get(key))


_KIND_NAMES = {float: "a number", int: "an integer", str: "a string"}


def _config_value(key, value):
    """A config file's value for ``key`` as its flag would give it; null keeps
    a default that is unset."""
    default, kind = _OPTIONS[key]
    if value is None and default is None:
        return None
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float and number:
        try:
            return float(value)
        except OverflowError:           # an integer beyond the float range
            pass
    elif (kind is int and number and isinstance(value, int) or kind is str and isinstance(value, str)
          or isinstance(kind, tuple) and value in kind):
        return value
    expected = f"one of {list(kind)}" if isinstance(kind, tuple) else _KIND_NAMES[kind]
    raise ConfigError(f"config key {key!r} must be {expected}, got {json.dumps(value)}")


def _merge_config(args) -> argparse.Namespace:
    merged = {key: default for key, (default, _) in _OPTIONS.items()}
    if args.config:
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError(f"config file must hold a JSON object, got {type(file_values).__name__}")
        unknown = set(file_values) - set(_OPTIONS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update((key, _config_value(key, value)) for key, value in file_values.items())
    for key in _OPTIONS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    merged["command"] = args.command
    return argparse.Namespace(**merged)


def _keep_freed_memory():
    """Have glibc's malloc keep the memory the process frees, unless the
    environment sets its thresholds or the C library is not glibc.  A command
    allocates and frees hundreds of numpy temporaries of a few hundred KiB:
    by default glibc maps one above its mmap threshold afresh, zero-filled,
    and trims the heap top after a burst of frees, and either way the next
    temporary faults the same pages in again (the benchmark's eight
    closed-form-scan children of seed 78 take 138.4k minor faults, and 68.5k
    with both thresholds raised).  A trim threshold alone would switch off
    glibc's dynamic mmap threshold, so both are set.  The process then holds
    its peak until it exits."""
    if "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "") or any(
            name in os.environ for name in MALLOC_SETTINGS):
        return
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ImportError, OSError, ValueError):
        return
    for param, value in _MALLOPT:
        mallopt(param, value)


def main(argv=None) -> int:
    """Run one command and return its exit code.  Without argv, the command
    line is the process's own: then stdout and stderr are flushed and the
    process ends with the code, skipping the interpreter's teardown (modules,
    objects and threads it would free or join at exit), unless a flush
    fails, as on a closed pipe, when the code is returned for Python's own
    exit to report.  An exception that escapes the command unwinds as usual.
    Only without argv is glibc's malloc told to keep what the command frees
    (``_keep_freed_memory``)."""
    if argv is not None:
        return _run(argv)
    _keep_freed_memory()
    code = _run(None)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):
        return code
    os._exit(code)


def _run(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="ptscatter",
        description="transmission/reflection scans for complex local and separable non-local potentials")
    parser.add_argument("command", choices=("scan", "compare", "symmetry", "lattice"),
                        help="scan: coefficient scan over a k grid; compare: analytic vs "
                             "direct-integration comparison; symmetry: symmetry classification and "
                             "relation residuals; lattice: multi-well lattice scan")
    _add_options(parser)
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
