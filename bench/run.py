"""Benchmark of the ptscatter command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from ``src/``.
With ``--trace 0`` the real CLI runs as a subprocess, one invocation at a
time (a closed loop with one client), repeated until ``--seconds`` is used up,
and the end-to-end metrics are printed.  With ``--trace 1`` the same
invocations run in this process, alternately plain and traced, and the
per-layer metrics are printed.  Every output is checked against references
the benchmark computes itself (``check.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result with
provenance is also written to ``.bench_work/results/``.  The exit code is 0
when every check passes and 1 when a value is wrong; a checkout without
``src/ptscatter`` exits with 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

import check
import workloads

SETUP_REPEATS = 7          # fresh-interpreter imports per run for setup_s
MIN_REPEATS = 1            # passes over all invocations made at least per run
IMPORTTIME_REPEATS = 3     # -X importtime probes per traced run
CHILD_TIMEOUT_S = 150.0
RUN_PROGRAM = "import sys; from ptscatter.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import ptscatter.cli; "
                "print(repr(time.perf_counter() - t))")
# Calibration child: the kind of work a CLI child does (a fresh interpreter,
# the same third-party imports, a Python loop over small complex numpy
# products), without ptscatter, so no change to the program can move it.
CALIBRATION_PROGRAM = """\
import cmath, numpy, scipy.integrate, scipy.special
m = numpy.array([[0.6 + 0.3j, 0.2 - 0.1j], [0.1 + 0.4j, 0.7 - 0.2j]])
acc = numpy.eye(2, dtype=complex)
z = 0j
for i in range(30000):
    acc = acc @ m
    acc = acc / abs(acc[0, 0])
    z += cmath.exp(0.001j * i) * acc[1, 0]
"""
# wall_s and setup_s are given at the host speed where a calibration child
# takes this long: its mean over 30 s runs on a shared 2-vCPU Intel Xeon VM,
# rounded.
CAL_NOMINAL_S = 1.1

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "correct_digits": "digits", "success_frac": "ratio"}
PER_LAYER_UNITS = {
    "import.total_s": "s", "import.scipy_integrate_s": "s", "import.scipy_special_s": "s",
    "import.ptscatter_self_s": "s",
    "numeric.calls": "count", "numeric.k_per_call": "k/call", "numeric.self_s": "s",
    "numeric.v_evals": "count", "numeric.steps": "count_computed",
    "potentials.calls": "count", "potentials.self_s": "s", "potentials.overflow_rows": "count",
    "potentials.overflow_frac": "ratio", "potentials.det_lossy_rows": "count",
    "specfun.calls": "count", "specfun.self_s": "s",
    "separable.calls": "count", "separable.self_s": "s",
    "core.calls": "count", "core.self_s": "s", "core.wavenumber_checks": "count",
    "symmetry.calls": "count", "symmetry.self_s": "s", "symmetry.v_evals": "count",
    "symmetry.relations": "count",
    "cli.self_s": "s", "cli.bytes_out": "bytes",
    "trace.command_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}


# -- child processes ----------------------------------------------------------

def spawn(argv: list, stdout: Path, stderr: Path, env: dict) -> tuple:
    """Run one child to completion; (exit code, wall seconds, peak RSS in KiB)."""
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), write, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), write, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + argv, env, file_actions=actions)
    done = threading.Event()

    def kill():
        if not done.is_set():
            os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(CHILD_TIMEOUT_S, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:          # interrupted (SIGTERM/SIGINT): take the child down too
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        done.set()
        timer.cancel()
    wall = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def setup_probe(env: dict, workdir: Path) -> float:
    """Seconds to import ptscatter.cli in a fresh interpreter."""
    out, err = workdir / "setup.out", workdir / "setup.err"
    code, _, _ = spawn(["-c", IMPORT_PROBE], out, err, env)
    if code != 0:
        raise RuntimeError(f"import ptscatter.cli failed: {err.read_text()[-500:]}")
    return float(out.read_text())


def calibration_probe(env: dict, workdir: Path) -> float:
    """Wall seconds of one calibration child."""
    out, err = workdir / "cal.out", workdir / "cal.err"
    code, wall, _ = spawn(["-c", CALIBRATION_PROGRAM], out, err, env)
    if code != 0:
        raise RuntimeError(f"calibration child failed: {err.read_text()[-500:]}")
    return wall


def _digest(path) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


class Verdicts:
    """Checks each invocation's output once; later repeats must reproduce it byte for byte."""

    def __init__(self, refs):
        self.refs = refs
        self.first: dict = {}      # name -> (exit code, digest, Result)
        self.attempted = 0
        self.failed = 0
        self.results: list = []

    def add(self, inv, code: int, stderr: str) -> check.Result:
        self.attempted += 1
        digest = _digest(inv.out) if code == 0 else None
        seen = self.first.get(inv.name)
        if seen is not None and seen[:2] == (code, digest) and "Traceback" not in stderr:
            res = seen[2]
        else:
            res = check.check_invocation(inv.name, inv.spec, code, stderr, inv.out,
                                         self.refs[inv.name])
            if seen is not None:
                res.error("output differs from the first repeat")
            else:
                self.first[inv.name] = (code, digest, res)
            self.results.append(res)
        self.failed += bool(res.failed)
        return res

    @property
    def correct(self) -> bool:
        return all(not r.errors for r in self.results)

    def correct_digits(self) -> float:
        worst = max((r.worst for r in self.results), default=0.0)
        return -math.log10(max(worst, 1e-17))

    def summary(self) -> list:
        return [{"name": r.name, "failed": r.failed, "errors": r.errors[:20],
                 "worst_rel_err": r.worst, "stats": r.stats} for r in self.results]


# -- end-to-end run -----------------------------------------------------------

def run_end_to_end(invocations, refs, seconds: float, src: Path, workdir: Path) -> tuple:
    """Repeat passes over all invocations until ``seconds`` is used up.

    At least MIN_REPEATS passes run; the next pass does not start when the
    last one's length would carry the run past ``seconds``.  The import probes
    for setup_s are spread evenly over the run; a calibration child follows
    every CLI child.
    """
    env = child_env(src)
    setup_probe(env, workdir)              # untimed warm-ups: page cache, .pyc files
    calibration_probe(env, workdir)
    verdicts = Verdicts(refs)
    setup, walls, cal, per_call, peak_kib = [], [], [], {inv.name: [] for inv in invocations}, 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for inv in invocations:
            elapsed = time.perf_counter() - start
            if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * seconds / SETUP_REPEATS:
                setup.append(setup_probe(env, workdir))
            out, err = workdir / f"{inv.name}.stdout", workdir / f"{inv.name}.stderr"
            code, dt, rss = spawn(["-c", RUN_PROGRAM] + inv.argv, out, err, env)
            cal.append(calibration_probe(env, workdir))
            per_call[inv.name].append(dt)
            peak_kib = max(peak_kib, rss)
            verdicts.add(inv, code, err.read_text(errors="replace"))
        walls.append(sum(samples[-1] for samples in per_call.values()))
        now = time.perf_counter()
        if len(walls) >= MIN_REPEATS and now - start + (now - t0) > seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_probe(env, workdir))
    raw_wall = sum(statistics.fmean(v) for v in per_call.values())
    raw_setup = statistics.median(setup)
    # A child's time and the calibration child next to it hardly correlate, but
    # over a run they slow down together; see README.md, "Calibrated times".
    speed = CAL_NOMINAL_S / statistics.fmean(cal)
    metrics = {
        "wall_s": raw_wall * speed,
        "setup_s": raw_setup * speed,
        "peak_rss_mb": peak_kib / 1024.0,
        "correct_digits": verdicts.correct_digits(),
        "success_frac": 1.0 - verdicts.failed / verdicts.attempted,
    }
    detail = {"raw_wall_s": raw_wall, "raw_setup_s": raw_setup, "calibration_s": cal,
              "repeat_wall_s": walls,
              "invocation_wall_s": per_call, "setup_samples_s": setup}
    return verdicts, metrics, detail


# -- traced run -----------------------------------------------------------------

def _call_main(cli, argv: list) -> tuple:
    """Run the CLI entry point in-process; (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


def _counts_snapshot(tracer, bytes_out: int) -> dict:
    c = tracer.counts
    sweeps = c[("numeric", "sweeps")]
    rows = c[("potentials", "rows")]
    return {
        "numeric.calls": sweeps,
        "numeric.k_per_call": c[("numeric", "k")] / sweeps if sweeps else 0.0,
        "numeric.v_evals": c[("numeric", "v_evals")],
        "numeric.steps": c[("numeric", "steps")],
        "potentials.calls": c[("potentials", "calls")],
        "potentials.overflow_rows": c[("potentials", "overflow_rows")],
        "potentials.overflow_frac": c[("potentials", "overflow_rows")] / rows if rows else 0.0,
        "specfun.calls": c[("specfun", "calls")],
        "separable.calls": c[("separable", "calls")],
        "core.calls": c[("core", "calls")],
        "core.wavenumber_checks": c[("core", "wavenumber_checks")],
        "symmetry.calls": c[("symmetry", "calls")],
        "symmetry.v_evals": c[("symmetry", "v_evals")],
        "symmetry.relations": c[("symmetry", "relations")],
        "cli.bytes_out": bytes_out,
        "trace.spans": tracer.span_count(),
    }


def run_traced(invocations, refs, seconds: float, src: Path, workdir: Path, spans_path: Path) -> tuple:
    import tracing

    env = child_env(src)
    probes = []
    for _ in range(IMPORTTIME_REPEATS):
        out, err = workdir / "importtime.out", workdir / "importtime.err"
        code, _, _ = spawn(["-X", "importtime", "-c", "import ptscatter.cli"], out, err, env)
        if code != 0:
            raise RuntimeError(f"import ptscatter.cli failed: {err.read_text()[-500:]}")
        probes.append(tracing.parse_importtime(err.read_text()))

    sys.path.insert(0, str(src))
    import ptscatter
    import ptscatter.cli as cli

    verdicts = Verdicts(refs)
    plain_walls, traced_walls, timings, counts = [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for inv in invocations:
            verdicts.add(inv, *_call_main(cli, inv.argv))
        plain_walls.append(time.perf_counter() - t0)

        tracer = tracing.Tracer(ptscatter)
        tracer.install()
        try:
            t0 = time.perf_counter()
            for trace_id, inv in enumerate(invocations):
                tracer.trace_id = trace_id
                verdicts.add(inv, *_call_main(cli, inv.argv))
            traced_walls.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        bytes_out = sum(inv.out.stat().st_size for inv in invocations if inv.out.exists())
        counts.append(_counts_snapshot(tracer, bytes_out))
        self_times = tracer.self_times()
        timings.append({**{f"{layer}.self_s": self_times[layer] for layer in
                           ("numeric", "potentials", "specfun", "separable", "core", "symmetry", "cli")},
                        "trace.command_s": tracer.command_time()})
        if len(counts) == 1:
            tracer.write(spans_path, [inv.name for inv in invocations])
        del tracer
        if time.perf_counter() - start + traced_walls[-1] + plain_walls[-1] > seconds:
            break

    repeat_ok = all(c == counts[0] for c in counts)
    metrics = {key: statistics.median(p[key] for p in probes) for key in probes[0]}
    metrics.update(counts[0])
    metrics.update({key: statistics.median(t[key] for t in timings) for key in timings[0]})
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["potentials.det_lossy_rows"] = sum(r.stats.get("det_lossy_rows", 0) for r in verdicts.results)
    detail = {"plain_walls_s": plain_walls, "traced_walls_s": traced_walls,
              "counts_repeat_exactly": repeat_ok, "passes": len(counts)}
    return verdicts, metrics, detail, repeat_ok


# -- provenance ---------------------------------------------------------------

def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unavailable' otherwise."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def provenance(root: Path, args, invocations) -> dict:
    import numpy
    import scipy

    return {"git_sha": git_sha(root), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace,
            "invocations": [inv.resolved() for inv in invocations]}


# -- entry point ----------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    src = root / "src"
    if not (src / "ptscatter" / "cli.py").is_file():
        print(f"no ptscatter sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    results_dir = root / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = root / ".bench_work" / f"{stem}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        invocations = workloads.generate(args.workload, args.seed, workdir)
        refs = {inv.name: check.reference_table(inv.spec) for inv in invocations}
        prov = provenance(root, args, invocations)
        if args.trace:
            verdicts, metrics, detail, repeat_ok = run_traced(
                invocations, refs, args.seconds, src, workdir, results_dir / f"{args.workload}-spans.npz")
            units = PER_LAYER_UNITS
        else:
            verdicts, metrics, detail = run_end_to_end(invocations, refs, args.seconds, src, workdir)
            repeat_ok = True
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = verdicts.correct and repeat_ok
    result = {"correct": correct, "attempted": verdicts.attempted, "failed": verdicts.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}
    record = {"provenance": prov, "result": result, "detail": detail, "checks": verdicts.summary()}
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for r in verdicts.results:
        for msg in r.failed + r.errors[:5]:
            print(f"{r.name}: {msg}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{verdicts.failed} of {verdicts.attempted} invocations failed "
          f"(failed_frac {verdicts.failed / verdicts.attempted:.4g})")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print("provenance " + json.dumps({k: v for k, v in prov.items() if k != "invocations"}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
