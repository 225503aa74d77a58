"""Self-tests of the benchmark's checker, generator and tracer.

    python3 bench/selftest.py        (from the root of a checkout)

Small grids keep this under a minute.  The file is deliberately not named
``test_*.py``: the repository's own pytest run does not collect it.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

import check  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Invocation  # noqa: E402

import ptscatter  # noqa: E402
import ptscatter.cli as cli  # noqa: E402

WORK = Path.cwd() / ".bench_work"


def _scan(name, potential, params, kcount=24, fmt="csv", refs=(3, 11)):
    grid = {"kmin": 0.3, "kmax": 3.7, "kcount": kcount}
    argv = ["scan", "--potential", potential, "--kmin", "0.3", "--kmax", "3.7",
            "--kcount", str(kcount), "--format", fmt]
    spec = {"command": "scan", "potential": potential, "params": params, "grid": grid,
            "format": fmt, "ref_rows": list(refs)}
    return Invocation(name=name, argv=argv, config=dict(params), spec=spec)


def _lattice(name, v1, n_max=40):
    params = {"v0": 1.0, "v1": v1, "b": 0.5, "a": 0.5, "n": 1, "n_max": n_max}
    grid = {"kmin": 0.5, "kmax": 3.0, "kcount": 5}
    argv = ["lattice", "--kmin", "0.5", "--kmax", "3.0", "--kcount", "5"]
    spec = {"command": "lattice", "potential": "multi-well", "params": params, "grid": grid,
            "format": "csv", "ref_rows": [0, 3]}
    return Invocation(name=name, argv=argv, config=dict(params), spec=spec)


class Case(unittest.TestCase):
    def setUp(self):
        WORK.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=WORK)
        self.workdir = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def produce(self, inv):
        """Run the real CLI in-process; return (exit code, stderr, references)."""
        inv.write_inputs(self.workdir)
        code, err = run._call_main(cli, inv.argv)
        return code, err, check.reference_table(inv.spec)

    def verdict(self, inv, code, err, refs):
        return check.check_invocation(inv.name, inv.spec, code, err, inv.out, refs)


class CheckerTests(Case):
    def test_clean_outputs_pass(self):
        for inv in (_scan("sw", "square-well", {"v0": 1.0, "v1": 0.5, "b": 1.0}),
                    _scan("sc", "scarf", {"s": 1.3, "lambda_re": 0.7, "lambda_im": 0.0, "eps": 0.0},
                          fmt="json"),
                    _lattice("lat", 0.3)):
            res = self.verdict(inv, *self.produce(inv))
            self.assertEqual((res.failed, res.errors), ([], []), inv.name)
            self.assertLess(res.worst, 1e-12, inv.name)

    def test_perturbed_coefficient_is_an_error(self):
        inv = _scan("sw", "square-well", {"v0": 1.0, "v1": 0.5, "b": 1.0})
        code, err, refs = self.produce(inv)
        lines = inv.out.read_text().splitlines()
        for row in (1 + 3, 1 + 7):          # a reference row and an identity-only row
            cells = lines[row].split(",")
            cells[1] = repr(float(cells[1]) * (1 + 1e-7))
            perturbed = lines[:row] + [",".join(cells)] + lines[row + 1:]
            inv.out.write_text("\n".join(perturbed) + "\n")
            res = self.verdict(inv, code, err, refs)
            self.assertFalse(res.failed)
            self.assertTrue(res.errors, f"perturbation in row {row} not caught")

    def test_perturbed_lattice_modulus_is_an_error(self):
        inv = _lattice("lat", 0.3)
        code, err, refs = self.produce(inv)
        data = np.loadtxt(inv.out, delimiter=",", skiprows=1)
        data[5 * 10 + 3, 2] *= 1 + 1e-7     # |T_lr| at n = 11 on a reference k
        np.savetxt(inv.out, data, delimiter=",", fmt="%.17g",
                   header=",".join(check.LATTICE_COLUMNS), comments="")
        self.assertTrue(self.verdict(inv, code, err, refs).errors)

    def test_unflagged_nan_row_is_a_failure(self):
        inv = _lattice("lat", 0.3)
        code, err, refs = self.produce(inv)
        lines = inv.out.read_text().splitlines()
        cells = lines[17].split(",")
        cells[4] = "nan"
        lines[17] = ",".join(cells)
        inv.out.write_text("\n".join(lines) + "\n")
        res = self.verdict(inv, code, err, refs)
        self.assertEqual(res.stats["nan_rows"], 1)
        self.assertTrue(res.failed)

    def test_flagged_overflow_rows_are_not_failures(self):
        inv = _lattice("lat", 30.0, n_max=220)
        res = self.verdict(inv, *self.produce(inv))
        self.assertGreater(res.stats["overflow_rows"], 0)
        self.assertFalse(res.errors)

    def test_exit_one_traceback_is_a_failure(self):
        inv = _scan("sw", "square-well", {"v0": 1.0, "v1": 0.5, "b": 1.0})
        inv.write_inputs(self.workdir)
        stderr = ('Traceback (most recent call last):\n  File "cli.py", line 1\n'
                  "OverflowError: math range error\n")
        res = self.verdict(inv, 1, stderr, {})
        self.assertTrue(any("outside the documented" in r for r in res.failed))
        self.assertTrue(any("traceback" in r for r in res.failed))

    def test_compare_threshold_exit_is_a_failure(self):
        inv = _scan("sw", "square-well", {"v0": 1.0, "v1": 0.5, "b": 1.0})
        inv.write_inputs(self.workdir)
        self.assertTrue(self.verdict(inv, 4, "comparison threshold exceeded", {}).failed)


class ReferenceTests(unittest.TestCase):
    def test_references_obey_the_identities(self):
        t, r, t2, r2 = reference.scarf(1.3, 0.7, 0.0, 1.1)
        self.assertAlmostEqual(abs(t) ** 2 + abs(r) ** 2, 1.0, places=14)
        t, r, t2, r2 = reference.square_well(1.0, 0.5, 1.0, 0.9)
        self.assertAlmostEqual(abs(t - t2), 0.0, places=14)
        self.assertAlmostEqual(abs(t * t2 - r * r2), 1.0, places=14)   # PT: |det S| = 1

    def test_lattice_of_one_well_is_the_shifted_well(self):
        t_lr, r_lr, r_rl, _ = reference.lattice(1.0, 0.5, 0.5, 0.5, 1, 1.2)[0]
        t, r, _, r2 = reference.square_well(1.0, 0.5, 0.5, 1.2)
        self.assertAlmostEqual(t_lr, abs(t), places=14)
        self.assertAlmostEqual(r_lr, abs(r), places=14)
        self.assertAlmostEqual(r_rl, abs(r2), places=14)


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as a, tempfile.TemporaryDirectory(dir=WORK) as b:
            for name in workloads.WORKLOADS:
                one = workloads.generate(name, 7, Path(a))
                two = workloads.generate(name, 7, Path(a))
                other = workloads.generate(name, 8, Path(b))
                self.assertEqual([i.config for i in one], [i.config for i in two])
                self.assertEqual([i.spec for i in one], [i.spec for i in two])
                self.assertNotEqual([i.config for i in one], [i.config for i in other])


class TracerTests(Case):
    def traced_counts(self, invocations):
        tracer = tracing.Tracer(ptscatter)
        tracer.install()
        try:
            for trace_id, inv in enumerate(invocations):
                tracer.trace_id = trace_id
                self.assertEqual(run._call_main(cli, inv.argv)[0], 0)
        finally:
            tracer.uninstall()
        return dict(tracer.counts), tracer

    def test_counts_repeat_exactly_and_originals_return(self):
        invs = [_scan("sw", "square-well", {"v0": 1.0, "v1": 0.5, "b": 1.0}, kcount=6),
                _lattice("lat", 30.0, n_max=200)]
        for inv in invs:
            inv.write_inputs(self.workdir)
        original_main, original_det = cli.main, vars(ptscatter.core.SMatrix)["det"]
        first, tracer = self.traced_counts(invs)
        second, _ = self.traced_counts(invs)
        self.assertEqual(first, second)
        self.assertIs(cli.main, original_main)
        self.assertIs(vars(ptscatter.core.SMatrix)["det"], original_det)
        self.assertGreater(first[("potentials", "overflow_rows")], 0)
        self.assertEqual(first.get(("numeric", "sweeps"), 0), 0)
        times = tracer.self_times()
        self.assertAlmostEqual(sum(times.values()), tracer.command_time(), delta=1e-6)

    def test_importtime_parser(self):
        stderr = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:      1032 |     282823 |         scipy.special",
            "import time:      1024 |     283847 |       ptscatter.specfun",
            "import time:       642 |     252637 |       scipy.integrate",
            "import time:       617 |     684538 |   ptscatter",
            "import time:      1995 |     894439 | ptscatter.cli"])
        got = tracing.parse_importtime(stderr)
        self.assertAlmostEqual(got["import.total_s"], 0.894439)
        self.assertAlmostEqual(got["import.scipy_special_s"], 0.282823)
        self.assertAlmostEqual(got["import.scipy_integrate_s"], 0.252637)
        self.assertAlmostEqual(got["import.ptscatter_self_s"], (1024 + 617 + 1995) * 1e-6)

    def test_numeric_counts(self):
        inv = _scan("smp", "square-well", {"v0": 1.0, "v1": 0.5, "b": 1.0}, kcount=2)
        inv.argv[0] = "compare"
        inv.argv.remove("--format")
        inv.argv.remove("csv")
        inv.write_inputs(self.workdir)
        counts, _ = self.traced_counts([inv])
        self.assertEqual(counts[("numeric", "sweeps")], 2)
        self.assertEqual(counts[("numeric", "k")], 2)
        # support [-1, 1] plus one unit of matching margin each side, step 1e-3
        self.assertEqual(counts[("numeric", "steps")], 2 * 4000)
        self.assertGreater(counts[("numeric", "v_evals")], 2 * 2 * 4000)


if __name__ == "__main__":
    unittest.main()
